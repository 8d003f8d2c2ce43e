"""Extension benchmark: the §VII deployment story, end to end.

Runs the deterministic discrete-event simulator and the PIR cost model
to regenerate the paper's feasibility comparison: milliseconds per
cloaked query and thousands of requests per simulated second, versus
seconds per query for cryptographic PIR — the "three orders of
magnitude" claim, with the answer cache's LBS-offload quantified.
"""

from repro.baselines import PIRCostModel
from repro.data import uniform_users
from repro.core.geometry import Rect
from repro.experiments import Table
from repro.lbs import LBSSimulation

from conftest import run_once

N_POIS = 10_000


def _run_des():
    region = Rect(0, 0, 65_536, 65_536)
    db = uniform_users(2_000, region, seed=29)
    table = Table(
        "§VII deployment — simulated serving vs the PIR cost model",
        [
            "system",
            "mean_latency_s",
            "p99_latency_s",
            "throughput_qps",
            "lbs_load_fraction",
        ],
    )
    for label, use_cache in (("cloaking+cache", True), ("cloaking", False)):
        sim = LBSSimulation(
            region,
            db,
            k=25,
            request_rate_per_user=0.05,
            snapshot_period=30.0,
            move_fraction=0.02,
            use_cache=use_cache,
            seed=5,
        )
        report = sim.run(120.0)
        table.add(
            system=label,
            mean_latency_s=report.mean_latency,
            p99_latency_s=report.latency_percentile(99),
            throughput_qps=report.throughput,
            lbs_load_fraction=report.lbs_queries / report.served,
        )
    pir = PIRCostModel()
    for servers in (1, 8):
        latency = pir.seconds_per_query(N_POIS, servers)
        table.add(
            system=f"PIR×{servers} [15]",
            mean_latency_s=latency,
            p99_latency_s=latency,
            throughput_qps=pir.throughput(N_POIS, servers),
            lbs_load_fraction=1.0,
        )
    return table


def test_des_throughput_vs_pir(benchmark, record_table):
    table = run_once(benchmark, _run_des)
    record_table("sec7_des", table)
    rows = {r["system"]: r for r in table.rows}
    cloaked = rows["cloaking+cache"]
    pir1 = rows["PIR×1 [15]"]
    # Milliseconds vs seconds: ≥ 3 orders of magnitude in mean latency.
    assert pir1["mean_latency_s"] / cloaked["mean_latency_s"] > 100
    # The cache strictly offloads the LBS.
    assert (
        cloaked["lbs_load_fraction"] < rows["cloaking"]["lbs_load_fraction"]
    )

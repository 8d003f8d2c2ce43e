"""Experiment ``sec7-cache``: per-query serving through the CSP pipeline.

§VII argues the scheme's operating point: sub-second bulk
initialization, then *milliseconds per query* (cloak lookup + candidate
query), with the CSP answer cache suppressing duplicate requests (the
frequency-attack counter-measure) and preserving billing.  Two
measurements: the figure-style aggregate run, and a tight
microbenchmark of the steady-state request path.
"""

from repro.data import uniform_users
from repro.experiments import run_sec7_cache
from repro.lbs import CSP, LBSProvider, generate_pois
from repro.core.geometry import Rect

from conftest import run_once


def test_sec7_pipeline_aggregate(benchmark, record_table):
    table = run_once(benchmark, run_sec7_cache)
    record_table("sec7_cache", table)
    row = table.rows[0]
    # Milliseconds-per-query operating point (generous envelope).
    assert row["mean_latency_ms"] < 50.0
    # The cache suppressed duplicates: the LBS saw fewer requests.
    assert row["lbs_served"] < row["requests"]
    assert row["cache_hit_rate"] > 0.0


def test_sec7_request_latency_microbench(benchmark):
    region = Rect(0, 0, 65_536, 65_536)
    db = uniform_users(2_000, region, seed=17)
    pois = generate_pois(region, {"rest": 200}, seed=17)
    csp = CSP(region, 25, db, LBSProvider(pois))
    users = db.user_ids()
    counter = [0]

    def one_request():
        uid = users[counter[0] % len(users)]
        counter[0] += 1
        return csp.request(uid, [("poi", "rest")])

    served = benchmark(one_request)
    assert served.result is not None

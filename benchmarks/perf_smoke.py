"""Perf-regression smoke check for CI.

Times the hot kernels (tree build, flat compile, flat solve, flat
extraction, object solve) and one small Figure-4(a) bulk point, then
compares each number against the committed
``bench_results/baseline_smoke.json``.  A kernel more than ``TOLERANCE``
times slower than its committed baseline fails the check — loose enough
(3×) to absorb shared-runner noise, tight enough to catch an accidental
O(n·|D|) regression in the flat engine.

Usage::

    python benchmarks/perf_smoke.py                  # compare, exit 1 on regression
    python benchmarks/perf_smoke.py --write-baseline # refresh the baseline
    python benchmarks/perf_smoke.py --out current.json

The current numbers are always written to ``--out`` (default
``bench_results/perf_smoke_current.json``) so CI can upload them as an
artifact even when the check fails.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.binary_dp import solve_object
from repro.core.flat_dp import extract_cloaks, solve_arrays
from repro.core.geometry import Rect
from repro.data import uniform_users
from repro.parallel import parallel_bulk_anonymize
from repro.trees import BinaryTree, FlatTree

BASELINE = Path(__file__).resolve().parent.parent / "bench_results" / "baseline_smoke.json"
TOLERANCE = 3.0
REGION = Rect(0, 0, 65_536, 65_536)
N = 20_000
K = 50
REPEATS = 3


def _best(fn, *args, **kwargs):
    """Best-of-REPEATS wall time — the minimum is the least noisy
    estimator on shared runners."""
    best = float("inf")
    result = None
    for __ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_smoke() -> dict:
    db = uniform_users(N, REGION, seed=37)
    timings = {}
    timings["tree_build"], tree = _best(BinaryTree.build, REGION, db, K)
    timings["flat_compile"], flat = _best(
        FlatTree.compile, tree, with_payload=True
    )
    timings["flat_solve"], vecs = _best(solve_arrays, flat, K)
    timings["flat_extract"], cloaks = _best(extract_cloaks, flat, vecs, K)
    timings["object_solve"], __ = _best(solve_object, tree, K)
    assert len(cloaks) == N
    timings["fig4a_point"], result = _best(
        parallel_bulk_anonymize, REGION, db, K, 1
    )
    assert result.master.merged.cost() > 0
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument(
        "--out",
        type=Path,
        default=BASELINE.parent / "perf_smoke_current.json",
    )
    args = parser.parse_args(argv)

    timings = run_smoke()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.write_baseline:
        BASELINE.write_text(
            json.dumps(timings, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    failures = []
    for name, seconds in sorted(timings.items()):
        ref = baseline.get(name)
        if ref is None:
            print(f"  {name:>14}: {seconds:8.4f}s  (no baseline — skipped)")
            continue
        ratio = seconds / ref if ref > 0 else float("inf")
        flag = "OK " if ratio <= TOLERANCE else "FAIL"
        print(
            f"  {name:>14}: {seconds:8.4f}s  baseline {ref:8.4f}s  "
            f"×{ratio:5.2f}  {flag}"
        )
        if ratio > TOLERANCE:
            failures.append(name)
    if failures:
        print(f"perf regression (>{TOLERANCE}× baseline): {failures}")
        return 1
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run steadiness check.

    python3 perfbench/steady.py --workload mixed --runs 10 --seed 100

Runs the benchmark command from ``BENCHMARK.json`` once per seed
(``--seed``, ``--seed + 1``, ...) with tracing off, and reports for each
end-to-end metric its median, quartiles and spread (interquartile
distance over the median).  Exits 1 when a spread other than
``setup_s``'s exceeds the metric's bound, or when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import spread  # noqa: E402

#: ``setup_s`` is gated on its median only, not on its spread.
UNGATED_SPREAD = ("setup_s",)


def load_spec(root: str = ROOT) -> Dict[str, object]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec: Dict[str, object], workload: str, seed: int,
             root: str = ROOT) -> Dict[str, float]:
    """One untraced run; metric name → value."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: run reported incorrect output")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def verdicts(spec: Dict[str, object], runs: List[Dict[str, float]]):
    """Per end-to-end metric: (name, median, q1, q3, spread, bound, ok)."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], float(metric["bound"])
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        s = spread(values)
        ok = name in UNGATED_SPREAD or s <= bound
        rows.append((name, median, q1, q3, s, bound, ok))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)
    spec = load_spec()
    runs = []
    for i in range(args.runs):
        started = time.perf_counter()
        values = run_once(spec, args.workload, args.seed + i)
        wall = time.perf_counter() - started
        print(json.dumps({"seed": args.seed + i, "wall_s": round(wall, 1),
                          **values}), flush=True)
        runs.append(values)
    failed = False
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, median, q1, q3, s, bound, ok in verdicts(spec, runs):
        target = "steady" if s <= bound / 3 else ("within" if ok else "WIDE")
        print(f"{name:<16} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{s:>8.4f} {bound:>6.3f}  {target}")
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload {churn,mixed,all} \
        --seed N --seconds S --trace {0,1}

Builds the workload's inputs from ``--seed``, runs it for about
``--seconds`` of measured time through the library in ``src/``, checks
every output against an oracle, and prints one ``name value unit`` line
per metric followed by a JSON summary as the last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics, writing the span trace to
``perfbench/out/``.  A failed correctness check exits 1 and reports no
metrics; a missing library exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("churn", "mixed")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_workloads():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"library sources not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    return workloads


def _summary(correct: bool, attempted: int, failed: int,
             metrics: Dict[str, Dict[str, object]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(_summary(True, attempted, failed, metrics))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    runner = workloads.RUNNERS[args.workload]
    try:
        outcome = runner(args.seed, args.seconds, bool(args.trace))
    except workloads.ReproError as exc:
        reason = getattr(exc, "reason", type(exc).__name__)
        print(f"FAILED ({reason}): {exc}", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(f"# {note}")
    metrics: Dict[str, Dict[str, object]] = {}
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(_summary(True, outcome.attempted, outcome.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

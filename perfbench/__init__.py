"""End-to-end benchmark of the CSP: epoch churn, and serving beside churn.

Run ``python3 perfbench/run.py --workload mixed --seed 1 --seconds 45
--trace 0`` from the repository root; see ``run.py``.
"""

"""DT: the DP kernels must stay bit-identical across engines/restores.

``solve`` takes the flat engine for every binary tree precisely because
its outputs are bit-identical to the object oracle (``solve_object``);
the journal restore and the async gateway both *verify* cloaks by
exact equality.  Any
nondeterminism inside the kernels (``core/bulk_dp.py``,
``core/binary_dp.py``, ``core/flat_dp.py``, ``trees/flat.py``) breaks
those equalities invisibly — tests that compare engines would flake
rather than fail.

Findings:

* ``DT001`` — randomness: stdlib ``random.*``, legacy ``numpy.random.*``
  globals, ``secrets``, ``uuid4``, ``os.urandom``, or a
  ``default_rng()``/``Generator()`` constructed with **no seed**.
* ``DT002`` — wall clocks: ``time.time``/``monotonic``/``perf_counter``,
  ``datetime.now`` and friends (also catches a stray ``time.sleep``).
* ``DT003`` — iteration over a set expression (set literal, ``set()``/
  ``frozenset()`` call, set method result): set order depends on the
  per-process hash seed; wrap in ``sorted(...)`` to fix the order.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import ModuleInfo, Project, Rule, dotted_name
from ..model import Finding

__all__ = ["DeterminismRule"]

_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


def _set_like(node: ast.AST) -> Optional[str]:
    """A human label when ``node`` evaluates to a set, else None."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set",
            "frozenset",
        ):
            return f"{node.func.id}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
        ):
            return f".{node.func.attr}(...)"
    return None


class DeterminismRule(Rule):
    rule_id = "DT001"
    name = "determinism"
    description = (
        "no unseeded randomness, wall clocks, or set-order iteration "
        "inside the bit-identical DP kernels"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        config = project.config
        if not config.in_scope(module.relpath, config.dp_kernel_scope):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, module, config)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(node.iter, node, module)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
            ):
                for gen in node.generators:
                    yield from self._check_iteration(gen.iter, gen.iter, module)

    def _check_call(
        self, node: ast.Call, module: ModuleInfo, config
    ) -> Iterator[Finding]:
        dotted = dotted_name(node.func, module.imports)
        if dotted is None:
            return
        if dotted in config.wallclock_calls:
            yield module.finding(
                "DT002",
                node,
                f"wall-clock call {dotted}() inside a DP kernel — outputs "
                "must be bit-identical across engines and restores",
            )
            return
        if dotted in config.nondeterministic_calls:
            yield module.finding(
                "DT001",
                node,
                f"nondeterministic call {dotted}() inside a DP kernel",
            )
            return
        for prefix in config.random_prefixes:
            if not dotted.startswith(prefix):
                continue
            member = dotted.rsplit(".", 1)[-1]
            if member in config.seeded_factories:
                if not node.args and not node.keywords:
                    yield module.finding(
                        "DT001",
                        node,
                        f"{dotted}() constructed without a seed inside a "
                        "DP kernel — pass an explicit seed",
                    )
                return
            yield module.finding(
                "DT001",
                node,
                f"unseeded randomness {dotted}() inside a DP kernel",
            )
            return

    def _check_iteration(
        self, iterable: ast.AST, at: ast.AST, module: ModuleInfo
    ) -> Iterator[Finding]:
        label = _set_like(iterable)
        if label is not None:
            yield module.finding(
                "DT003",
                at,
                f"iteration over {label} inside a DP kernel depends on "
                "the per-process hash seed — wrap in sorted(...)",
            )

"""A generic forward worklist fixpoint solver over a CFG.

Clients implement :class:`FlowAnalysis`:

* ``initial()`` — the state at the CFG entry;
* ``join(a, b)`` — merge two predecessor states (must be monotone);
* ``transfer(event, state)`` — apply one block event, returning the
  (possibly new) state;
* ``equals(a, b)`` — convergence test;
* ``copy(state)`` — defensive copy handed to ``transfer``.

``solve_forward`` returns the fixpoint **entry state of every reached
block** (``{bid: state}``); unreachable blocks are absent, which is
how flow-sensitive clients get dead-branch pruning for free.  Blocks
are seeded in reverse post-order and re-queued when a predecessor's
out-state grows; an iteration cap bounds pathological lattices (the
clients' lattices are finite, so the cap is a belt-and-braces guard).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .cfg import CFG

__all__ = ["FlowAnalysis", "solve_forward"]


class FlowAnalysis:
    """The transfer-function contract ``solve_forward`` drives."""

    def initial(self) -> Any:
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, event: tuple, state: Any) -> Any:
        raise NotImplementedError

    def equals(self, a: Any, b: Any) -> bool:
        return bool(a == b)

    def copy(self, state: Any) -> Any:
        raise NotImplementedError


def solve_forward(
    cfg: CFG,
    analysis: FlowAnalysis,
    max_passes: int = 64,
) -> Dict[int, Any]:
    """Run ``analysis`` to fixpoint; return entry states per block id."""
    order = cfg.rpo()
    position = {bid: i for i, bid in enumerate(order)}
    in_states: Dict[int, Any] = {cfg.entry: analysis.initial()}
    out_states: Dict[int, Any] = {}

    worklist: List[int] = list(order)
    queued = set(worklist)
    passes = 0
    budget = max_passes * max(1, len(order))
    while worklist:
        passes += 1
        if passes > budget:  # pragma: no cover — finite lattices converge
            break
        # Pop the earliest block in RPO for near-linear convergence.
        bid = min(worklist, key=lambda b: position.get(b, 1 << 30))
        worklist.remove(bid)
        queued.discard(bid)
        if bid not in in_states:
            continue  # unreachable so far
        state = analysis.copy(in_states[bid])
        for event in cfg.block(bid).events:
            state = analysis.transfer(event, state)
        previous = out_states.get(bid)
        if previous is not None and analysis.equals(previous, state):
            continue
        out_states[bid] = state
        for succ in cfg.block(bid).succs:
            merged: Any
            if succ not in in_states:
                merged = analysis.copy(state)
            else:
                merged = analysis.join(in_states[succ], state)
                if analysis.equals(in_states[succ], merged):
                    continue
            in_states[succ] = merged
            if succ not in queued:
                worklist.append(succ)
                queued.add(succ)
    return in_states

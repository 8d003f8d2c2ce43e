"""Control-flow graphs over stdlib ``ast`` statement lists.

A :class:`CFG` is a list of :class:`Block`\\ s.  Each block carries an
ordered list of *events* — the atoms a transfer function consumes —
instead of raw statements, so compound statements never appear inside
a block (the graph structure models them):

``("stmt", node)``
    A leaf statement: ``Assign``, ``Return``, ``Expr``, ``Raise``, a
    nested ``FunctionDef``/``ClassDef`` (treated as a definition
    event), …
``("test", expr)``
    A branch condition, after boolean short-circuit decomposition —
    ``if a and b`` produces two test blocks, each with true/false
    successors, so an analysis sees the path where ``a`` held but
    ``b`` did not.
``("with-enter", item, wid)`` / ``("with-exit", item, wid)``
    Context-manager acquire/release for one ``withitem``; ``wid`` is a
    region id unique within the CFG (the lockset analysis keys held
    regions on it).
``("for-bind", target, iter)``
    One loop-header iteration bind of a ``for``.
``("except-bind", handler)``
    Entry into an ``except`` clause (binds ``handler.name``).

Exceptional flow is approximated: inside a ``try`` body every
statement boundary gets an edge to each handler entry (and to the
``finally`` entry, when present); ``raise``/``return``/``break``/
``continue`` terminate their block with the appropriate edge.  This is
deliberately coarse — the clients are *must*-analyses (lockset) and
*may*-analyses (taint) whose soundness direction tolerates it; see
DESIGN.md §14 for the residual blind spots.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Tuple

__all__ = ["Block", "CFG", "build_cfg"]

#: One transfer-function atom; see the module docstring for the shapes.
Event = Tuple


class Block:
    """A basic block: an event list plus successor edges."""

    __slots__ = ("bid", "label", "events", "succs", "preds")

    def __init__(self, bid: int, label: str = ""):
        self.bid = bid
        self.label = label
        self.events: List[Event] = []
        self.succs: List[int] = []
        self.preds: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"Block({self.bid}, {self.label!r}, events={len(self.events)})"


class CFG:
    """All blocks of one statement list, entry first."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self.entry: int = 0
        self.exit: int = 0

    def block(self, bid: int) -> Block:
        return self.blocks[bid]

    def rpo(self) -> List[int]:
        """Block ids in reverse post-order from the entry."""
        seen = set()
        order: List[int] = []

        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            bid, idx = stack[-1]
            succs = self.blocks[bid].succs
            if idx < len(succs):
                stack[-1] = (bid, idx + 1)
                nxt = succs[idx]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(bid)
                stack.pop()
        order.reverse()
        return order

    def render(self) -> str:
        """Deterministic text form, for golden tests and debugging."""
        lines: List[str] = []
        for block in self.blocks:
            tag = f"B{block.bid}"
            if block.label:
                tag += f"[{block.label}]"
            succs = " ".join(f"B{s}" for s in block.succs)
            lines.append(f"{tag} -> {succs or '-'}")
            for event in block.events:
                lines.append(f"  {_describe_event(event)}")
        return "\n".join(lines)


def _describe_event(event: Event) -> str:
    kind = event[0]
    if kind == "stmt":
        node = event[1]
        return f"stmt:{type(node).__name__}@{node.lineno}"
    if kind == "test":
        return f"test@{event[1].lineno}"
    if kind in ("with-enter", "with-exit"):
        item = event[1]
        return f"{kind}@{item.context_expr.lineno}#w{event[2]}"
    if kind == "for-bind":
        return f"for-bind@{event[2].lineno}"
    if kind == "except-bind":
        return f"except-bind@{event[1].lineno}"
    return kind  # pragma: no cover — exhaustive above


#: Leaf statements recorded as plain ``("stmt", node)`` events.
_LEAF_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Assert,
    ast.Delete,
    ast.Pass,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.cur: Block = self._new("entry")
        self.cfg.entry = self.cur.bid
        self._exit = self._new("exit")
        self.cfg.exit = self._exit.bid
        #: (continue_target, break_target) per enclosing loop.
        self.loops: List[Tuple[int, int]] = []
        #: innermost-first exceptional targets: block ids an exception
        #: raised "here" may reach (handler entries and/or finally).
        self.exc_targets: List[List[int]] = []
        #: innermost-first ``finally`` entries (for return routing).
        self.finallies: List[int] = []
        self._next_wid = 0

    # -- plumbing ------------------------------------------------------------

    def _new(self, label: str = "") -> Block:
        block = Block(len(self.cfg.blocks), label)
        self.cfg.blocks.append(block)
        return block

    def _edge(self, src: Block, dst: Block) -> None:
        if dst.bid not in src.succs:
            src.succs.append(dst.bid)
            dst.preds.append(src.bid)

    def _goto(self, block: Block) -> None:
        self.cur = block

    def _terminated(self) -> Block:
        """Start a fresh (unreachable) block after a jump statement."""
        dead = self._new("dead")
        self._goto(dead)
        return dead

    def _exc_edges(self) -> None:
        """Edge the current block to the innermost exception targets."""
        if self.exc_targets:
            for bid in self.exc_targets[-1]:
                self._edge(self.cur, self.cfg.blocks[bid])

    # -- entry ---------------------------------------------------------------

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        self._visit_body(body)
        self._edge(self.cur, self._exit)
        return self.cfg

    def _visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    # -- branches ------------------------------------------------------------

    def _branch(self, test: ast.expr, true: Block, false: Block) -> None:
        """Decompose short-circuit tests; ends the current block."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values[:-1]:
                nxt = self._new("and")
                self._branch(value, nxt, false)
                self._goto(nxt)
            self._branch(test.values[-1], true, false)
            return
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            for value in test.values[:-1]:
                nxt = self._new("or")
                self._branch(value, true, nxt)
                self._goto(nxt)
            self._branch(test.values[-1], true, false)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._branch(test.operand, false, true)
            return
        self.cur.events.append(("test", test))
        self._edge(self.cur, true)
        self._edge(self.cur, false)

    # -- statements ----------------------------------------------------------

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, _LEAF_STMTS):
            self.cur.events.append(("stmt", stmt))
            self._exc_edges()
        elif isinstance(stmt, ast.Return):
            self.cur.events.append(("stmt", stmt))
            if self.finallies:
                self._edge(self.cur, self.cfg.blocks[self.finallies[-1]])
            self._edge(self.cur, self._exit)
            self._terminated()
        elif isinstance(stmt, ast.Raise):
            self.cur.events.append(("stmt", stmt))
            if self.exc_targets and self.exc_targets[-1]:
                self._exc_edges()
            else:
                self._edge(self.cur, self._exit)
            self._terminated()
        elif isinstance(stmt, ast.Break):
            if self.loops:
                self._edge(self.cur, self.cfg.blocks[self.loops[-1][1]])
            self._terminated()
        elif isinstance(stmt, ast.Continue):
            if self.loops:
                self._edge(self.cur, self.cfg.blocks[self.loops[-1][0]])
            self._terminated()
        elif isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, ast.While):
            self._visit_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Try):
            self._visit_try(stmt)
        elif isinstance(stmt, getattr(ast, "Match", ())):
            self._visit_match(stmt)
        else:  # pragma: no cover — future statement kinds degrade to leaves
            self.cur.events.append(("stmt", stmt))
            self._exc_edges()

    def _visit_if(self, stmt: ast.If) -> None:
        then = self._new("then")
        other = self._new("else")
        after = self._new("endif")
        self._branch(stmt.test, then, other)
        self._goto(then)
        self._visit_body(stmt.body)
        self._edge(self.cur, after)
        self._goto(other)
        self._visit_body(stmt.orelse)
        self._edge(self.cur, after)
        self._goto(after)

    def _visit_while(self, stmt: ast.While) -> None:
        header = self._new("while")
        body = self._new("loop-body")
        orelse = self._new("loop-else")
        after = self._new("endloop")
        self._edge(self.cur, header)
        self._goto(header)
        self._branch(stmt.test, body, orelse)
        self.loops.append((header.bid, after.bid))
        self._goto(body)
        self._visit_body(stmt.body)
        self._edge(self.cur, header)
        self.loops.pop()
        self._goto(orelse)
        self._visit_body(stmt.orelse)
        self._edge(self.cur, after)
        self._goto(after)

    def _visit_for(self, stmt) -> None:
        header = self._new("for")
        body = self._new("loop-body")
        orelse = self._new("loop-else")
        after = self._new("endloop")
        self._edge(self.cur, header)
        self._goto(header)
        header.events.append(("for-bind", stmt.target, stmt.iter))
        self._edge(header, body)
        self._edge(header, orelse)
        self.loops.append((header.bid, after.bid))
        self._goto(body)
        self._visit_body(stmt.body)
        self._edge(self.cur, header)
        self.loops.pop()
        self._goto(orelse)
        self._visit_body(stmt.orelse)
        self._edge(self.cur, after)
        self._goto(after)

    def _visit_with(self, stmt) -> None:
        wids: List[int] = []
        for item in stmt.items:
            wid = self._next_wid
            self._next_wid += 1
            wids.append(wid)
            self.cur.events.append(("with-enter", item, wid))
        self._exc_edges()
        self._visit_body(stmt.body)
        for item, wid in zip(reversed(stmt.items), reversed(wids)):
            self.cur.events.append(("with-exit", item, wid))

    def _visit_try(self, stmt: ast.Try) -> None:
        after = self._new("endtry")
        handler_entries: List[Block] = []
        for handler in stmt.handlers:
            entry = self._new("except")
            entry.events.append(("except-bind", handler))
            handler_entries.append(entry)
        final_entry = self._new("finally") if stmt.finalbody else None

        targets = [b.bid for b in handler_entries]
        if final_entry is not None:
            targets.append(final_entry.bid)
        self.exc_targets.append(targets)
        if final_entry is not None:
            self.finallies.append(final_entry.bid)
        self._visit_body(stmt.body)
        self.exc_targets.pop()

        # else runs after a clean body; its exceptions are NOT caught
        # by this try's handlers (only routed through finally).
        if stmt.orelse:
            if final_entry is not None:
                self.exc_targets.append([final_entry.bid])
            self._visit_body(stmt.orelse)
            if final_entry is not None:
                self.exc_targets.pop()
        if final_entry is not None:
            self.finallies.pop()
        clean_exit = self.cur
        self._edge(clean_exit, final_entry if final_entry is not None else after)

        for handler, entry in zip(stmt.handlers, handler_entries):
            self._goto(entry)
            if final_entry is not None:
                self.exc_targets.append([final_entry.bid])
            self._visit_body(handler.body)
            if final_entry is not None:
                self.exc_targets.pop()
            self._edge(self.cur, final_entry if final_entry is not None else after)

        if final_entry is not None:
            self._goto(final_entry)
            self._visit_body(stmt.finalbody)
            self._edge(self.cur, after)
            # exceptional continuation: finally also flows out of the
            # function when the exception propagates.
            if self.exc_targets and self.exc_targets[-1]:
                for bid in self.exc_targets[-1]:
                    self._edge(self.cur, self.cfg.blocks[bid])
            else:
                self._edge(self.cur, self._exit)
        self._goto(after)

    def _visit_match(self, stmt) -> None:
        # match subject evaluated once; each case is a branch arm.
        self.cur.events.append(("test", stmt.subject))
        after = self._new("endmatch")
        source = self.cur
        for case in stmt.cases:
            arm = self._new("case")
            self._edge(source, arm)
            self._goto(arm)
            if case.guard is not None:
                self.cur.events.append(("test", case.guard))
            self._visit_body(case.body)
            self._edge(self.cur, after)
        self._edge(source, after)  # no case matched
        self._goto(after)


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Build the CFG of one statement list (module or function body)."""
    return _Builder().build(body)

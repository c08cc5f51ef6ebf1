"""Intraprocedural control-flow graphs over stdlib ``ast``.

One :class:`CFG` per function (or module body): statement-granularity
nodes plus three synthetic nodes — ``entry``, ``exit`` (normal
returns/fall-off), and ``raise_exit`` (uncaught exceptions).  Edges
carry a kind, :data:`NORMAL` or :data:`EXCEPTION`, so dataflow rules
can distinguish "close() ran" from "close() was skipped by a raise".

Modelling decisions (all deliberately conservative for a linter):

* Compound statements contribute one node for their *header*
  expression (``if``/``while`` test, ``for`` iterator, ``with``
  context expression); bodies are flattened into their own nodes.
* Any statement whose expressions could plausibly raise — calls,
  attribute/subscript access, arithmetic, ``assert``, ``raise`` —
  gets an :data:`EXCEPTION` edge to the innermost handler (or the
  ``finally`` block, or ``raise_exit``).  Exception *types* are not
  modelled: every handler is assumed to catch.
* ``finally`` bodies are built once, with the normal continuation and
  an :data:`EXCEPTION` edge onward to the enclosing handler or
  ``raise_exit``.  ``return``/``break``/``continue`` crossing a
  ``finally`` are routed through its block to their target.  This
  conflates the finally's several dynamic contexts into one static
  block — sound for the may-analyses reprolint runs.
* Nested ``def``/``class`` bodies are opaque: the statement binds a
  name and evaluates decorators/defaults, nothing more.  Analyse
  nested functions as their own CFGs (:func:`build_cfg` each).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "CFG",
    "CFGNode",
    "NORMAL",
    "EXCEPTION",
    "build_cfg",
]

NORMAL = "normal"
EXCEPTION = "exception"

# AST expression nodes whose evaluation can raise at runtime.  Name
# loads (NameError) are excluded as noise; comprehensions count via
# the calls/subscripts they contain.
_RAISING_EXPR = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.UnaryOp,
    ast.Compare,
    ast.Await,
    ast.Yield,
    ast.YieldFrom,
    ast.Starred,
)


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic marker.

    ``kind`` is ``"stmt"`` for real statements, ``"join"`` for
    synthetic pass-through anchors (handler heads, finally entries),
    and ``"entry"``/``"exit"``/``"raise_exit"`` for the graph ends.
    """

    idx: int
    stmt: ast.stmt | None
    kind: str
    label: str = ""

    @property
    def line(self) -> int:
        """Source line of the statement (0 for synthetic nodes)."""
        return getattr(self.stmt, "lineno", 0)


@dataclass
class CFG:
    """A directed graph of :class:`CFGNode` with kinded edges."""

    name: str
    nodes: list[CFGNode] = field(default_factory=list)
    succ: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    pred: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    entry: int = -1
    exit: int = -1
    raise_exit: int = -1

    def add_node(self, stmt: ast.stmt | None, kind: str = "stmt", label: str = "") -> int:
        idx = len(self.nodes)
        self.nodes.append(CFGNode(idx=idx, stmt=stmt, kind=kind, label=label))
        self.succ[idx] = []
        self.pred[idx] = []
        return idx

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        if (dst, kind) not in self.succ[src]:
            self.succ[src].append((dst, kind))
            self.pred[dst].append((src, kind))

    def successors(self, idx: int) -> list[tuple[int, str]]:
        return self.succ[idx]

    def predecessors(self, idx: int) -> list[tuple[int, str]]:
        return self.pred[idx]

    def stmt_nodes(self) -> Iterator[CFGNode]:
        """The real statement nodes, in creation (roughly source) order."""
        for node in self.nodes:
            if node.kind == "stmt" and node.stmt is not None:
                yield node

    def reachable(self) -> set[int]:
        """Node indices reachable from ``entry`` over any edge kind."""
        seen: set[int] = set()
        stack = [self.entry]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            stack.extend(dst for dst, _ in self.succ[idx])
        return seen

    def rpo(self) -> list[int]:
        """Reverse postorder from entry — a good worklist seed order."""
        order: list[int] = []
        seen: set[int] = {self.entry}
        stack: list[tuple[int, int]] = [(self.entry, 0)]
        while stack:
            idx, child = stack[-1]
            succs = self.succ[idx]
            if child < len(succs):
                stack[-1] = (idx, child + 1)
                nxt = succs[child][0]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(idx)
                stack.pop()
        order.reverse()
        return order


def _can_raise(stmt: ast.stmt) -> bool:
    """Whether evaluating ``stmt``'s own expressions could raise."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, ast.Delete):
        return True  # del x[k] / del x.a call __delitem__/__delattr__
    for expr in _own_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, _RAISING_EXPR):
                return True
    return False


def _own_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a statement's CFG node evaluates itself.

    Compound statements own only their header (test / iterator /
    context expressions); bodies get their own nodes.  Nested
    ``def``/``class`` own decorators and argument defaults only.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = stmt.args
        return list(stmt.decorator_list) + [
            d for d in args.defaults + args.kw_defaults if d is not None
        ]
    if isinstance(stmt, ast.ClassDef):
        return list(stmt.decorator_list) + list(stmt.bases)
    out: list[ast.expr] = []
    for _fname, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.expr))
    return out


class _Finally:
    """One enclosing ``finally`` block under construction."""

    def __init__(self, entry: int):
        self.entry = entry
        # Node indices control continues to after the finally runs,
        # for jumps (return/break/continue) routed through it.
        self.jump_targets: list[int] = []


class _Builder:
    """Recursive-descent CFG construction with a frontier discipline.

    ``_emit(stmts, frontier)`` wires a statement list after the given
    frontier (node indices whose normal out-edges flow into whatever
    comes next) and returns the new frontier.  An empty frontier means
    control cannot fall through.
    """

    def __init__(self, name: str):
        self.cfg = CFG(name=name)
        self.cfg.entry = self.cfg.add_node(None, kind="entry", label="entry")
        self.cfg.exit = self.cfg.add_node(None, kind="exit", label="exit")
        self.cfg.raise_exit = self.cfg.add_node(None, kind="raise_exit", label="raise")
        self._exc_targets: list[list[int]] = [[self.cfg.raise_exit]]
        # (after_join, continue_target, finally_depth_at_loop_entry)
        self._loops: list[tuple[int, int, int]] = []
        self._finallies: list[_Finally] = []

    # -- plumbing ------------------------------------------------------

    def _connect(self, frontier: list[int], dst: int, kind: str = NORMAL) -> None:
        for src in frontier:
            self.cfg.add_edge(src, dst, kind)

    def _exception_edges(self, idx: int) -> None:
        for target in self._exc_targets[-1]:
            self.cfg.add_edge(idx, target, EXCEPTION)

    def _route_jump(self, src: int, target: int, boundary: int) -> None:
        """Route a return/continue from ``src`` to ``target``.

        ``boundary`` is the finally-stack depth the jump may not
        escape without running intervening finally bodies (0 for
        return).  The jump enters the innermost intervening finally;
        its block then continues to ``target`` (intermediate nested
        finallies are conflated — acceptable for a may-analysis).
        """
        intervening = self._finallies[boundary:]
        if not intervening:
            self.cfg.add_edge(src, target, NORMAL)
            return
        fin = intervening[-1]
        self.cfg.add_edge(src, fin.entry, NORMAL)
        if target not in fin.jump_targets:
            fin.jump_targets.append(target)

    # -- statements ----------------------------------------------------

    def _emit(self, stmts: list[ast.stmt], frontier: list[int]) -> list[int]:
        for stmt in stmts:
            frontier = self._emit_stmt(stmt, frontier)
        return frontier

    def _emit_stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._emit_loop(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._emit_loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._emit_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = self._leaf(stmt, frontier)
            # __exit__ runs on every path; the managed resource is the
            # rules' concern, not the CFG's.
            return self._emit(stmt.body, [head])
        if isinstance(stmt, ast.Return):
            idx = self._leaf(stmt, frontier)
            self._route_jump(idx, self.cfg.exit, 0)
            return []
        if isinstance(stmt, ast.Raise):
            idx = self.cfg.add_node(stmt)
            self._connect(frontier, idx)
            self._exception_edges(idx)
            return []
        if isinstance(stmt, ast.Break):
            idx = self.cfg.add_node(stmt)
            self._connect(frontier, idx)
            after_join, _cont, depth = self._loops[-1]
            self._route_jump(idx, after_join, depth)
            return []
        if isinstance(stmt, ast.Continue):
            idx = self.cfg.add_node(stmt)
            self._connect(frontier, idx)
            _after, cont, depth = self._loops[-1]
            self._route_jump(idx, cont, depth)
            return []
        return [self._leaf(stmt, frontier)]

    def _leaf(self, stmt: ast.stmt, frontier: list[int]) -> int:
        idx = self.cfg.add_node(stmt)
        self._connect(frontier, idx)
        if _can_raise(stmt):
            self._exception_edges(idx)
        return idx

    def _emit_if(self, stmt: ast.If, frontier: list[int]) -> list[int]:
        head = self._leaf(stmt, frontier)
        then_out = self._emit(stmt.body, [head])
        else_out = self._emit(stmt.orelse, [head]) if stmt.orelse else [head]
        return then_out + else_out

    def _emit_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, frontier: list[int]
    ) -> list[int]:
        head = self._leaf(stmt, frontier)
        # Breaks need a target before the loop's natural exit is
        # known, so every loop gets a synthetic exit join.
        after_join = self.cfg.add_node(None, kind="join", label="loop-exit")
        self._loops.append((after_join, head, len(self._finallies)))
        body_out = self._emit(stmt.body, [head])
        self._loops.pop()
        self._connect(body_out, head)  # back edge

        natural: list[int] = []
        endless = isinstance(stmt, ast.While) and (
            isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        )
        if not endless:
            natural.append(head)  # condition false / iterator exhausted
        out = self._emit(stmt.orelse, natural) if stmt.orelse else natural
        self._connect(out, after_join)
        return [after_join]

    def _emit_try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        has_finally = bool(stmt.finalbody)
        fin: _Finally | None = None
        if has_finally:
            # Pre-created anchor so body statements can jump to it
            # before the finally body itself is built.
            fin = _Finally(self.cfg.add_node(None, kind="join", label="finally"))
            self._finallies.append(fin)

        # Where do exceptions inside the try body go?
        handler_heads = [
            self.cfg.add_node(None, kind="join", label="except")
            for _ in stmt.handlers
        ]
        if handler_heads:
            self._exc_targets.append(handler_heads)
        elif fin is not None:
            self._exc_targets.append([fin.entry])
        body_out = self._emit(stmt.body, frontier)
        if handler_heads or fin is not None:
            self._exc_targets.pop()

        # Handler bodies: exceptions inside them go to the finally (if
        # any) or outward.
        handler_out: list[int] = []
        if stmt.handlers:
            if fin is not None:
                self._exc_targets.append([fin.entry])
            for head, handler in zip(handler_heads, stmt.handlers):
                handler_out.extend(self._emit(handler.body, [head]))
            if fin is not None:
                self._exc_targets.pop()

        # else clause runs only after an exception-free body.
        else_out = self._emit(stmt.orelse, body_out) if stmt.orelse else body_out
        fallthrough = else_out + handler_out

        if fin is None:
            return fallthrough

        self._finallies.pop()
        self._connect(fallthrough, fin.entry)
        fin_out = self._emit(stmt.finalbody, [fin.entry])
        # The finally re-raises pending exceptions onward.
        for target in self._exc_targets[-1]:
            self._connect(fin_out, target, EXCEPTION)
        # Jumps routed through this finally continue to their targets.
        for target in fin.jump_targets:
            self._connect(fin_out, target)
        # Normal fall-through exists only if the try/handlers could
        # complete normally.
        return fin_out if fallthrough else []


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
    name: str | None = None,
) -> CFG:
    """Build the CFG of one function body (or a module body)."""
    label = name if name is not None else getattr(func, "name", "<module>")
    builder = _Builder(label)
    frontier = builder._emit(list(func.body), [builder.cfg.entry])
    builder._connect(frontier, builder.cfg.exit)
    return builder.cfg

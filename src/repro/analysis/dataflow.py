"""Generic monotone-fixpoint dataflow over :mod:`repro.analysis.cfg`.

:func:`solve` runs a forward worklist iteration to a fixpoint.  An
analysis supplies the lattice (``bottom`` + ``join``) and the transfer
functions; states must be plain comparable values (dicts of frozensets
work well).  Exception edges get their own transfer hook so rules can
model "this statement raised *before* (or *after*) its effect" — e.g.
a ``sock = dial(...)`` that raises never acquired the socket, while a
``sock.close()`` that raises still closed it for lint purposes.

The R11 lifecycle rules are the analysis built on it.
"""

from __future__ import annotations

import ast
import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.cfg import CFG, EXCEPTION, CFGNode

__all__ = [
    "DataflowAnalysis",
    "DataflowResult",
    "FixpointError",
    "bound_names",
    "solve",
]


class FixpointError(RuntimeError):
    """The iteration failed to stabilise (non-monotone transfer)."""


class DataflowAnalysis:
    """Interface for a forward dataflow analysis.

    Subclasses define the lattice and transfer; states must support
    ``==`` and be treated as immutable (return fresh states from
    ``transfer``, never mutate the argument).
    """

    def bottom(self) -> Any:
        """The least element — the state of unvisited program points."""
        raise NotImplementedError  # pragma: no cover - interface

    def initial(self, cfg: CFG) -> Any:
        """The state at function entry (defaults to ``bottom``)."""
        return self.bottom()

    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound of two states (must be monotone)."""
        raise NotImplementedError  # pragma: no cover - interface

    def transfer(self, node: CFGNode, state: Any) -> Any:
        """State after normally executing ``node`` from ``state``."""
        raise NotImplementedError  # pragma: no cover - interface

    def transfer_exception(self, node: CFGNode, state_in: Any, state_out: Any) -> Any:
        """State flowing along ``node``'s exception out-edges.

        The default joins pre- and post-states — the raise may have
        happened before or after the statement's effect.  Rules
        override this per statement when they know better.
        """
        return self.join(state_in, state_out)


@dataclass
class DataflowResult:
    """Fixpoint states per CFG node (indices absent = unreachable)."""

    input: dict[int, Any] = field(default_factory=dict)
    output: dict[int, Any] = field(default_factory=dict)
    exc_output: dict[int, Any] = field(default_factory=dict)

    def at(self, idx: int, default: Any = None) -> Any:
        """In-state of node ``idx``; ``default`` if unreachable."""
        return self.input.get(idx, default)


def solve(cfg: CFG, analysis: DataflowAnalysis, max_visits_per_node: int = 200) -> DataflowResult:
    """Iterate ``analysis`` over ``cfg`` to a fixpoint (forward).

    Nodes unreachable from entry are never visited and stay absent
    from the result.  A monotone transfer on a finite-height lattice
    always terminates; the per-node visit cap turns a non-monotone
    transfer into :class:`FixpointError` instead of a hang.
    """
    order = cfg.rpo()
    position = {idx: i for i, idx in enumerate(order)}
    result = DataflowResult()
    visits: dict[int, int] = {}
    budget = max_visits_per_node * max(1, len(cfg.nodes))
    heap: list[tuple[int, int]] = [(position[cfg.entry], cfg.entry)]
    queued = {cfg.entry}
    spent = 0
    while heap:
        _, idx = heapq.heappop(heap)
        queued.discard(idx)
        spent += 1
        visits[idx] = visits.get(idx, 0) + 1
        if visits[idx] > max_visits_per_node or spent > budget:
            raise FixpointError(
                f"dataflow failed to stabilise in {cfg.name!r} "
                f"(node {idx} visited {visits[idx]} times)"
            )
        node = cfg.nodes[idx]

        state_in = analysis.initial(cfg) if idx == cfg.entry else None
        for src, kind in cfg.predecessors(idx):
            contrib = (
                result.exc_output.get(src)
                if kind == EXCEPTION
                else result.output.get(src)
            )
            if contrib is None:
                continue
            state_in = contrib if state_in is None else analysis.join(state_in, contrib)
        if state_in is None:
            continue  # no reachable predecessor yet

        if node.kind == "stmt" and node.stmt is not None:
            state_out = analysis.transfer(node, state_in)
            state_exc = analysis.transfer_exception(node, state_in, state_out)
        else:  # synthetic nodes pass state through untouched
            state_out = state_in
            state_exc = state_in

        changed = (
            idx not in result.input
            or result.input[idx] != state_in
            or result.output[idx] != state_out
            or result.exc_output[idx] != state_exc
        )
        result.input[idx] = state_in
        result.output[idx] = state_out
        result.exc_output[idx] = state_exc
        if changed:
            for dst, _kind in cfg.successors(idx):
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (position.get(dst, len(order)), dst))
    return result


# ----------------------------------------------------------------------
# Helpers shared by analyses
# ----------------------------------------------------------------------


def _target_names(target: ast.expr) -> list[str]:
    """Variable names bound by an assignment target expression."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    return []  # attribute / subscript targets bind no local


def bound_names(stmt: ast.stmt) -> list[str]:
    """Local variable names (re)bound by executing ``stmt``.

    Walrus assignments anywhere in the statement's expressions count;
    attribute/subscript stores do not (they bind no local).
    """
    names: list[str] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            names.extend(_target_names(target))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, ast.AugAssign):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.extend(_target_names(item.optional_vars))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.append(stmt.name)
    elif isinstance(stmt, ast.Import):
        for alias in stmt.names:
            names.append(alias.asname or alias.name.split(".")[0])
    elif isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            names.append(alias.asname or alias.name)
    for node in ast.walk(stmt):
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names

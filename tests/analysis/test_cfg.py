"""Property tests for the intraprocedural CFG builder.

Rather than pinning exact node layouts (which would freeze an internal
representation), these tests assert graph *properties*: live statements
stay reachable, ``finally`` bodies dominate both exit kinds, jumps
route through intervening cleanup, and dataflow over loops terminates.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import EXCEPTION, NORMAL, build_cfg
from repro.analysis.dataflow import DataflowAnalysis, bound_names, solve


class ReachingDefinitions(DataflowAnalysis):
    """var → the CFG node indices whose definition may reach a point."""

    def bottom(self):
        return {}

    def join(self, a, b):
        return {k: a.get(k, frozenset()) | b.get(k, frozenset()) for k in a.keys() | b.keys()}

    def transfer(self, node, state):
        return {**state, **{name: frozenset({node.idx}) for name in bound_names(node.stmt)}}


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func, build_cfg(func)


def reachable_without(cfg, banned: set[int]) -> set[int]:
    """Nodes reachable from entry when ``banned`` nodes are deleted."""
    seen: set[int] = set()
    stack = [cfg.entry]
    while stack:
        idx = stack.pop()
        if idx in seen or idx in banned:
            continue
        seen.add(idx)
        stack.extend(dst for dst, _kind in cfg.successors(idx))
    return seen


def stmt_indices(cfg, needle: str) -> set[int]:
    """Indices of statement nodes whose source contains ``needle``."""
    return {
        node.idx
        for node in cfg.stmt_nodes()
        if needle in ast.unparse(node.stmt)
    }


LIVE_BODIES = [
    """
    def f(x):
        if x > 0:
            y = x
        elif x < 0:
            y = -x
        else:
            y = 0
        return y
    """,
    """
    def f(items):
        total = 0
        for item in items:
            if item is None:
                continue
            total += item
        else:
            total += 1
        return total
    """,
    """
    def f(n):
        i = 0
        while i < n:
            if i == 3:
                break
            i += 1
        return i
    """,
    """
    def f(path):
        try:
            data = load(path)
        except OSError:
            data = None
        except ValueError:
            data = ()
        else:
            data = tuple(data)
        finally:
            log(path)
        return data
    """,
    """
    def f(path):
        with open(path) as handle:
            body = handle.read()
        return body
    """,
    """
    def f(x):
        if x:
            return early(x)
        later = x + 1
        return later
    """,
]


class TestReachability:
    def test_every_live_statement_is_reachable(self):
        for source in LIVE_BODIES:
            _func, cfg = cfg_of(source)
            reachable = cfg.reachable()
            for node in cfg.stmt_nodes():
                assert node.idx in reachable, (
                    f"unreachable: {ast.unparse(node.stmt)!r}"
                )

    def test_rpo_starts_at_entry_and_covers_reachable(self):
        for source in LIVE_BODIES:
            _func, cfg = cfg_of(source)
            order = cfg.rpo()
            assert order[0] == cfg.entry
            assert set(order) == cfg.reachable()

    def test_endless_loop_has_no_normal_exit(self):
        _func, cfg = cfg_of(
            """
            def f(queue):
                while True:
                    queue.get()
            """
        )
        reachable = cfg.reachable()
        assert cfg.exit not in reachable
        assert cfg.raise_exit in reachable  # queue.get() can raise


class TestFinally:
    def test_finally_dominates_both_exit_kinds(self):
        _func, cfg = cfg_of(
            """
            def f(res):
                try:
                    use(res)
                finally:
                    res.close()
                return res
            """
        )
        cleanup = stmt_indices(cfg, "res.close()")
        assert cleanup
        pruned = reachable_without(cfg, cleanup)
        assert cfg.exit not in pruned  # normal path passes the finally
        assert cfg.raise_exit not in pruned  # so does the raise path

    def test_finally_entered_by_both_edge_kinds(self):
        _func, cfg = cfg_of(
            """
            def f(res):
                try:
                    use(res)
                finally:
                    res.close()
            """
        )
        # Walk predecessors back from the cleanup statement: the edge
        # kinds feeding the finally region must include both a normal
        # completion and an exception edge from the try body.
        (cleanup,) = stmt_indices(cfg, "res.close()")
        frontier = {cleanup}
        kinds: set[str] = set()
        seen: set[int] = set()
        while frontier:
            idx = frontier.pop()
            if idx in seen:
                continue
            seen.add(idx)
            for src, kind in cfg.predecessors(idx):
                kinds.add(kind)
                if cfg.nodes[src].kind == "join":
                    frontier.add(src)
        assert NORMAL in kinds
        assert EXCEPTION in kinds

    def test_break_routes_through_finally(self):
        _func, cfg = cfg_of(
            """
            def f(items):
                while True:
                    try:
                        break
                    finally:
                        note(items)
                return items
            """
        )
        cleanup = stmt_indices(cfg, "note(items)")
        done = stmt_indices(cfg, "return items")
        assert cleanup and done
        assert done <= cfg.reachable()
        pruned = reachable_without(cfg, cleanup)
        assert not (done & pruned)  # break cannot skip the cleanup


class TestLoops:
    def test_nested_loop_fixpoint_terminates(self):
        _, cfg = cfg_of(
            """
            def f(n):
                total = 0
                i = 0
                while i < n:
                    for j in range(n):
                        total = total + j
                    i = i + 1
                return total
            """
        )
        result = solve(cfg, ReachingDefinitions())
        state = result.at(cfg.exit)
        assert state is not None
        # Both the initialiser and the loop-body rebinding reach exit.
        assert len(state["total"]) == 2
        assert len(state["i"]) == 2

    def test_loop_body_sees_back_edge_definitions(self):
        _, cfg = cfg_of(
            """
            def f(n):
                acc = 0
                while acc < n:
                    acc = acc + 1
                return acc
            """
        )
        result = solve(cfg, ReachingDefinitions())
        (header,) = stmt_indices(cfg, "acc < n")
        defs = result.at(header)["acc"]
        assert len(defs) == 2  # initial def joined with the rebinding

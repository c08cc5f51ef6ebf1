"""Unit tests for the generic dataflow solver on hand-built graphs.

The rule families exercise the solver through real Python; here the
CFG is constructed edge by edge so each solver behaviour — joins at
merges, exception-edge routing, unreachable nodes, the non-monotone
guard — is pinned in isolation with a toy set-union lattice.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.cfg import CFG, EXCEPTION, NORMAL
from repro.analysis.dataflow import (
    DataflowAnalysis,
    FixpointError,
    solve,
)

_DUMMY = ast.parse("x = 1").body[0]


class LabelUnion(DataflowAnalysis):
    """Collects the labels of every node traversed: state = frozenset."""

    def bottom(self):
        return frozenset()

    def initial(self, cfg):
        return frozenset({"start"})

    def join(self, a, b):
        return a | b

    def transfer(self, node, state):
        return state | {node.label}


class PreStateOnRaise(LabelUnion):
    """Exception edges propagate the pre-state (acquisition style)."""

    def transfer_exception(self, node, state_in, state_out):
        return state_in


def diamond() -> tuple[CFG, dict[str, int]]:
    """entry → a → (b | c) → d → exit, with b --exc--> raise_exit."""
    cfg = CFG(name="diamond")
    idx = {
        "entry": cfg.add_node(None, "entry"),
        "a": cfg.add_node(_DUMMY, "stmt", "a"),
        "b": cfg.add_node(_DUMMY, "stmt", "b"),
        "c": cfg.add_node(_DUMMY, "stmt", "c"),
        "d": cfg.add_node(_DUMMY, "stmt", "d"),
        "exit": cfg.add_node(None, "exit"),
        "raise_exit": cfg.add_node(None, "raise_exit"),
    }
    cfg.entry = idx["entry"]
    cfg.exit = idx["exit"]
    cfg.raise_exit = idx["raise_exit"]
    cfg.add_edge(idx["entry"], idx["a"])
    cfg.add_edge(idx["a"], idx["b"])
    cfg.add_edge(idx["a"], idx["c"])
    cfg.add_edge(idx["b"], idx["d"])
    cfg.add_edge(idx["c"], idx["d"])
    cfg.add_edge(idx["d"], idx["exit"])
    cfg.add_edge(idx["b"], idx["raise_exit"], EXCEPTION)
    return cfg, idx


class TestSolver:
    def test_join_at_merge_point(self):
        cfg, idx = diamond()
        result = solve(cfg, LabelUnion())
        assert result.at(idx["d"]) == {"start", "a", "b", "c"}
        assert result.at(idx["exit"]) == {"start", "a", "b", "c", "d"}

    def test_branch_states_stay_separate_before_merge(self):
        cfg, idx = diamond()
        result = solve(cfg, LabelUnion())
        assert result.at(idx["b"]) == {"start", "a"}
        assert result.at(idx["c"]) == {"start", "a"}

    def test_default_exception_edge_joins_in_and_out(self):
        cfg, idx = diamond()
        result = solve(cfg, LabelUnion())
        # Default transfer_exception = join(in, out): the raise exit
        # sees b's own label (b may fail after its effect landed).
        assert result.at(idx["raise_exit"]) == {"start", "a", "b"}

    def test_custom_exception_edge_uses_pre_state(self):
        cfg, idx = diamond()
        result = solve(cfg, PreStateOnRaise())
        assert result.at(idx["raise_exit"]) == {"start", "a"}

    def test_unreachable_node_is_absent(self):
        cfg, idx = diamond()
        orphan = cfg.add_node(_DUMMY, "stmt", "orphan")
        cfg.add_edge(orphan, idx["exit"])
        result = solve(cfg, LabelUnion())
        assert result.at(orphan) is None
        assert result.at(orphan, default="dead") == "dead"
        assert result.at(idx["exit"]) == {"start", "a", "b", "c", "d"}

    def test_loop_reaches_fixpoint(self):
        cfg = CFG(name="loop")
        entry = cfg.add_node(None, "entry")
        head = cfg.add_node(_DUMMY, "stmt", "head")
        body = cfg.add_node(_DUMMY, "stmt", "body")
        done = cfg.add_node(None, "exit")
        cfg.entry, cfg.exit, cfg.raise_exit = entry, done, cfg.add_node(
            None, "raise_exit"
        )
        cfg.add_edge(entry, head)
        cfg.add_edge(head, body)
        cfg.add_edge(body, head)  # back edge
        cfg.add_edge(head, done)
        result = solve(cfg, LabelUnion())
        # After the fixpoint, the head has absorbed the body's label
        # via the back edge.
        assert result.at(head) == {"start", "head", "body"}
        assert result.at(done) == {"start", "head", "body"}

    def test_non_monotone_transfer_raises_instead_of_hanging(self):
        class Counter(DataflowAnalysis):
            def bottom(self):
                return 0

            def initial(self, cfg):
                return 0

            def join(self, a, b):
                return max(a, b)

            def transfer(self, node, state):
                return state + 1  # grows forever around the loop

        cfg = CFG(name="runaway")
        entry = cfg.add_node(None, "entry")
        a = cfg.add_node(_DUMMY, "stmt", "a")
        b = cfg.add_node(_DUMMY, "stmt", "b")
        cfg.entry = entry
        cfg.exit = cfg.add_node(None, "exit")
        cfg.raise_exit = cfg.add_node(None, "raise_exit")
        cfg.add_edge(entry, a)
        cfg.add_edge(a, b)
        cfg.add_edge(b, a)
        cfg.add_edge(b, cfg.exit)
        with pytest.raises(FixpointError):
            solve(cfg, Counter(), max_visits_per_node=10)


class TestHelpers:
    def test_edge_kinds_are_distinct(self):
        assert NORMAL != EXCEPTION

"""Tests for the discrete-event queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_clock_advances(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        assert q.now == 5.0

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        with pytest.raises(ValueError):
            q.push(4.0, "y")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(1.0, "x")
        assert q.peek().kind == "x"
        assert len(q) == 1

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, "x")
        assert q
        assert len(q) == 1

    def test_payload_carried(self):
        q = EventQueue()
        payload = {"data": 42}
        q.push(1.0, "x", payload)
        assert q.pop().payload is payload

    def test_drain_until(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0, 4.0):
            q.push(t, f"t{t}")
        drained = [e.kind for e in q.drain_until(2.5)]
        assert drained == ["t1.0", "t2.0"]
        assert len(q) == 2

    @settings(max_examples=30, deadline=None)
    @given(times=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    def test_property_sorted_output(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, "e")
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(popped)

    def test_event_ordering_dataclass(self):
        early = Event(1.0, 0, "a")
        late = Event(2.0, 1, "b")
        assert early < late

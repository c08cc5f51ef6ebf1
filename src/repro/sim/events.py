"""Deterministic discrete-event queue — the kernel's scheduling core.

A minimal priority-queue simulator: events carry a timestamp, a kind,
and an arbitrary payload.  Ties are broken by insertion order so runs
are fully deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Event", "EventQueue"]


@dataclass(order=True, frozen=True)
class Event:
    """A scheduled simulator event.

    Ordering is (time, seq) — ``seq`` is a monotonically increasing
    counter assigned by :class:`EventQueue` that makes the ordering
    total and deterministic.
    """

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event; times must not precede the current clock."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time {self.now}"
            )
        event = Event(time=time, seq=self._seq, kind=kind, payload=payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        event = heapq.heappop(self._heap)
        self.now = event.time
        return event

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0]

    def drain_until(self, deadline: float) -> Iterator[Event]:
        """Yield events with ``time <= deadline`` in order.

        The heap is re-examined after every yield, so events pushed by
        a consumer while handling one event are drained in the same
        pass — this is the async engine's main loop.
        """
        while self._heap and self._heap[0].time <= deadline:
            yield self.pop()

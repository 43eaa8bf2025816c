"""Structured event tracing for debugging distributed runs.

Traces are opt-in and bounded: simulating thousands of rounds with
per-message events would otherwise dominate memory.  Events are plain
tuples so tests can assert on them directly.

Both execution modes emit the same ``deliver`` events: per-message
mode as it routes each message, the vectorized fast path by expanding
its aggregate rows at delivery time (kind-major order, so only the
within-round ordering differs; ``tests/test_congest_replay.py`` pins
the sorted streams equal).  Attaching a tracer therefore does not
force per-message dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class TraceEvent(NamedTuple):
    round_number: int
    node_id: int
    event: str
    detail: tuple


@dataclass
class Tracer:
    """Bounded in-memory event recorder.

    Parameters
    ----------
    max_events:
        Hard cap; once reached, further events are counted but dropped.
    kinds:
        Optional whitelist of event names to record (None = all).
    """

    max_events: int = 100_000
    kinds: frozenset[str] | None = None

    def __post_init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.dropped = 0

    def record(
        self, round_number: int, node_id: int, event: str, *detail
    ) -> None:
        if self.kinds is not None and event not in self.kinds:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(round_number, node_id, event, detail))

    def of_kind(self, event: str) -> list[TraceEvent]:
        """All recorded events with the given name."""
        return [e for e in self.events if e.event == event]

    def for_node(self, node_id: int) -> list[TraceEvent]:
        """All recorded events at one node."""
        return [e for e in self.events if e.node_id == node_id]

    def __len__(self) -> int:
        return len(self.events)


class NullTracer:
    """No-op tracer used when tracing is disabled."""

    events: list[TraceEvent] = []
    dropped = 0

    def record(self, round_number: int, node_id: int, event: str, *detail):
        return

    def of_kind(self, event: str) -> list[TraceEvent]:
        return []

    def for_node(self, node_id: int) -> list[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

"""Shared fast-path driver for the exchange phase (Algorithm 2).

On the fault-free vectorized fast path every node's exchange behaviour
is fully determined by the shared counting engine's count tensor: in
round ``start + i`` node ``v`` broadcasts column ``i`` of its own half
counts to all neighbors, and at ``start + n`` it combines its neighbors'
columns into potentials (:meth:`RWBCNodeProgram._finish`).  Stepping
``n`` nodes for ``n`` calendar rounds to do this costs O(n^2) Python
dispatch; this driver claims :data:`~repro.core.protocol.KIND_EXCHANGE`
wholesale and replays the phase as one aggregate
:meth:`~repro.congest.transport.BulkOutbox.push_rows` per round.

Byte-identity with the per-node path is structural, not approximate:

* **Traffic.**  Edge ids ascend node-major with ports in each node's
  ``info.neighbors`` order, so one ``push_rows`` over all edges emits
  exactly the rows the per-node loop pushes (node-ascending pushes of
  each node's neighbor fan-out), with the same value-dependent per-row
  bit charges, in the same rounds.  Claimed traffic is recorded into
  :class:`~repro.congest.metrics.RunMetrics` before the driver takes
  it, so counters cannot drift.
* **Results.**  After the counting phase the count tensor is frozen;
  the ``(2, n)`` slab a neighbor would have broadcast column by column
  is exactly ``engine.counts[neighbor]``.  The driver hands each
  program zero-copy views into the tensor and calls ``_finish`` in
  ascending node order - the order the scheduler's sorted step loop
  would have used - so outputs and halting rounds match bit for bit.
* **Random streams.**  The exchange phase draws no randomness; no
  generator is touched.

The driver is only installed when faults are off and the counting
engine ran (``_begin_done_wave``); loss recovery keeps the self-paced
per-node ARQ path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.protocol import RWBCNodeProgram
    from repro.core.walk_engine import ClaimedKind, CountingWalkEngine


class ExchangeEngine:
    """Network-wide exchange phase over the shared count tensor.

    Created by the first node to enter the done wave and shared through
    ``SharedFastPathState.slots``; every node registers as its own
    done-wave handler fires.  All ``n`` registrations must land before
    the first broadcast round ``start`` - the done wave gives the flood
    ``n + 2`` rounds of slack, so a missing registration means the wave
    itself is broken and is reported as a :class:`ProtocolError`.
    """

    def __init__(
        self, n: int, start: int, engine: "CountingWalkEngine"
    ) -> None:
        from repro.core.protocol import KIND_EXCHANGE

        self.claimed_kinds = frozenset({KIND_EXCHANGE})
        self._kind = KIND_EXCHANGE
        self.n = n
        self.start = start
        self._engine = engine
        self._programs: dict[int, "RWBCNodeProgram"] = {}
        self._done = False

    def register(self, program: "RWBCNodeProgram") -> None:
        node = program.node_id
        if node in self._programs:
            raise ProtocolError(
                f"node {node} registered twice with the exchange engine"
            )
        self._programs[node] = program

    def end_round(
        self,
        round_number: int,
        claimed: dict[str, "ClaimedKind"],
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        # Claimed exchange traffic needs no processing: receivers read
        # their neighbors' columns straight from the count tensor at the
        # finish round.  Claiming it still matters: the scheduler refuses
        # bulk rows no driver claims.
        if self._done or round_number < self.start:
            return
        n = self.n
        if len(self._programs) != n:
            raise ProtocolError(
                f"exchange engine entered round {round_number} with "
                f"{len(self._programs)}/{n} nodes registered: the done "
                "wave did not reach every node in time"
            )
        engine = self._engine
        if round_number < self.start + n:
            # Round start + i: every node broadcasts count column i.
            source = round_number - self.start
            edge_src = engine._edge_src
            fields = np.empty((len(edge_src), 3), dtype=np.int64)
            fields[:, 0] = source
            fields[:, 1] = engine.counts[edge_src, 0, source]
            fields[:, 2] = engine.counts[edge_src, 1, source]
            bulk_outbox.push_rows(
                self._kind, edge_src, engine._targets, fields
            )
            return
        # Round start + n: all columns have (virtually) arrived; run
        # every node's local computation in ascending node order.
        counts = engine.counts
        for node in sorted(self._programs):
            program = self._programs[node]
            program._neighbor_counts = {
                int(v): counts[int(v)] for v in program.neighbors
            }
            program._finish(round_number)
        self._done = True

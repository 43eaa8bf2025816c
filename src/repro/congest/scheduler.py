"""The synchronous round scheduler: the heart of the CONGEST simulator.

Execution model (section III-A of the paper):

* time advances in discrete rounds;
* a message sent in round ``r`` is delivered at the start of round
  ``r + 1``;
* per round, each directed edge carries at most a constant number of
  messages of ``O(log n)`` bits each (enforced by the transport).

The simulation ends when every node program has halted and no messages
are in flight, or fails with :class:`RoundLimitExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.congest.errors import (
    ConfigError,
    FaultInjectionError,
    ProtocolError,
    RoundLimitExceeded,
    UnrecoverableLossError,
)
from repro.congest.faults import FaultPlan, FaultRuntime
from repro.congest.message import Message
from repro.congest.metrics import RunMetrics
from repro.congest.node import (
    NodeInfo,
    NodeProgram,
    RoundContext,
    SharedFastPathState,
    VectorizedProgram,
)
from repro.congest.trace import NullTracer, Tracer
from repro.congest.transport import BandwidthPolicy, BulkOutbox, RoundOutbox
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected
from repro.obs.spans import NULL_PROFILER

ProgramFactory = Callable[[NodeInfo, np.random.Generator], NodeProgram]


@dataclass
class SimulationResult:
    """Everything observable after a run."""

    programs: Mapping[int, NodeProgram]
    metrics: RunMetrics
    tracer: Tracer | NullTracer
    message_log: list[list[Message]] = field(default_factory=list)
    # True when the run used the vectorized fast path (aggregate per-edge
    # exchange instead of per-message dispatch).
    fast_path: bool = False
    # Why the fast path was not used (empty on fast-path runs): the
    # human-readable reasons from eligibility selection, so callers can
    # tell an intentional per-message run from a silent degradation.
    fallback_reasons: tuple[str, ...] = ()

    def program(self, node_id: int) -> NodeProgram:
        return self.programs[node_id]


class Simulator:
    """Drives one distributed algorithm over one graph.

    Parameters
    ----------
    graph:
        The communication topology.  Node labels must be integers (real
        CONGEST identifiers are ``O(log n)``-bit strings; ints model that
        directly).  Use :meth:`Graph.relabeled` for other label types.
    program_factory:
        Callable building a :class:`NodeProgram` from ``(NodeInfo, rng)``.
    policy:
        Bandwidth constants; defaults to ``BandwidthPolicy(n=graph.n)``.
    seed:
        Master seed; each node gets an independent child generator, so
        runs are reproducible and node randomness is private (public
        randomness would change the lower-bound setting).
    max_rounds:
        Safety limit; exceeding it raises :class:`RoundLimitExceeded`.
    record_messages:
        Keep the full per-round message log (needed for cut-bit counting
        in the lower-bound experiments; memory-heavy otherwise).
    tracer:
        Optional :class:`Tracer` for debugging.  Both execution modes
        emit the same ``deliver`` events (the fast path expands its
        aggregate rows into per-message events at delivery time), so a
        tracer does not force per-message mode; event *order* within a
        round may differ between modes.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When set, the run
        records phase/kernel wall-clock spans, a per-round wall series,
        and instrument histograms (per-edge bits/messages, plus ARQ and
        fault counters when those layers are active).  Telemetry is
        observation-only: it never affects protocol decisions, round
        counts, randomness, or fast-path eligibility, so telemetry-on
        and telemetry-off runs are byte-identical (pinned by
        ``tests/test_obs_neutrality.py``).
    require_connected:
        Reject disconnected topologies up front (random walk betweenness
        is undefined across components).
    drop_rate:
        Probability that any individual message is silently lost in
        transit - shorthand for ``faults=FaultPlan.from_drop_rate(...)``
        with a seed derived from the simulator seed.  The CONGEST model
        assumes reliable synchronous channels; protocols not written
        for loss fail *detectably* under this knob (e.g. lost walk
        tokens stall the termination detector, surfacing as
        :class:`UnrecoverableLossError` at the round limit) rather than
        silently wrong.
    faults:
        A full :class:`~repro.congest.faults.FaultPlan` - seeded
        per-edge drop/duplicate/delay schedules and per-node crash
        windows.  Applied by the one fault filter at delivery time, in
        both execution modes; injected-fault counts land in
        ``metrics.faults``.  Mutually exclusive with ``drop_rate``.
    vectorized:
        Execution-mode selection; both modes run the same round loop
        (see :meth:`_run_rounds`).  ``None`` (default) auto-selects: the
        fast path runs when every program is a
        :class:`VectorizedProgram` and nothing demands per-message
        fidelity (``record_messages`` forces per-message mode; tracers,
        telemetry, and fault injection do *not* - the fast path emits
        the same trace events and applies the same seeded fault
        schedule on its aggregate arrays).  ``False`` always runs
        per-message mode; ``True`` requires the fast path and raises
        :class:`ConfigError` when it is unavailable.  Both modes produce
        identical results for the same seed and fault plan (tested
        equivalence, see ``tests/test_walks_batched.py`` and
        ``tests/test_failure_injection.py``).
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: ProgramFactory,
        policy: BandwidthPolicy | None = None,
        seed: int | None = None,
        max_rounds: int = 1_000_000,
        record_messages: bool = False,
        tracer: Tracer | None = None,
        require_connected: bool = True,
        drop_rate: float = 0.0,
        faults: FaultPlan | None = None,
        vectorized: bool | None = None,
        telemetry=None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ConfigError("cannot simulate the empty graph")
        for node in graph.nodes():
            if not isinstance(node, int) or isinstance(node, bool):
                raise ConfigError(
                    f"node labels must be ints, got {node!r}; "
                    "use Graph.relabeled() first"
                )
        if require_connected and not is_connected(graph):
            raise ConfigError("graph must be connected")
        if max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if drop_rate and faults is not None:
            raise ConfigError(
                "pass either drop_rate (shorthand) or faults (full plan), "
                "not both"
            )
        if faults is None:
            # Validates the rate (FaultInjectionError is a ConfigError).
            # The plan seed derives from the simulator seed so that, as
            # with the old bare-float knob, reseeding the run reseeds
            # the losses.
            plan_seed = 0xD509 if seed is None else (seed ^ 0xD509)
            faults = FaultPlan.from_drop_rate(drop_rate, seed=plan_seed)
        for window in faults.crashes:
            if not graph.has_node(window.node):
                raise FaultInjectionError(
                    f"crash window names node {window.node}, which is not "
                    "in the graph"
                )
        self.faults = faults
        self.drop_rate = drop_rate
        self.graph = graph
        self.policy = policy or BandwidthPolicy(n=graph.num_nodes)
        self.max_rounds = max_rounds
        self.record_messages = record_messages
        # Explicit None check: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else NullTracer()
        self._seed = seed
        self._factory = program_factory
        self.vectorized = vectorized
        self.telemetry = telemetry
        self._profiler = (
            telemetry.profiler if telemetry is not None else NULL_PROFILER
        )
        self._instruments = (
            telemetry.instruments if telemetry is not None else None
        )

    def _build_programs(self) -> dict[int, NodeProgram]:
        master = np.random.default_rng(self._seed)
        # One child generator per node, in canonical order, so results do
        # not depend on Python dict iteration order.
        order = self.graph.canonical_order()
        children = master.spawn(len(order))
        programs: dict[int, NodeProgram] = {}
        for node, rng in zip(order, children):
            info = NodeInfo(
                node_id=node,
                neighbors=tuple(sorted(self.graph.neighbors(node))),
                n=self.graph.num_nodes,
            )
            programs[node] = self._factory(info, rng)
        return programs

    def _bulk_reasons_against(self, programs: dict[int, NodeProgram]):
        """Why the fast path cannot run (empty list = eligible)."""
        reasons = []
        if not all(
            isinstance(p, VectorizedProgram) for p in programs.values()
        ):
            reasons.append("not every program is a VectorizedProgram")
        if self.record_messages:
            reasons.append("record_messages needs materialized messages")
        # Neither tracers, telemetry, nor fault injection appear here:
        # the fast path expands its aggregate rows into the same
        # ``deliver`` trace events, records the same spans/instruments,
        # and applies the same seeded FaultPlan (see FaultRuntime), so
        # observed and faulty runs keep the speedup.
        return reasons

    def run(self) -> SimulationResult:
        """Execute rounds until global termination.

        Returns
        -------
        SimulationResult
            Final programs (read their attributes for outputs), metrics,
            and optionally the full message log.

        Raises
        ------
        RoundLimitExceeded
            If termination is not reached within ``max_rounds``.
        """
        programs = self._build_programs()
        if self.vectorized is False:
            fallback_reasons = ("vectorized=False requested",)
        else:
            reasons = self._bulk_reasons_against(programs)
            if reasons and self.vectorized is True:
                raise ConfigError(
                    "vectorized=True but the fast path is unavailable: "
                    + "; ".join(reasons)
                )
            fallback_reasons = tuple(reasons)
        return self._run_rounds(programs, fallback_reasons)

    def _run_rounds(
        self,
        programs: dict[int, NodeProgram],
        fallback_reasons: tuple[str, ...],
    ) -> SimulationResult:
        """The round loop, for both execution modes.

        Each round: enforce the round limit, run last round's traffic
        through the fault plan, record metrics and trace events, hand
        claimed bulk rows to their drivers, step nodes through
        :meth:`NodeProgram.on_round` with their control messages, run
        the drivers' end of round, and drain the outboxes.  Bandwidth
        limits are enforced on the merged control + bulk load of every
        edge, and :class:`RunMetrics` records every round through
        :meth:`RunMetrics.record_round_aggregate`.

        The two modes differ only in what the contexts carry and in
        which nodes are stepped:

        * **fast path** (empty ``fallback_reasons``): contexts carry
          ``shared`` (see :class:`SharedFastPathState`).  Through it,
          programs register cross-node *drivers*: a driver claims whole
          message kinds, ships them as aggregate per-edge rows
          (:class:`BulkOutbox`) and processes them network-wide once per
          round instead of node by node.  Bulk rows of a kind no driver
          claims raise :class:`ProtocolError`.  Only nodes with mail or
          a due ``next_wake`` are stepped, and idle ones are skipped
          (the :class:`VectorizedProgram` ``bulk_idle`` contract);
        * **per-message mode**: ``shared`` is ``None``, so no driver and
          no bulk row ever exists, and every live node is stepped every
          round, plus every halted node that has mail.  ``bulk_idle``
          and ``next_wake`` are never consulted.  This is the reference
          semantics the cross-mode equivalence tests compare against.
        """
        fast = not fallback_reasons
        metrics = RunMetrics(instruments=self._instruments)
        profiler = self._profiler
        message_log: list[list[Message]] = []
        outbox = RoundOutbox(self.policy)
        bulk_outbox = BulkOutbox(self.policy)
        order = self.graph.canonical_order()
        # Base of the edge codes ``sender * base + receiver`` that the
        # per-edge accounting groups by: unique for any int labels, not
        # only 0..n-1.
        base = 2 * max(abs(node) for node in order) + 1
        shared = SharedFastPathState()
        fault_rt = None if self.faults.is_trivial else FaultRuntime(self.faults)
        shared.fault_runtime = fault_rt
        shared.profiler = profiler
        shared.instruments = self._instruments
        # O(1) global-termination accounting: every halt/unhalt
        # transition bumps this counter through the program's halt sink,
        # so the loop never scans all n programs per round.
        halted_total = sum(p.halted for p in programs.values())

        def _note_halt(delta: int) -> None:
            nonlocal halted_total
            halted_total += delta

        for program in programs.values():
            program._halt_sink = _note_halt
        # One context per node, reused across rounds (only the round
        # number changes); constructing ~n of these per round would be
        # measurable overhead at scale.
        contexts = {
            node: RoundContext(
                node,
                programs[node].neighbors,
                outbox,
                0,
                shared if fast else None,
            )
            for node in order
        }
        claimed_kinds: dict[str, object] = {}  # kind -> claiming driver
        known_drivers = 0

        def refresh_claims() -> None:
            nonlocal known_drivers
            for driver in shared.drivers[known_drivers:]:
                for kind in getattr(driver, "claimed_kinds", ()):
                    if kind in claimed_kinds:
                        raise ConfigError(
                            "two fast-path drivers claim message kind "
                            f"{kind!r}"
                        )
                    claimed_kinds[kind] = driver
            known_drivers = len(shared.drivers)

        # Wake calendar: ``calendar[r]`` lists nodes to step in round
        # ``r`` even without mail; ``wake_round`` is the authoritative
        # per-node target so stale calendar entries (superseded by an
        # earlier wake) are skipped.  On the fast path a node's wake
        # comes from its ``next_wake``; in per-message mode every live
        # node wakes next round.
        calendar: dict[int, list[int]] = {}
        wake_round: dict[int, int] = {}

        def schedule_wake(node: int, target: int) -> None:
            current = wake_round.get(node)
            if current is not None and current <= target:
                return
            wake_round[node] = target
            calendar.setdefault(target, []).append(node)

        def schedule_next(node: int, program: NodeProgram, r: int) -> None:
            if program.halted:
                return
            wake = program.next_wake(r) if fast else r + 1
            if wake is not None:
                schedule_wake(node, wake)

        # Round 0: on_start, no deliveries.
        for node in order:
            programs[node].on_start(contexts[node])
            schedule_next(node, programs[node], 0)
        refresh_claims()
        in_flight = outbox.drain()
        bulk_in_flight = bulk_outbox.drain(base, in_flight)

        round_number = 0
        while True:
            pending_delayed = (
                fault_rt is not None and fault_rt.has_pending_delayed
            )
            if (
                halted_total == len(programs)
                and not in_flight
                and not bulk_in_flight
                and not pending_delayed
            ):
                break
            round_number += 1
            profiler.round_tick(round_number)
            if round_number > self.max_rounds:
                error_cls = (
                    UnrecoverableLossError
                    if fault_rt is not None
                    else RoundLimitExceeded
                )
                raise error_cls(
                    f"no termination after {self.max_rounds} rounds "
                    f"({halted_total}/{len(programs)} nodes halted, "
                    f"{len(in_flight) + bulk_in_flight.total_messages} "
                    "messages in flight)",
                    context={
                        "round": round_number,
                        "max_rounds": self.max_rounds,
                        "halted": halted_total,
                        "nodes": len(programs),
                        "in_flight": len(in_flight)
                        + bulk_in_flight.total_messages,
                        "faults": (
                            fault_rt.counters.summary()
                            if fault_rt is not None
                            else None
                        ),
                    },
                    metrics=metrics,
                )
            crashed_now: frozenset[int] = frozenset()
            if fault_rt is not None:
                with profiler.span("faults.filter"):
                    # Control messages first, then bulk rows (indices
                    # continue across the two), then matured delayed
                    # traffic; the replacement traffic numbers reflect
                    # what was actually delivered.
                    crashed_now = fault_rt.crashed(round_number)
                    fault_rt.note_crash_rounds(len(crashed_now))
                    fault_rt.begin_round(round_number)
                    in_flight = fault_rt.filter_messages(
                        round_number, in_flight
                    )
                    in_flight, bulk_in_flight = bulk_in_flight.apply_faults(
                        fault_rt, round_number, base, in_flight
                    )
                if self._instruments is not None:
                    self._instruments.record_fault_counters(
                        round_number, fault_rt.counters.snapshot()
                    )
            metrics.record_round_aggregate(bulk_in_flight.traffic)
            if self.record_messages:
                message_log.append(in_flight)
            if not isinstance(self.tracer, NullTracer):
                # One per-message ``deliver`` event per delivered
                # message; bulk rows are expanded (kind-major order,
                # so equivalence tests compare sorted streams).  Done
                # before the claimed-kind divert so driver traffic is
                # traced too.
                for message in in_flight:
                    self.tracer.record(
                        round_number,
                        message.receiver,
                        "deliver",
                        message.kind,
                        message.sender,
                    )
                bulk_in_flight.trace_into(self.tracer, round_number)
            # Bulk rows are driver traffic: each claimed kind goes whole
            # to its driver, first in its optional begin_round, before
            # the per-node calls, then at end of round.  Nodes receive
            # control messages only.
            claimed_traffic: dict[int, dict[str, tuple]] = {}
            if bulk_in_flight:
                for kind, driver in claimed_kinds.items():
                    data = bulk_in_flight.take(kind)
                    if data is not None:
                        claimed_traffic.setdefault(id(driver), {})[
                            kind
                        ] = data
                if bulk_in_flight:
                    unclaimed = ", ".join(bulk_in_flight.kinds)
                    raise ProtocolError(
                        f"bulk rows of kind(s) {unclaimed} arrived in round "
                        f"{round_number}, but no fast-path driver claims them"
                    )
                with profiler.span("drivers"):
                    for driver in shared.drivers:
                        claimed = claimed_traffic.get(id(driver))
                        if claimed and hasattr(driver, "begin_round"):
                            claimed_traffic[id(driver)] = driver.begin_round(
                                round_number, claimed
                            )
            with profiler.span("deliver"):
                inboxes: dict[int, list[Message]] = {}
                for message in in_flight:
                    inboxes.setdefault(message.receiver, []).append(message)
            with profiler.span("nodes"):
                # Step exactly the nodes with mail plus the ones whose
                # wake round arrived; on the fast path everything else
                # provably has nothing to do this round (the
                # ``next_wake`` / ``bulk_idle`` contract), so per-round
                # cost tracks the active set instead of n.
                step_set = set(inboxes)
                for node in calendar.pop(round_number, ()):
                    if wake_round.get(node) == round_number:
                        del wake_round[node]
                        step_set.add(node)
                for node in sorted(step_set):
                    if node in crashed_now:
                        # Down: executes nothing, sends nothing, loses
                        # this round's mail.  Re-arm so the node is
                        # re-examined right after it recovers.
                        schedule_wake(node, round_number + 1)
                        continue
                    program = programs[node]
                    inbox = inboxes.get(node)
                    if program.halted:
                        if inbox is None:
                            continue
                        program.unhalt()
                    elif fast and inbox is None and program.bulk_idle:
                        continue
                    ctx = contexts[node]
                    ctx.round_number = round_number
                    program.on_round(ctx, inbox or [])
                    schedule_next(node, program, round_number)
            if known_drivers != len(shared.drivers):
                refresh_claims()
            if shared.drivers:
                with profiler.span("drivers"):
                    for driver in shared.drivers:
                        driver.end_round(
                            round_number,
                            claimed_traffic.get(id(driver), {}),
                            outbox,
                            bulk_outbox,
                        )
            if shared.wake_requests:
                for node, target in shared.wake_requests:
                    # A target at or before the current round means
                    # "as soon as possible": the next round.
                    schedule_wake(node, max(target, round_number + 1))
                shared.wake_requests.clear()
            in_flight = outbox.drain()
            bulk_in_flight = bulk_outbox.drain(base, in_flight)

        profiler.run_finished()
        if fault_rt is not None:
            metrics.faults = fault_rt.counters.summary()
        return SimulationResult(
            programs=programs,
            metrics=metrics,
            tracer=self.tracer,
            message_log=message_log,
            fast_path=fast,
            fallback_reasons=fallback_reasons,
        )


def run_program(
    graph: Graph,
    program_factory: ProgramFactory,
    seed: int | None = None,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(graph, program_factory, seed=seed, **kwargs).run()

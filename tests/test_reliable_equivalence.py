"""Cross-loop equivalence of the *vectorized* reliable path.

The fast path's reliable machinery (per-row ARQ acceptance in
``walk_engine._dedup_claimed``, block seq assignment in
``_emit_reliable``, and the row-wise ``FaultRuntime.filter_bulk``)
must reproduce the per-message loop byte for byte.  The fixed-seed
checks in ``test_failure_injection.py`` pin a handful of schedules;
this file adds the boundary cases those seeds happen to miss, plus a
hypothesis sweep over random small plans that hunts edge-grouping
regressions.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.faults import CrashWindow, FaultPlan
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig
from repro.graphs.generators import cycle_graph, erdos_renyi_graph

PARAMS = WalkParameters(length=20, walks_per_source=6)
#: Walk launch round of the stretched reliable setup; crash windows
#: must end at or before it (estimator enforces this).
SETUP_SLACK = ProtocolConfig(
    length=PARAMS.length, walks_per_source=PARAMS.walks_per_source
).setup_slack


def _launch_round(n):
    return 2 * SETUP_SLACK * n


def _run_both_loops(graph, plan, seed=3, parameters=PARAMS, **options):
    slow = estimate_rwbc_distributed(
        graph, parameters, seed=seed, faults=plan, vectorized=False,
        **options,
    )
    fast = estimate_rwbc_distributed(
        graph, parameters, seed=seed, faults=plan, vectorized=True,
        **options,
    )
    return slow, fast


def _assert_identical(slow, fast):
    assert slow.betweenness == fast.betweenness
    assert slow.total_rounds == fast.total_rounds
    assert slow.phase_rounds == fast.phase_rounds
    assert slow.metrics.total_messages == fast.metrics.total_messages
    assert slow.metrics.faults == fast.metrics.faults
    assert slow.recovery == fast.recovery
    for node in slow.counts:
        assert (slow.counts[node] == fast.counts[node]).all()


class TestBoundaryEquivalence:
    """Hand-picked schedules at the edges of the vectorized dedup."""

    def test_crash_through_launch_round(self):
        """A node crashed until the walk launch round misses the
        launch milestone: every token sent to it sits unacked (the
        engine's setup-phase ineligibility path) until it recovers,
        performs the missed launch, and drains the retransmissions."""
        n = 8
        graph = cycle_graph(n)
        launch = _launch_round(n)
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            crashes=(CrashWindow(node=2, start=launch - 30, end=launch),),
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["crash_node_rounds"] == 30

    def test_duplicate_storm(self):
        """Heavy duplication floods the dedup with intra-round repeats
        of the same (edge, seq) - only the first copy may be accepted,
        in both loops."""
        graph = erdos_renyi_graph(9, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(seed=13, duplicate_rate=0.4, drop_rate=0.05)
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["duplicated"] > 0
        assert slow.recovery["duplicates_rejected"] > 0

    def test_max_delay_slips(self):
        """Long delay slips re-order seqs across rounds, so tokens
        arrive ahead of their predecessors and park in the selective-ack
        mask above the ARQ cursor."""
        graph = erdos_renyi_graph(9, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(
            seed=17, delay_rate=0.25, max_delay=7, drop_rate=0.05
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["delayed"] > 0

    def test_counting_crash_outruns_64_seq_window(self):
        """A receiver crashed mid-counting while its neighbors keep
        emitting at a 24-token edge budget: on recovery, arriving seqs
        run more than 63 ahead of its ARQ cursor (a receive mask wider
        than 64 bits), and both loops must still accept the same
        tokens."""
        n = 5
        launch = _launch_round(n)
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            crashes=(CrashWindow(node=2, start=launch + 2, end=launch + 22),),
        )
        slow, fast = _run_both_loops(
            cycle_graph(n),
            plan,
            parameters=WalkParameters(length=20, walks_per_source=60),
            walk_budget=24,
        )
        _assert_identical(slow, fast)
        assert slow.metrics.faults["crash_node_rounds"] == 20

    def test_late_copy_at_exchange_node(self):
        """A delayed fresh-emission copy lands at a node already in the
        exchange phase, after a retransmission delivered the token: the
        duplicate's ack must leave in that node's flush of the same
        round, as in the per-message loop."""
        n = 12
        graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
        plan = FaultPlan(
            seed=26508100,
            drop_rate=0.015625,
            delay_rate=0.025390625,
            max_delay=6,
        )
        slow, fast = _run_both_loops(graph, plan, seed=1)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["delayed"] > 0

    def test_late_copy_at_finished_node(self):
        """A copy delayed past the whole exchange phase reaches a node
        that already finished: it must still ack it that round (the
        per-message loop wakes the node for the mail)."""
        n = 4
        graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
        plan = FaultPlan(
            seed=1994596186,
            drop_rate=0.037,
            duplicate_rate=0.128,
            delay_rate=0.032,
            max_delay=14,
        )
        slow, fast = _run_both_loops(graph, plan, seed=1)
        _assert_identical(slow, fast)


@st.composite
def fault_plans(draw):
    """A random small-graph chaos schedule: rates in the protocol's
    survivable range plus an optional pre-launch crash window."""
    n = draw(st.integers(min_value=6, max_value=14))
    rates = {
        "drop_rate": draw(
            st.floats(0.0, 0.12, allow_nan=False, allow_infinity=False)
        ),
        "duplicate_rate": draw(
            st.floats(0.0, 0.2, allow_nan=False, allow_infinity=False)
        ),
        "delay_rate": draw(
            st.floats(0.0, 0.15, allow_nan=False, allow_infinity=False)
        ),
    }
    crashes = ()
    if draw(st.booleans()):
        launch = _launch_round(n)
        span = draw(st.integers(min_value=1, max_value=40))
        start = draw(st.integers(min_value=1, max_value=launch - span))
        crashes = (
            CrashWindow(
                node=draw(st.integers(min_value=0, max_value=n - 1)),
                start=start,
                end=start + span,
            ),
        )
    plan = FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        max_delay=draw(st.integers(min_value=1, max_value=6)),
        crashes=crashes,
        **rates,
    )
    return n, plan


@given(case=fault_plans())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_plans_byte_identical_across_loops(case):
    """Any survivable small plan: both loops agree byte for byte on
    estimates, fault counters, and recovery stats."""
    n, plan = case
    graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
    if plan.is_trivial:
        # Trivial plans skip reliable mode entirely; nothing to compare
        # beyond what the fault-free equivalence suite already pins.
        return
    slow, fast = _run_both_loops(graph, plan, seed=1)
    _assert_identical(slow, fast)

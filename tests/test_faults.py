"""Unit tests for the fault-injection subsystem (congest.faults).

The load-bearing property is the determinism contract: fault decisions
are a stateless hash of ``(seed, round, edge, kind, index)``, so the
per-message and bulk code paths - fed the same traffic in different
containers - must reach identical decisions.
"""

import numpy as np
import pytest

from repro.congest.errors import FaultInjectionError
from repro.congest.faults import (
    CrashWindow,
    EdgeFaultRates,
    FaultPlan,
    FaultRuntime,
)
from repro.congest.message import Message


def _msg(sender, receiver, kind="walk", fields=(1, 2)):
    return Message(sender=sender, receiver=receiver, kind=kind, fields=fields)


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultPlan(delay_rate=2.0)

    def test_max_delay_positive(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(max_delay=0)

    def test_crash_window_shape(self):
        with pytest.raises(FaultInjectionError):
            CrashWindow(node=0, start=0)  # round 0 has no deliveries
        with pytest.raises(FaultInjectionError):
            CrashWindow(node=0, start=5, end=5)
        with pytest.raises(FaultInjectionError):
            CrashWindow(node=-1, start=1)

    def test_crash_window_coverage(self):
        window = CrashWindow(node=3, start=4, end=7)
        assert [window.covers(r) for r in range(3, 8)] == [
            False, True, True, True, False,
        ]
        forever = CrashWindow(node=3, start=4)
        assert forever.covers(10**9)

    def test_is_trivial(self):
        assert FaultPlan().is_trivial
        assert not FaultPlan(drop_rate=0.1).is_trivial
        assert not FaultPlan(crashes=(CrashWindow(node=0, start=1),)).is_trivial
        assert not FaultPlan(
            edge_overrides={(0, 1): EdgeFaultRates(drop=0.5)}
        ).is_trivial
        assert FaultPlan(
            edge_overrides={(0, 1): EdgeFaultRates()}
        ).is_trivial

    def test_from_drop_rate_matches_legacy_knob(self):
        plan = FaultPlan.from_drop_rate(0.25, seed=7)
        assert plan.drop_rate == 0.25
        assert plan.seed == 7
        assert plan.rates_for(0, 1) == (0.25, 0.0, 0.0)

    def test_edge_overrides_take_precedence(self):
        plan = FaultPlan(
            drop_rate=0.1,
            edge_overrides={(2, 3): EdgeFaultRates(drop=0.9, delay=0.05)},
        )
        assert plan.rates_for(0, 1) == (0.1, 0.0, 0.0)
        assert plan.rates_for(2, 3) == (0.9, 0.0, 0.05)
        # Directed: the reverse edge keeps the global rates.
        assert plan.rates_for(3, 2) == (0.1, 0.0, 0.0)


class TestDeterminism:
    def test_same_plan_same_fates(self):
        plan = FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.1)
        traffic = [_msg(0, 1) for _ in range(50)] + [
            _msg(1, 0, kind="term") for _ in range(20)
        ]
        outcomes = []
        for _ in range(2):
            runtime = FaultRuntime(plan)
            runtime.begin_round(5)
            delivered = runtime.filter_messages(5, list(traffic))
            outcomes.append(
                ([(m.sender, m.receiver, m.kind) for m in delivered],
                 runtime.counters.summary())
            )
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_differ(self):
        traffic = [_msg(0, 1) for _ in range(200)]
        counts = set()
        for seed in (1, 2, 3):
            runtime = FaultRuntime(FaultPlan(seed=seed, drop_rate=0.5))
            runtime.begin_round(1)
            counts.add(len(runtime.filter_messages(1, list(traffic))))
        assert len(counts) > 1

    def test_rounds_are_independent(self):
        plan = FaultPlan(seed=9, drop_rate=0.5)
        runtime = FaultRuntime(plan)
        survivors = []
        for round_number in (1, 2):
            runtime.begin_round(round_number)
            delivered = runtime.filter_messages(
                round_number, [_msg(0, 1, fields=(i,)) for i in range(100)]
            )
            survivors.append(tuple(m.fields[0] for m in delivered))
        assert survivors[0] != survivors[1]

    def test_bulk_matches_per_message(self):
        """The same traffic expressed as bulk rows and as individual
        messages must face identical per-index decisions."""
        plan = FaultPlan(seed=13, drop_rate=0.3, duplicate_rate=0.1)
        count = 40

        as_messages = FaultRuntime(plan)
        as_messages.begin_round(3)
        delivered = as_messages.filter_messages(
            3, [_msg(0, 1, fields=(7, 7)) for _ in range(count)]
        )

        as_bulk = FaultRuntime(plan)
        as_bulk.begin_round(3)
        new_mult = as_bulk.filter_bulk(
            3,
            "walk",
            senders=np.array([0]),
            receivers=np.array([1]),
            fields=np.array([[7, 7]]),
            multiplicity=np.array([count]),
        )
        assert int(new_mult[0]) == len(delivered)
        assert (
            as_messages.counters.summary() == as_bulk.counters.summary()
        )

    def test_control_then_bulk_index_composition(self):
        """Bulk rows occupy the indices *after* the round's control
        messages of the same (edge, kind) - and zero-rate fate calls
        still advance the shared counter."""
        plan = FaultPlan(seed=21, drop_rate=0.4)
        total = 30
        split = 10

        whole = FaultRuntime(plan)
        whole.begin_round(2)
        whole.filter_messages(
            2, [_msg(0, 1) for _ in range(total)]
        )

        composed = FaultRuntime(plan)
        composed.begin_round(2)
        composed.filter_messages(2, [_msg(0, 1) for _ in range(split)])
        composed.filter_bulk(
            2,
            "walk",
            senders=np.array([0]),
            receivers=np.array([1]),
            fields=np.array([[1, 2]]),
            multiplicity=np.array([total - split]),
        )
        assert (
            whole.counters.summary() == composed.counters.summary()
        )


class TestFilterSemantics:
    def test_zero_rate_plan_is_identity(self):
        runtime = FaultRuntime(FaultPlan())
        runtime.begin_round(1)
        traffic = [_msg(0, 1, fields=(i,)) for i in range(10)]
        assert runtime.filter_messages(1, traffic) == traffic
        assert runtime.counters.summary()["dropped"] == 0

    def test_duplicates_arrive_adjacent(self):
        runtime = FaultRuntime(FaultPlan(seed=5, duplicate_rate=0.5))
        runtime.begin_round(1)
        delivered = runtime.filter_messages(
            1, [_msg(0, 1, fields=(i,)) for i in range(40)]
        )
        dup_count = runtime.counters.duplicated
        assert dup_count > 0
        assert len(delivered) == 40 + dup_count
        # Every repeated payload is directly after its original.
        payloads = [m.fields[0] for m in delivered]
        for i in range(1, len(payloads)):
            assert payloads[i] >= payloads[i - 1]

    def test_delay_redelivers_later(self):
        runtime = FaultRuntime(
            FaultPlan(seed=3, delay_rate=0.5, max_delay=2)
        )
        runtime.begin_round(1)
        delivered = runtime.filter_messages(
            1, [_msg(0, 1, fields=(i,)) for i in range(40)]
        )
        delayed = runtime.counters.delayed
        assert delayed > 0
        assert len(delivered) == 40 - delayed
        assert runtime.has_pending_delayed
        recovered = []
        for later in (2, 3):
            messages, bulk = runtime.take_delayed(later)
            recovered.extend(messages)
            assert not bulk
        assert len(recovered) == delayed
        assert not runtime.has_pending_delayed

    def test_crash_drops_inbound(self):
        plan = FaultPlan(crashes=(CrashWindow(node=1, start=2, end=4),))
        runtime = FaultRuntime(plan)
        assert runtime.crashed(1) == frozenset()
        assert runtime.crashed(2) == frozenset({1})
        runtime.begin_round(2)
        delivered = runtime.filter_messages(
            2, [_msg(0, 1), _msg(0, 2), _msg(2, 1)]
        )
        assert [(m.sender, m.receiver) for m in delivered] == [(0, 2)]
        assert runtime.counters.crash_dropped == 2

    def test_delayed_message_lost_to_crash(self):
        plan = FaultPlan(
            seed=3,
            delay_rate=0.9,
            max_delay=1,
            crashes=(CrashWindow(node=1, start=2, end=3),),
        )
        runtime = FaultRuntime(plan)
        runtime.begin_round(1)
        runtime.filter_messages(1, [_msg(0, 1) for _ in range(20)])
        delayed = runtime.counters.delayed
        assert delayed > 0
        messages, _ = runtime.take_delayed(2)  # node 1 is down in round 2
        assert messages == []
        assert runtime.counters.crash_dropped == delayed

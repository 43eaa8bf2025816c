"""Tests for the batched-walk kernel and the scheduler fast path.

Two layers:

* unit tests of the :mod:`repro.walks.batched` kernels (canonical group
  algebra, the counter-based walk stream and its distribution, CSR
  stepping) and of the network-wide counting kernel against per-node
  managers;
* seeded equivalence of the simulator's two execution paths: the
  per-message loop and the vectorized fast path (network-wide
  :class:`~repro.core.walk_engine.CountingWalkEngine`) must produce
  *identical* tallies, estimates, round counts, and bandwidth
  accounting - not statistically similar, byte-equal.
"""

import numpy as np
import pytest
import scipy.stats

from repro.congest.errors import ConfigError
from repro.congest.scheduler import Simulator
from repro.congest.trace import Tracer
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.walk_engine import counting_round_kernel
from repro.core.walk_manager import TransportPolicy, WalkManager
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    star_graph,
)
from repro.walks.batched import (
    aggregate_groups,
    aggregate_network_groups,
    csr_arrays,
    route_groups,
    step_tokens,
    thin_groups,
    walk_uniforms,
)


# ---------------------------------------------------------------------------
# Kernel unit tests
# ---------------------------------------------------------------------------
class TestAggregateGroups:
    def test_merges_duplicates_and_sorts(self):
        sources = np.array([3, 1, 3, 1], dtype=np.int64)
        remainings = np.array([5, 2, 5, 2], dtype=np.int64)
        halves = np.array([0, 1, 0, 1], dtype=np.int64)
        counts = np.array([2, 1, 4, 7], dtype=np.int64)
        s, r, h, c = aggregate_groups(sources, remainings, halves, counts)
        assert s.tolist() == [1, 3]
        assert r.tolist() == [2, 5]
        assert h.tolist() == [1, 0]
        assert c.tolist() == [8, 6]

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        sources = rng.integers(0, 5, size=40)
        remainings = rng.integers(0, 7, size=40)
        halves = rng.integers(0, 2, size=40)
        counts = rng.integers(1, 9, size=40)
        forward = aggregate_groups(sources, remainings, halves, counts)
        perm = rng.permutation(40)
        shuffled = aggregate_groups(
            sources[perm], remainings[perm], halves[perm], counts[perm]
        )
        for a, b in zip(forward, shuffled):
            assert np.array_equal(a, b)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        out = aggregate_groups(empty, empty, empty, empty)
        assert all(len(a) == 0 for a in out)


class TestAggregateNetworkGroups:
    def test_matches_per_node_aggregation(self):
        rng = np.random.default_rng(1)
        nodes = rng.integers(0, 6, size=80)
        sources = rng.integers(0, 10, size=80)
        remainings = rng.integers(0, 12, size=80)
        halves = rng.integers(0, 2, size=80)
        counts = rng.integers(1, 5, size=80)
        gn, gs, gr, gh, gc = aggregate_network_groups(
            nodes, sources, remainings, halves, counts
        )
        assert np.all(gn[:-1] <= gn[1:])  # sorted by node
        for node in np.unique(nodes):
            mask = nodes == node
            es, er, eh, ec = aggregate_groups(
                sources[mask], remainings[mask], halves[mask], counts[mask]
            )
            seg = gn == node
            assert np.array_equal(gs[seg], es)
            assert np.array_equal(gr[seg], er)
            assert np.array_equal(gh[seg], eh)
            assert np.array_equal(gc[seg], ec)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        out = aggregate_network_groups(empty, empty, empty, empty, empty)
        assert all(len(a) == 0 for a in out)


class TestRouteGroups:
    def test_allocation_conserves_tokens(self):
        counts = np.array([5, 0, 13], dtype=np.int64)
        allocation = route_groups(2, 0, 4, counts)
        assert allocation.shape == (3, 4)
        assert np.array_equal(allocation.sum(axis=1), counts)

    def test_zero_tokens_consume_no_randomness(self):
        # An empty round advances a manager's draw counter by nothing,
        # so the next token takes the same draw it would have anyway.
        manager = WalkManager(
            node_id=0, neighbors=(1, 2, 3), n=4, target=3,
            walks_per_source=4, length=5, walk_key=3,
        )
        empty = np.zeros(2, dtype=np.int64)
        manager._route(empty, empty, empty, empty)
        assert manager.draws == 0
        manager.receive(source=1, remaining=2)
        assert manager.draws == 1
        port = int(walk_uniforms(3, np.arange(1))[0] * 3)
        assert manager.held_walks == 1
        assert len(manager._queues[(1, 2, 3)[port]]) == 1

    def test_roughly_uniform(self):
        allocation = route_groups(4, 0, 5, np.array([50_000], dtype=np.int64))
        assert allocation.min() > 9_000  # expectation 10k per port

    @pytest.mark.parametrize("degree", [2, 3, 5, 7, 16, 63])
    def test_port_frequencies_pass_chi_square(self, degree):
        # Pooled over several node keys and counter offsets: every port
        # of a degree-d node is hit with probability 1/d.
        tokens = 2_000 * degree
        observed = sum(
            route_groups(key, start, degree, np.array([tokens]))[0]
            for key, start in ((1, 0), (2**63 + 5, 17), (2**64 - 1, 10**9))
        )
        result = scipy.stats.chisquare(observed)
        assert result.pvalue > 1e-3, (degree, observed)

    def test_draws_are_uniform_on_unit_interval(self):
        uniforms = walk_uniforms(9, np.arange(100_000))
        assert uniforms.min() >= 0.0 and uniforms.max() < 1.0
        result = scipy.stats.kstest(uniforms, "uniform")
        assert result.pvalue > 1e-3

    def test_groups_take_consecutive_draws(self):
        # Later groups take later draws: the first group's hops do not
        # depend on what follows it in the same call.
        counts = np.array([3, 30], dtype=np.int64)
        whole = route_groups(5, 10, 7, counts)
        head = route_groups(5, 10, 7, counts[:1])
        assert np.array_equal(whole[0], head[0])

    def test_keys_give_distinct_streams(self):
        a = walk_uniforms(1, np.arange(64))
        b = walk_uniforms(2, np.arange(64))
        assert not np.intersect1d(a, b).size
        # A draw depends on (key, index) only: a scalar key and a
        # per-draw key array agree.
        keys = np.full(64, 1, dtype=np.uint64)
        assert np.array_equal(a, walk_uniforms(keys, np.arange(64)))


class TestThinGroups:
    def test_bounds_and_empty(self):
        counts = np.array([10, 0, 1000], dtype=np.int64)
        survivors = thin_groups(5, 0, counts, 0.5)
        assert np.all(survivors >= 0)
        assert np.all(survivors <= counts)
        empty = np.zeros(0, dtype=np.int64)
        assert len(thin_groups(5, 0, empty, 0.5)) == 0

    @pytest.mark.parametrize("alpha", [0.15, 0.5, 0.85])
    def test_binomial_mean_and_variance(self, alpha):
        # Per-token Bernoulli(alpha) survival makes each group's
        # survivor count Binomial(count, alpha).
        count, groups = 50, 4_000
        survivors = thin_groups(
            11, 0, np.full(groups, count, dtype=np.int64), alpha
        )
        mean, var = count * alpha, count * alpha * (1 - alpha)
        assert abs(survivors.mean() - mean) < 4 * np.sqrt(var / groups)
        assert abs(survivors.var(ddof=1) - var) < 5 * var * np.sqrt(
            2 / (groups - 1)
        )

    def test_thinning_then_routing_share_one_counter(self):
        # Damped receive: thinning takes draws 0..T-1, routing the next.
        manager = WalkManager(
            node_id=0, neighbors=(1, 2), n=4, target=3,
            walks_per_source=4, length=5, walk_key=8, survival_alpha=0.5,
        )
        manager.receive(source=1, remaining=3, count=40)
        survived = int((walk_uniforms(8, np.arange(40)) < 0.5).sum())
        assert manager.counts[1] == survived
        assert manager.draws == 40 + survived


class TestStreamKernel:
    """The network-wide kernel against per-node managers, on one round
    of canonical arrivals."""

    NEIGHBORS = {0: (1, 2), 1: (0, 2, 3), 2: (0, 1, 3), 3: (1, 2)}
    KEYS = np.array([101, 2**63 + 7, 5, 2**64 - 3], dtype=np.uint64)
    START = (3, 0, 40, 1)  # draws already taken (by launch, say)

    def _arrivals(self, seed, nodes=(0, 1, 2, 3)):
        rng = np.random.default_rng(seed)
        size = 30
        return aggregate_network_groups(
            rng.choice(np.array(nodes), size=size),
            rng.integers(0, 4, size=size),
            rng.integers(0, 4, size=size),
            rng.integers(0, 2, size=size),
            rng.integers(1, 6, size=size),
        )

    def _kernel(self, arrivals, alpha):
        offsets = np.cumsum([0] + [len(self.NEIGHBORS[v]) for v in range(4)])
        draws = np.array(self.START)
        tensor = np.zeros((4, 2, 4), dtype=np.int64)
        entries, _, _, _ = counting_round_kernel(
            *arrivals, self.KEYS, draws, alpha, 3, tensor,
            np.diff(offsets), offsets, 3, 0,
        )
        return entries, draws, tensor, offsets

    def _managers(self, arrivals, alpha, split):
        managers = {}
        nodes, sources, remainings, halves, counts = arrivals
        for v in range(4):
            manager = WalkManager(
                node_id=v, neighbors=self.NEIGHBORS[v], n=4, target=3,
                walks_per_source=2, length=5, walk_key=int(self.KEYS[v]),
                survival_alpha=alpha, split_sampling=split,
            )
            manager.draws = self.START[v]
            seg = nodes == v
            manager.receive_group_arrays(
                sources[seg], remainings[seg], halves[seg], counts[seg]
            )
            managers[v] = manager
        return managers

    @pytest.mark.parametrize(
        "alpha, split",
        [(None, False), (0.7, False), (None, True), (0.7, True)],
        ids=["absorbing", "damped", "split", "damped-split"],
    )
    def test_kernel_matches_managers(self, alpha, split):
        arrivals = self._arrivals(12)
        if not split:
            arrivals = (*arrivals[:3], np.zeros_like(arrivals[3]),
                        arrivals[4])
            arrivals = aggregate_network_groups(*arrivals)
        entries, draws, tensor, offsets = self._kernel(arrivals, alpha)
        managers = self._managers(arrivals, alpha, split)
        for v, manager in managers.items():
            assert manager.draws == draws[v]
            assert np.array_equal(manager.half_counts, tensor[v])
            for port, neighbor in enumerate(self.NEIGHBORS[v]):
                rows = entries[entries[:, 0] == offsets[v] + port]
                queued = [list(group) for group in manager._queues[neighbor]]
                assert rows[:, 2:].tolist() == queued

    def test_other_nodes_arrivals_leave_draws_unchanged(self):
        # Node 1's arrivals are fixed; everyone else's change.  Node 1's
        # routed rows and its draw counter must not move.
        fixed = self._arrivals(20, nodes=(1,))
        outcomes = []
        for seed in (21, 22):
            others = self._arrivals(seed, nodes=(0, 2))
            arrivals = aggregate_network_groups(
                *(np.concatenate((a, b)) for a, b in zip(fixed, others))
            )
            entries, draws, _, offsets = self._kernel(arrivals, 0.6)
            mine = (entries[:, 0] >= offsets[1]) & (entries[:, 0] < offsets[2])
            outcomes.append((entries[mine][:, [0, 2, 3, 4, 5]], draws[1]))
        (rows_a, draws_a), (rows_b, draws_b) = outcomes
        assert draws_a == draws_b
        assert np.array_equal(rows_a, rows_b)


class TestCsrStepping:
    def test_csr_arrays_structure(self):
        graph = grid_graph(3, 3)
        offsets, targets = csr_arrays(graph)
        order = graph.canonical_order()
        index = {node: i for i, node in enumerate(order)}
        for i, node in enumerate(order):
            row = targets[offsets[i]:offsets[i + 1]]
            expected = sorted(index[v] for v in graph.neighbors(node))
            assert row.tolist() == expected

    def test_step_tokens_stays_on_edges(self):
        graph = erdos_renyi_graph(12, 0.3, seed=6, ensure_connected=True)
        offsets, targets = csr_arrays(graph)
        degrees = np.diff(offsets)
        rng = np.random.default_rng(7)
        current = rng.integers(0, graph.num_nodes, size=500)
        stepped = step_tokens(rng, offsets, targets, degrees, current)
        order = graph.canonical_order()
        for u, v in zip(current.tolist(), stepped.tolist()):
            assert order[v] in graph.neighbors(order[u])


# ---------------------------------------------------------------------------
# Fast path / slow path equivalence
# ---------------------------------------------------------------------------
def _run(graph, config, vectorized, seed=11, **kwargs):
    simulator = Simulator(
        graph,
        make_protocol_factory(config),
        seed=seed,
        vectorized=vectorized,
        **kwargs,
    )
    return simulator.run()


def _assert_identical(graph, config, seed=11):
    slow = _run(graph, config, vectorized=False, seed=seed)
    fast = _run(graph, config, vectorized=True, seed=seed)
    assert not slow.fast_path
    assert fast.fast_path
    for node in graph.nodes():
        ps, pf = slow.program(node), fast.program(node)
        assert ps.betweenness == pf.betweenness
        assert np.array_equal(ps.counts, pf.counts)
        assert ps.target == pf.target
        assert ps.counting_start_round == pf.counting_start_round
        assert ps.exchange_start_round == pf.exchange_start_round
        assert ps.finish_round == pf.finish_round
        assert ps.edge_betweenness == pf.edge_betweenness
        if config.split_sampling:
            assert ps.betweenness_debiased == pf.betweenness_debiased
            assert ps.noise_floor == pf.noise_floor
    ms, mf = slow.metrics, fast.metrics
    assert ms.rounds == mf.rounds
    assert ms.total_messages == mf.total_messages
    assert ms.total_bits == mf.total_bits
    assert ms.max_messages_per_edge_round == mf.max_messages_per_edge_round
    assert ms.max_bits_per_edge_round == mf.max_bits_per_edge_round
    assert ms.max_message_bits == mf.max_message_bits
    # Per-round parity, not just totals: the paths must agree round by
    # round, or round-indexed experiments would diverge between them.
    assert ms.messages_per_round == mf.messages_per_round
    assert ms.bits_per_round == mf.bits_per_round


BASE = dict(length=60, walks_per_source=8)


class TestPathEquivalence:
    @pytest.mark.parametrize(
        "graph",
        [
            erdos_renyi_graph(24, 0.15, seed=8, ensure_connected=True),
            grid_graph(5, 5),
            star_graph(12),
        ],
        ids=["er", "grid", "star"],
    )
    def test_topologies_queue_policy(self, graph):
        _assert_identical(graph, ProtocolConfig(**BASE))

    def test_batch_policy(self):
        graph = erdos_renyi_graph(24, 0.15, seed=8, ensure_connected=True)
        _assert_identical(
            graph, ProtocolConfig(**BASE, policy=TransportPolicy.BATCH)
        )

    def test_alpha_mode(self):
        graph = erdos_renyi_graph(24, 0.15, seed=8, ensure_connected=True)
        _assert_identical(
            graph, ProtocolConfig(**BASE, survival_alpha=0.85)
        )

    def test_split_sampling(self):
        graph = grid_graph(4, 5)
        _assert_identical(
            graph, ProtocolConfig(**BASE, split_sampling=True)
        )

    def test_alpha_split_batch_combined(self):
        graph = erdos_renyi_graph(20, 0.2, seed=9, ensure_connected=True)
        _assert_identical(
            graph,
            ProtocolConfig(
                **BASE,
                survival_alpha=0.9,
                split_sampling=True,
                policy=TransportPolicy.BATCH,
            ),
        )


class TestFastPathSelection:
    def test_record_messages_falls_back(self):
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        result = _run(
            graph, config, vectorized=None, record_messages=True
        )
        assert not result.fast_path
        assert result.message_log  # per-message fidelity preserved
        # ... and matches an explicit slow-path run.
        slow = _run(graph, config, vectorized=False)
        for node in graph.nodes():
            assert (
                result.program(node).betweenness
                == slow.program(node).betweenness
            )

    def test_auto_selects_fast_path(self):
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        assert _run(graph, config, vectorized=None).fast_path

    def test_vectorized_true_with_recording_raises(self):
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        with pytest.raises(ConfigError, match="record_messages"):
            _run(graph, config, vectorized=True, record_messages=True)

    def test_tracer_rides_fast_path(self):
        # Tracers no longer force per-message dispatch: the fast path
        # expands its aggregate rows into the same deliver events.
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        tracer = Tracer()
        result = _run(graph, config, vectorized=None, tracer=tracer)
        assert result.fast_path
        assert len(tracer.events) > 0
        assert all(event.event == "deliver" for event in tracer.events)

"""Vectorized batched-walk kernel: advance many walk tokens at once.

The counting phase of the paper's Algorithm 1 moves `O(nK)` walk tokens
simultaneously, one hop per round.  Executing each token as its own
Python object (and each hop as its own random draw) makes the simulation
cost `O(tokens)` Python dispatches per round; Das Sarma et al.'s
distributed random-walk framework (arXiv:1302.4544) observes that the
whole per-round step is a single *batched* primitive: every token
resident at a node advances by one i.i.d. uniform step, so all of a
node's tokens can be routed with one vectorized draw over its CSR
adjacency row.

This module is that primitive, in three layers:

* **group algebra** - in-flight tokens are represented as *groups*
  ``(source, remaining, half) -> count`` held in parallel numpy arrays.
  :func:`aggregate_groups` canonicalizes any multiset of groups
  (deterministically, independent of arrival order), which is what makes
  the per-message and the aggregate transport paths consume *identical*
  random draws;
* **sampling** - every node owns a counter-based stream: a 64-bit key
  and a draw counter, with draw ``i`` a pure SplitMix64 hash of
  ``(key, i)`` (:func:`walk_uniforms`).  :func:`route_groups` gives each
  token at one node the next draw of that stream and maps it to a port;
  :func:`thin_groups` is the damped-mode Bernoulli companion.  Because
  a draw depends only on its key and index, the network-wide engine
  (:mod:`repro.core.walk_engine`) hashes every node's draws of a round
  in one call and still hands each token the very value the per-node
  call would;
* **token arrays** - :func:`step_tokens` is the fully centralized
  variant used by the Monte-Carlo engine (`repro.walks.simulate`), where
  no per-node bookkeeping is needed at all.

`repro.core.walk_manager.WalkManager` builds the per-node, bandwidth-
constrained state machine on top of these kernels; the CONGEST
scheduler's fast path (`repro.congest.scheduler`) moves the resulting
groups between nodes without materializing per-token messages.
"""

from __future__ import annotations

import numpy as np

from repro.congest.splitmix import GOLDEN, mix64_array
from repro.graphs.graph import Graph

__all__ = [
    "aggregate_groups",
    "aggregate_network_groups",
    "csr_arrays",
    "route_groups",
    "step_tokens",
    "thin_groups",
    "walk_uniforms",
]


def csr_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Compressed adjacency ``(offsets, targets)`` in canonical index
    space: node ``i``'s neighbors are ``targets[offsets[i]:offsets[i+1]]``,
    sorted ascending."""
    order = graph.canonical_order()
    index = {node: i for i, node in enumerate(order)}
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    targets_list: list[int] = []
    for i, node in enumerate(order):
        neighbor_indices = sorted(index[v] for v in graph.neighbors(node))
        targets_list.extend(neighbor_indices)
        offsets[i + 1] = len(targets_list)
    return offsets, np.array(targets_list, dtype=np.int64)


def aggregate_groups(
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge token groups with identical ``(source, remaining, half)``.

    Returns the groups in *canonical order* (sorted by the tuple), which
    is the load-bearing property: both simulator paths hand the merged
    groups' tokens their draws in this order, so the hop randomness
    they consume is identical no matter how arrivals were interleaved.
    """
    if len(sources) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    base = int(remainings.max()) + 1
    key = (sources * base + remainings) * 2 + halves
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    merged = np.bincount(inverse, weights=counts).astype(np.int64)
    return sources[first], remainings[first], halves[first], merged


def aggregate_network_groups(
    nodes: np.ndarray,
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Network-wide :func:`aggregate_groups`: merge token groups with
    identical ``(node, source, remaining, half)`` across every node at
    once.

    The result is sorted by that tuple, so each node's segment appears
    in exactly the canonical order :func:`aggregate_groups` would have
    produced for it alone - the batched engine's per-node slices
    therefore take the same draws of each node's stream as node-by-node
    processing.
    """
    if len(nodes) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (empty, empty.copy(), empty.copy(), empty.copy(),
                empty.copy())
    source_base = int(sources.max()) + 1
    remaining_base = int(remainings.max()) + 1
    key = (
        (nodes * source_base + sources) * remaining_base + remainings
    ) * 2 + halves
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    boundary = np.empty(len(sorted_key), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    merged = np.add.reduceat(counts[order], starts)
    first = order[starts]
    return (
        nodes[first],
        sources[first],
        remainings[first],
        halves[first],
        merged.astype(np.int64, copy=False),
    )


_GOLDEN = np.uint64(GOLDEN)
_SHIFT = np.uint64(11)


def walk_uniforms(keys, indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) values of counter-based walk streams.

    Draw ``i`` of the stream keyed by ``k`` is SplitMix64 output ``i``
    seeded by ``k`` (:func:`~repro.congest.splitmix.mix64_array` of
    ``k + i * GOLDEN``), with its top 53 bits scaled to [0, 1).
    ``keys`` (a scalar or one uint64 per draw) and ``indices``
    broadcast together, so one call covers one node's draws or every
    node's draws of a round at once - the value is a pure function of
    ``(key, index)`` either way.
    """
    states = np.asarray(keys, dtype=np.uint64) + np.asarray(
        indices, dtype=np.uint64
    ) * _GOLDEN
    return (mix64_array(states) >> _SHIFT).astype(np.float64) * 2.0**-53


def route_groups(
    key: int, start: int, degree: int, counts: np.ndarray
) -> np.ndarray:
    """Choose next hops for every token of every group at one node.

    Token ``j`` (groups expanded in order) takes draw ``start + j`` of
    the node's stream and leaves on port ``floor(u * degree)``.  This
    is the "single multinomial over the CSR row" of the batched-walk
    framework, one uniform per token.  Returns an
    ``(len(counts), degree)`` allocation matrix whose rows sum to the
    group counts; the caller advances its draw counter by
    ``counts.sum()``.
    """
    total = int(counts.sum())
    groups = len(counts)
    if total == 0:
        return np.zeros((groups, degree), dtype=np.int64)
    uniforms = walk_uniforms(key, np.arange(start, start + total))
    choices = (uniforms * degree).astype(np.int64)
    group_ids = np.repeat(np.arange(groups, dtype=np.int64), counts)
    flat = np.bincount(group_ids * degree + choices, minlength=groups * degree)
    return flat.reshape(groups, degree).astype(np.int64)


def thin_groups(
    key: int, start: int, counts: np.ndarray, alpha: float
) -> np.ndarray:
    """Damped-mode survival (section II-C): token ``j`` survives when
    draw ``start + j`` of the node's stream is below ``alpha``;
    survivors per group are returned.  The caller advances its draw
    counter by ``counts.sum()``."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(len(counts), dtype=np.int64)
    alive = walk_uniforms(key, np.arange(start, start + total)) < alpha
    group_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return np.bincount(
        group_ids, weights=alive, minlength=len(counts)
    ).astype(np.int64)


def step_tokens(
    rng: np.random.Generator,
    offsets: np.ndarray,
    targets: np.ndarray,
    degrees: np.ndarray,
    current: np.ndarray,
) -> np.ndarray:
    """Advance a flat token array by one uniform step each (centralized
    form: one draw for the whole network, used by the Monte-Carlo
    engine where no per-node randomness attribution is needed)."""
    steps = rng.integers(0, degrees[current])
    return targets[offsets[current] + steps]

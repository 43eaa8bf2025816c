"""Perf gate: the vectorized fast path on a *faulty* run.

Fault-free, the fast path wins ~6.5x at n = 100 (see
``test_bench_batched_engine``); this benchmark times the same contest
under a 10% drop plan, where every walk token rides the per-edge ARQ.
Before the reliable path was vectorized the gap here collapsed to
~1.15x; this file is the regression gate that keeps it from collapsing
again.

The CI ``sweep`` job runs this module and fails the build when the
fast path is not at least ``MIN_SPEEDUP`` times faster than the
per-message mode on the identical seeded run.  A wall-clock *ratio*
(both modes timed in the same process on the same machine) is stable
on noisy CI runners where absolute times are not; one pair's ratio
still moves enough to cross the gate on noise alone, so the gate times
``PAIRS`` alternated fast/slow pairs and reads their median ratio.
Every pair is written to ``BENCH_reliable.json`` (path overridable via
``$BENCH_RELIABLE_JSON``) and uploaded as a CI artifact so the perf
trajectory is tracked across PRs.

Equivalence is asserted before timing is trusted: estimates, fault
counters, and recovery stats must be byte-identical across the modes.
"""

import json
import os
import statistics
import time

import pytest

from repro.congest.faults import FaultPlan
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.graphs.generators import erdos_renyi_graph

N = 100
DROP_RATE = 0.10
#: Heavier than the paper schedule's (300, 27) at n = 100 on purpose:
#: both modes share a fixed floor (the stretched reliable setup and the
#: per-message exchange phase), so a longer counting phase makes the
#: measured ratio reflect the vectorized hot path, not the floor.
LENGTH, WALKS = 600, 54
#: The gate: the fast path must beat the per-message mode by this factor.
MIN_SPEEDUP = 2.0
#: Alternated fast/slow pairs per gate run; the gate reads their median.
PAIRS = 3


def _run(vectorized):
    graph = erdos_renyi_graph(
        N, min(0.5, 8.0 / N), seed=N, ensure_connected=True
    )
    params = WalkParameters(length=LENGTH, walks_per_source=WALKS)
    plan = FaultPlan(seed=7, drop_rate=DROP_RATE)
    start = time.perf_counter()
    result = estimate_rwbc_distributed(
        graph, params, seed=1, faults=plan, vectorized=vectorized
    )
    return result, time.perf_counter() - start


def time_pair():
    """One fast run, then one per-message run of the identical seeded
    contest; their equivalence is asserted before the timing counts."""
    fast, fast_seconds = _run(vectorized=True)
    slow, slow_seconds = _run(vectorized=False)
    assert fast.betweenness == slow.betweenness
    assert fast.metrics.rounds == slow.metrics.rounds
    assert fast.metrics.total_messages == slow.metrics.total_messages
    assert fast.metrics.faults == slow.metrics.faults
    assert fast.recovery == slow.recovery
    return {
        "n": N,
        "drop_rate": DROP_RATE,
        "length": LENGTH,
        "walks_per_source": WALKS,
        "rounds": fast.metrics.rounds,
        "dropped": fast.metrics.faults["dropped"],
        "retransmissions": fast.recovery["retransmissions"],
        "fast_seconds": fast_seconds,
        "slow_seconds": slow_seconds,
        "speedup": slow_seconds / fast_seconds,
    }


def compare_faulty_engines():
    pairs = [time_pair() for _ in range(PAIRS)]
    return {
        "pairs": pairs,
        "speedup": statistics.median(pair["speedup"] for pair in pairs),
        "min_speedup": MIN_SPEEDUP,
    }


def collect_rows():
    """E21 table for ``repro.experiments.generate`` (one row per timed
    pair)."""
    return compare_faulty_engines()["pairs"]


@pytest.mark.benchmark(group="reliable-engine")
def test_reliable_engine_speedup(benchmark):
    row = benchmark.pedantic(
        compare_faulty_engines, rounds=1, iterations=1
    )
    benchmark.extra_info.update(row)
    out_path = os.environ.get("BENCH_RELIABLE_JSON", "BENCH_reliable.json")
    with open(out_path, "w") as handle:
        json.dump(row, handle, indent=2, sort_keys=True)
    first = row["pairs"][0]
    print(
        f"reliable n={first['n']} drop={first['drop_rate']:.0%} "
        f"({first['dropped']} drops, {first['retransmissions']} "
        "retransmits):"
    )
    for pair in row["pairs"]:
        print(
            f"  fast={pair['fast_seconds']:.2f}s "
            f"slow={pair['slow_seconds']:.2f}s "
            f"speedup={pair['speedup']:.2f}x"
        )
    print(f"  median speedup={row['speedup']:.2f}x (gate {MIN_SPEEDUP:.1f}x)")
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"faulty-run fast path regressed: median {row['speedup']:.2f}x < "
        f"{MIN_SPEEDUP:.1f}x over the per-message mode (pairs: "
        + ", ".join(f"{pair['speedup']:.2f}x" for pair in row["pairs"])
        + ")"
    )

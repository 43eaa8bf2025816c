"""Declarative scenario matrix for the sweep harness.

A :class:`Scenario` is one named cell of the repo's coverage matrix:
graph source (synthetic family or bundled dataset) x size x protocol
variant (distributed walkers / weighted oracle / edge betweenness) x
executor (sync fast path, forced per-message mode, async synchronizer)
x fault profile.  Suites (:data:`SUITES`) are named scenario lists; the
``repro sweep`` CLI runs one suite, prints the rows, and appends a
keyed entry to the suite's committed ``BENCH_<suite>.json`` trajectory
(see :mod:`repro.obs.trajectory`).

Every scenario row carries the deterministic complexity counters the
paper's claims are phrased in (rounds / messages / bits, plus ARQ
retransmissions under faults) and the measured wall clock.  The
deterministic counters are seeded-reproducible across machines, which
is what lets CI diff a fresh run against the committed trajectory
exactly; wall clock is machine-specific and only ever compared as a
ratio band.

Fault profiles are *plain nested dicts* (:data:`FAULT_PROFILES`) so
they echo verbatim into sweep rows and trajectory entries -
:func:`make_fault_plan` turns one into the runtime
:class:`~repro.congest.faults.FaultPlan`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.experiments.sweep import sweep
from repro.graphs.graph import Graph, GraphError

__all__ = [
    "FAULT_PROFILES",
    "SUITES",
    "TWINS",
    "Scenario",
    "make_fault_plan",
    "run_suite",
    "scenario_row",
    "suite_scenarios",
    "values_checksum",
]

#: Named fault profiles, as plain dicts so they serialize into sweep
#: rows and trajectory entries unchanged.  ``crash`` windows are in
#: rounds; profiles must keep the launch round (``2 * setup_slack * n``)
#: outside every window, so the smoke profiles only crash early.
FAULT_PROFILES: dict[str, dict] = {
    "none": {},
    "lossy": {"drop": 0.1},
    "chaos": {
        "drop": 0.08,
        "dup": 0.04,
        "delay": 0.04,
        "max_delay": 3,
        "crash": {"node": 3, "start": 8, "span": 6},
    },
}


def make_fault_plan(profile: Mapping | None, seed: int = 0xD509):
    """Instantiate a :class:`~repro.congest.faults.FaultPlan` from a
    profile dict (``None``/empty profile -> ``None``, i.e. fault-free)."""
    if not profile:
        return None
    from repro.congest.faults import CrashWindow, FaultPlan

    known = {"drop", "dup", "delay", "max_delay", "crash", "seed"}
    unknown = set(profile) - known
    if unknown:
        raise GraphError(f"unknown fault profile keys {sorted(unknown)}")
    crashes = ()
    crash = profile.get("crash")
    if crash:
        crashes = (
            CrashWindow(
                node=crash["node"],
                start=crash["start"],
                end=crash["start"] + crash["span"],
            ),
        )
    return FaultPlan(
        seed=profile.get("seed", seed),
        drop_rate=profile.get("drop", 0.0),
        duplicate_rate=profile.get("dup", 0.0),
        delay_rate=profile.get("delay", 0.0),
        max_delay=profile.get("max_delay", 3),
        crashes=crashes,
    )


@dataclass(frozen=True)
class Scenario:
    """One named, fully reproducible cell of the coverage matrix."""

    name: str
    family: str | None = None
    dataset: str | None = None
    n: int = 30
    seed: int = 0
    length: int | None = None
    walks: int | None = None
    #: "distributed" runs the CONGEST protocol; "weighted" and "edges"
    #: run the matrix-layer oracles (the weighted / edge-betweenness
    #: variants), which have no round structure but a tracked wall clock.
    variant: str = "distributed"
    #: "sync" (scheduler auto-selects the fast path), "per-message"
    #: (vectorized=False), or "async" (alpha synchronizer).
    executor: str = "sync"
    faults: str = "none"
    max_delay: float = 6.0

    def __post_init__(self) -> None:
        if (self.family is None) == (self.dataset is None):
            raise GraphError(
                f"scenario {self.name!r} needs exactly one of family/dataset"
            )
        if self.variant not in ("distributed", "weighted", "edges"):
            raise GraphError(
                f"scenario {self.name!r}: unknown variant {self.variant!r}"
            )
        if self.executor not in ("sync", "per-message", "async"):
            raise GraphError(
                f"scenario {self.name!r}: unknown executor {self.executor!r}"
            )
        if self.faults not in FAULT_PROFILES:
            raise GraphError(
                f"scenario {self.name!r}: unknown fault profile "
                f"{self.faults!r}; known: {sorted(FAULT_PROFILES)}"
            )

    def grid_point(self) -> dict:
        """The scenario as a sweep grid point (plain kwargs dict).

        The fault profile is inlined as its nested dict so sweep rows
        and trajectory entries are self-describing without a profile
        registry at read time.
        """
        return {
            "scenario": self.name,
            "family": self.family,
            "dataset": self.dataset,
            "n": self.n,
            "seed": self.seed,
            "length": self.length,
            "walks": self.walks,
            "variant": self.variant,
            "executor": self.executor,
            "fault_profile": self.faults,
            "faults": dict(FAULT_PROFILES[self.faults]),
            "max_delay": self.max_delay,
        }


def _resolve_graph(family: str | None, dataset: str | None, n: int, seed: int):
    if family:
        from repro.experiments.workloads import make_workload

        return make_workload(family, n, seed=seed).graph
    from repro.graphs.datasets import load_dataset

    return load_dataset(dataset)


def values_checksum(values: Mapping, digits: int = 9) -> str:
    """Stable short hash of a centrality mapping (node or edge keyed).

    Values are rounded to ``digits`` decimals before hashing so the
    checksum survives JSON round-trips; it is recorded for drift
    triage, not gated on (last-bit float differences across BLAS builds
    may flip it even when nothing regressed).
    """
    parts = sorted(
        f"{key}:{round(float(value), digits):.{digits}f}"
        for key, value in values.items()
    )
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def _seeded_weights(graph: Graph, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        edge: float(rng.uniform(0.5, 3.0)) for edge in sorted(graph.edges())
    }


def scenario_row(
    scenario: str,
    family: str | None = None,
    dataset: str | None = None,
    n: int = 30,
    seed: int = 0,
    length: int | None = None,
    walks: int | None = None,
    variant: str = "distributed",
    executor: str = "sync",
    fault_profile: str = "none",
    faults: Mapping | None = None,
    max_delay: float = 6.0,
) -> dict:
    """Execute one scenario and return its flat metrics row.

    This is the sweep row function: it takes exactly the kwargs of
    :meth:`Scenario.grid_point`.  Deterministic counters (``rounds``,
    ``messages``, ``bits``, ``retransmissions``) are exact across
    machines for a fixed scenario; ``wall_s`` is not.
    """
    graph = _resolve_graph(family, dataset, n, seed)
    row: dict = {
        "scenario": scenario,
        "graph": family or dataset,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "variant": variant,
        "executor": executor,
        "fault_profile": fault_profile,
    }
    if variant != "distributed":
        start = time.perf_counter()
        if variant == "weighted":
            from repro.core.weighted import weighted_rwbc_exact

            values = weighted_rwbc_exact(graph, _seeded_weights(graph, seed))
        else:
            from repro.core.edge_betweenness import (
                edge_current_flow_betweenness,
            )

            values = edge_current_flow_betweenness(graph)
        row["wall_s"] = round(time.perf_counter() - start, 6)
        row["checksum"] = values_checksum(values)
        return row

    from repro.core.estimator import estimate_rwbc_distributed
    from repro.core.parameters import WalkParameters, default_parameters

    if length and walks:
        parameters = WalkParameters(length=length, walks_per_source=walks)
    else:
        parameters = default_parameters(graph.num_nodes)
    plan = make_fault_plan(faults if faults is not None
                           else FAULT_PROFILES[fault_profile])
    start = time.perf_counter()
    result = estimate_rwbc_distributed(
        graph,
        parameters,
        seed=seed,
        faults=plan,
        executor="async" if executor == "async" else "sync",
        vectorized=False if executor == "per-message" else None,
        max_delay=max_delay,
    )
    wall = time.perf_counter() - start
    summary = result.metrics.summary()
    recovery = result.recovery or {}
    row.update(
        {
            "length": parameters.length,
            "walks": parameters.walks_per_source,
            "fast_path": not result.fallback_reasons,
            "rounds": int(result.total_rounds),
            "messages": int(summary["total_messages"]),
            "bits": int(summary["total_bits"]),
            "retransmissions": int(recovery.get("retransmissions", 0)),
            "wall_s": round(wall, 6),
            "checksum": values_checksum(result.betweenness),
        }
    )
    return row


def _full_suite() -> tuple[Scenario, ...]:
    """The broad matrix: every family regime x executor x fault profile
    that finishes in minutes, plus the bundled real-world datasets."""
    scenarios: list[Scenario] = []
    for fam in ("er", "ba", "ws", "grid", "tree"):
        for n in (60, 120):
            scenarios.append(
                Scenario(f"{fam}{n}-sync", family=fam, n=n, seed=n)
            )
    scenarios += [
        Scenario("er60-permsg", family="er", n=60, seed=60,
                 executor="per-message"),
        # The scale tier: a scale smoke at reduced parameters
        # (l=10, K=1), not the paper schedule.
        Scenario("tree10k", family="tree", n=10000, seed=1,
                 length=10, walks=1),
        Scenario("er60-lossy", family="er", n=60, seed=60,
                 length=180, walks=24, faults="lossy"),
        Scenario("er60-chaos", family="er", n=60, seed=60,
                 length=180, walks=24, faults="chaos"),
        Scenario("cycle12-async", family="cycle", n=12, seed=0,
                 length=36, walks=8, executor="async"),
        Scenario("cycle12-async-lossy", family="cycle", n=12, seed=0,
                 length=36, walks=8, executor="async", faults="lossy"),
        Scenario("karate-sync", dataset="karate", n=34),
        Scenario("lesmis-sync", dataset="lesmis", n=77),
        Scenario("er60-weighted", family="er", n=60, seed=60,
                 variant="weighted"),
        Scenario("er60-edges", family="er", n=60, seed=60,
                 variant="edges"),
    ]
    return tuple(scenarios)


#: Named suites.  ``smoke`` is the CI tier: one scenario per regime
#: (fast path, forced per-message mode, reliable mode under drops,
#: chaos with a crash window, the async synchronizer faulty and
#: fault-free, a real dataset, and the weighted / edge oracles), each
#: sized to finish in seconds.  ``full`` is the broad matrix.
SUITES: dict[str, tuple[Scenario, ...]] = {
    "smoke": (
        Scenario("er30-sync", family="er", n=30, seed=0,
                 length=90, walks=12),
        Scenario("cycle16-permsg", family="cycle", n=16, seed=0,
                 length=48, walks=8, executor="per-message"),
        Scenario("cycle10-lossy", family="cycle", n=10, seed=0,
                 length=30, walks=6, faults="lossy"),
        Scenario("cycle10-chaos", family="cycle", n=10, seed=0,
                 length=30, walks=6, faults="chaos"),
        Scenario("cycle8-async", family="cycle", n=8, seed=0,
                 length=20, walks=6, executor="async"),
        Scenario("cycle8-async-lossy", family="cycle", n=8, seed=0,
                 length=20, walks=6, executor="async", faults="lossy"),
        Scenario("florentine-sync", dataset="florentine", n=15,
                 length=45, walks=8),
        Scenario("er30-weighted", family="er", n=30, seed=0,
                 variant="weighted"),
        Scenario("er30-edges", family="er", n=30, seed=0,
                 variant="edges"),
    ),
    "full": _full_suite(),
}


#: Rows of each suite that must agree: the same instance on two
#: executors that promise identical results, as ``(first, second,
#: fields)``.  ``repro sweep`` reports every differing field as a
#: regression, so ``--check`` fails on it.  The forced per-message mode
#: must match the fast path on every counter; the fault-tolerant async
#: synchronizer must reach the fault-free run's values, though it pays
#: retransmissions for them.
TWINS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "smoke": (
        ("cycle8-async", "cycle8-async-lossy", ("checksum",)),
    ),
    "full": (
        ("er60-sync", "er60-permsg",
         ("rounds", "messages", "bits", "checksum")),
        ("cycle12-async", "cycle12-async-lossy", ("checksum",)),
    ),
}


def suite_scenarios(
    suite: str, only: Sequence[str] | None = None
) -> tuple[Scenario, ...]:
    """Resolve a suite name (optionally filtered by name substrings)."""
    try:
        scenarios = SUITES[suite]
    except KeyError:
        raise GraphError(
            f"unknown suite {suite!r}; known: {sorted(SUITES)}"
        ) from None
    if only:
        scenarios = tuple(
            scenario
            for scenario in scenarios
            if any(needle in scenario.name for needle in only)
        )
        if not scenarios:
            raise GraphError(
                f"no scenario in suite {suite!r} matches {list(only)}"
            )
    return scenarios


def run_suite(
    scenarios: Iterable[Scenario],
    progress: Callable[[int, int, dict, dict], None] | None = None,
) -> list[dict]:
    """Run scenarios through :func:`repro.experiments.sweep.sweep`.

    Grid points are the scenarios' kwargs dicts, so every configuration
    field - including the nested fault-profile dict - is echoed into
    the returned rows.
    """
    grid = [scenario.grid_point() for scenario in scenarios]
    names = [point["scenario"] for point in grid]
    if len(set(names)) != len(names):
        raise GraphError(f"duplicate scenario names in suite: {names}")
    return sweep(scenario_row, grid, progress=progress)

"""Workloads, correctness checks and metric extraction for the paper-schedule
benchmark (``perfbench/run.py`` is the command-line entry point).

Every workload runs the distributed RWBC protocol under the paper's own
schedule (``default_parameters``: ``l = 3n``, ``K = 4 log2 n``) on a set of
seeded graph instances, one estimate at a time from a single process (a
closed loop with one caller), on the default in-process executor.

Why a set of instances rather than one graph: the protocol elects a random
absorbing target, and the cost of a run scales with the target's hitting
time, so the message count of a single (graph, seed) pair varies by 15-30%
from seed to seed.  Averaging over a fixed number of instances per run keeps
the run-to-run spread of every end-to-end metric well inside its bound
while each instance stays exact and reproducible.

Only public functions of the program are called; the program receives the
generated graphs, parameters and fault plans and nothing else.
"""

from __future__ import annotations

import math
import random
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

from repro.analysis.error import compare_centrality
from repro.analysis.ranking import kendall_tau
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exact import rwbc_exact
from repro.core.parameters import default_parameters
from repro.experiments.scenarios import (
    FAULT_PROFILES,
    make_fault_plan,
    values_checksum,
)
from repro.experiments.workloads import make_workload
from repro.obs import Telemetry
from repro.obs.export import build_records


@dataclass(frozen=True)
class Spec:
    """One named workload: a graph family at a fixed size, run on
    ``instances`` seeded graphs per benchmark run."""

    family: str
    n: int
    instances: int
    faults: str = "none"
    #: Keep the full message log; this forces the per-message loop.
    record_messages: bool = False
    #: Per-instance accuracy gates against ``rwbc_exact``, set from the
    #: spread measured over many seeds with a wide margin: they catch a
    #: broken estimator, not sampling noise.
    tau_floor: float = 0.5
    err_ceiling: float = 1.5

    @property
    def fast_path(self) -> bool:
        return not self.record_messages


#: Sizes keep one pass over the instances under ~10 s on a 2-CPU machine;
#: instance counts keep the seed-to-seed spread of every count below ~8%.
#: Accuracy gates sit well outside the per-instance extremes measured over
#: ten seeds (160-240 instances): tree tau >= 0.53, err <= 1.54; er tau >=
#: 0.77, err <= 2.59; lossy-er tau >= 0.66, err <= 1.30; cut-trace tau >=
#: 0.69, err <= 1.36.  See LAYERS.md for the layer shares of each workload.
WORKLOADS: dict[str, Spec] = {
    "paper-tree": Spec(family="tree", n=40, instances=16, tau_floor=0.3, err_ceiling=3.0),
    "paper-er": Spec(family="er", n=64, instances=24, tau_floor=0.5, err_ceiling=4.0),
    "lossy-er": Spec(
        family="er", n=32, instances=20, faults="lossy", tau_floor=0.4, err_ceiling=2.5
    ),
    "cut-trace": Spec(
        family="er", n=32, instances=20, record_messages=True,
        tau_floor=0.4, err_ceiling=2.5,
    ),
}

#: name -> unit, printed with ``--trace 0``.
END_TO_END: dict[str, str] = {
    "run_s": "s",
    "setup_s": "s",
    "msgs_per_s": "msg/s",
    "rounds": "count",
    "messages": "count",
    "bits": "count",
    "kendall_tau": "ratio",
    "mean_rel_err": "ratio",
    "peak_rss_mb": "MiB",
}

_PHASES = ("setup", "counting", "exchange", "drain")

#: name -> unit, printed with ``--trace 1``.  Every value except the
#: benchmark's own spans (``import_s``, ``graphs.build_s``,
#: ``oracle.exact_s``, ``bench.checks_s``) and ``obs.overhead_ratio`` is a
#: mean per estimate over the run's instances.
PER_LAYER: dict[str, str] = {
    "import_s": "s",
    "graphs.build_s": "s",
    "oracle.exact_s": "s",
    "bench.checks_s": "s",
    "estimator.traced_run_s": "s",
    "estimator.self_s": "s",
    "scheduler.deliver_s": "s",
    "scheduler.nodes_s": "s",
    "scheduler.drivers_self_s": "s",
    "scheduler.rounds_per_s": "1/s",
    "engine.arrivals_s": "s",
    "engine.emit_s": "s",
    "engine.post_round_s": "s",
    "engine.dedup_s": "s",
    "engine.arq_flush_s": "s",
    "engine.walk_sends": "count",
    "engine.count_tensor_bytes": "bytes-computed",
    "faults.filter_s": "s",
    "faults.dropped": "count",
    "retransmissions": "count",
    "reliable.acks_sent": "count",
    "reliable.duplicates_rejected": "count",
    "reliable.useful_ratio": "ratio",
    "reliable.recovery_latency_mean": "rounds",
    "reliable.arq_window_max": "count",
    **{f"phase.{phase}_rounds": "count" for phase in _PHASES},
    **{f"phase.{phase}_s": "s" for phase in _PHASES},
    "transport.max_msgs_per_edge_round": "count",
    "transport.max_bits_per_edge_round": "count",
    "transport.max_message_bits": "bits",
    "obs.overhead_ratio": "ratio",
    "fail_rate": "ratio",
}

#: Span path (as recorded by ``repro.obs``) -> per-layer metric.
_SPAN_METRICS = {
    "deliver": "scheduler.deliver_s",
    "nodes": "scheduler.nodes_s",
    "drivers/engine.arrivals": "engine.arrivals_s",
    "drivers/engine.emit": "engine.emit_s",
    "drivers/engine.post_round": "engine.post_round_s",
    "drivers/engine.dedup": "engine.dedup_s",
    "drivers/engine.arq_flush": "engine.arq_flush_s",
    "faults.filter": "faults.filter_s",
}


@dataclass(frozen=True)
class Instance:
    """One generated input: a graph with its parameters, fault plan and
    protocol seed, all derived from the benchmark seed."""

    index: int
    graph: object
    parameters: object
    plan: object
    graph_seed: int
    protocol_seed: int
    fault_seed: int


def instance_seeds(seed: int, index: int) -> tuple[int, int, int]:
    """``(graph, protocol, fault-plan)`` seeds of instance ``index``."""
    stream = random.Random(f"perfbench:{seed}:{index}")
    return tuple(stream.getrandbits(32) for _ in range(3))


def build_instances(spec: Spec, seed: int) -> list[Instance]:
    instances = []
    for index in range(spec.instances):
        graph_seed, protocol_seed, fault_seed = instance_seeds(seed, index)
        graph = make_workload(spec.family, spec.n, seed=graph_seed).graph
        instances.append(
            Instance(
                index=index,
                graph=graph,
                parameters=default_parameters(graph.num_nodes),
                plan=make_fault_plan(FAULT_PROFILES[spec.faults], seed=fault_seed),
                graph_seed=graph_seed,
                protocol_seed=protocol_seed,
                fault_seed=fault_seed,
            )
        )
    return instances


def estimate(spec: Spec, instance: Instance, **overrides):
    """One call into the program with the workload's settings."""
    kwargs = {"seed": instance.protocol_seed, "faults": instance.plan}
    if spec.record_messages:
        kwargs["record_messages"] = True
    kwargs.update(overrides)
    return estimate_rwbc_distributed(instance.graph, instance.parameters, **kwargs)


def counters(result) -> dict:
    """The exact, seed-determined outputs of one run."""
    summary = result.metrics.summary()
    return {
        "rounds": int(result.total_rounds),
        "messages": int(summary["total_messages"]),
        "bits": int(summary["total_bits"]),
        "retransmissions": int((result.recovery or {}).get("retransmissions", 0)),
        "checksum": values_checksum(result.betweenness),
    }


# ----------------------------------------------------------------------
# Correctness checks: each returns a list of failure messages (empty = ok).
# ----------------------------------------------------------------------
def check_values(result, graph) -> list[str]:
    """Every node gets one finite, non-negative value."""
    values = result.betweenness
    if set(values) != set(graph.nodes()):
        return [f"values cover {len(values)} keys, graph has {graph.num_nodes} nodes"]
    bad = [node for node, value in values.items()
           if not (math.isfinite(value) and value >= 0.0)]
    return [f"non-finite or negative value at nodes {bad[:5]}"] if bad else []


def check_fast_path(spec: Spec, result) -> list[str]:
    """A fast-path workload must not silently fall back to the
    per-message loop; that would measure a different program."""
    if spec.fast_path and result.fallback_reasons:
        return [f"fell back to per-message loop: {list(result.fallback_reasons)}"]
    return []


def check_accuracy(spec: Spec, tau: float, err: float) -> list[str]:
    failures = []
    if not tau >= spec.tau_floor:
        failures.append(f"kendall_tau {tau:.4f} below floor {spec.tau_floor}")
    if not err <= spec.err_ceiling:
        failures.append(f"mean_rel_err {err:.4f} above ceiling {spec.err_ceiling}")
    return failures


def check_faults_applied(spec: Spec, result) -> list[str]:
    """On a faulty workload the plan must actually have dropped messages
    and the ARQ layer must actually have retransmitted."""
    if spec.faults == "none":
        return []
    failures = []
    if not result.metrics.faults.get("dropped", 0) > 0:
        failures.append("fault plan dropped no message")
    if not (result.recovery or {}).get("retransmissions", 0) > 0:
        failures.append("no retransmission under a lossy plan")
    return failures


def check_message_log(result) -> list[str]:
    logged = sum(len(round_messages) for round_messages in result.message_log or ())
    total = result.metrics.total_messages
    if logged != total:
        return [f"message log holds {logged} messages, metrics count {total}"]
    return []


def check_same(expected: dict, actual: dict, what: str) -> list[str]:
    """Counters and values checksum of two runs that must agree."""
    diff = sorted(key for key in expected if expected[key] != actual.get(key))
    if diff:
        pairs = ", ".join(f"{key} {expected[key]} != {actual.get(key)}" for key in diff)
        return [f"{what}: {pairs}"]
    return []


def accuracy(result, exact: dict) -> tuple[float, float]:
    """``(kendall_tau, mean_rel_err)`` of an estimate against the oracle."""
    return (
        kendall_tau(exact, result.betweenness),
        compare_centrality(result.betweenness, exact).mean_relative,
    )


def check_result(spec: Spec, instance: Instance, result, exact: dict) -> tuple[list[str], float, float]:
    """All per-result checks of one estimate; returns the failures and the
    accuracy pair."""
    failures = check_values(result, instance.graph)
    tau = err = math.nan
    if not failures:
        tau, err = accuracy(result, exact)
        failures += check_accuracy(spec, tau, err)
    failures += check_fast_path(spec, result)
    failures += check_faults_applied(spec, result)
    if spec.record_messages:
        failures += check_message_log(result)
    return failures, tau, err


def check_twin(result, twin) -> list[str]:
    """Cross-loop check: a run on the per-message loop must match the
    fast-path run on the same graph and seed exactly."""
    if twin.fallback_reasons:
        return [f"fast-path twin fell back: {list(twin.fallback_reasons)}"]
    return check_same(counters(twin), counters(result), "fast-path twin")


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed estimate calls, with the failures' details."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []

    @property
    def failed(self) -> int:
        return len({(f["instance"], f["call"]) for f in self.failures})

    def call(self, spec: Spec, instance: Instance, **overrides):
        """One timed estimate; returns ``(result, wall)``, or ``(None,
        wall)`` when the call raised.  A raising call is a failed run: it
        is recorded with its class name and the partial metrics the error
        carries (``RoundLimitExceeded`` and ``UnrecoverableLossError``
        both do), and the benchmark goes on."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = estimate(spec, instance, **overrides)
        except Exception as exc:  # the harness must survive a failed run
            wall = perf_counter() - start
            partial = getattr(exc, "metrics", None)
            self.failures.append(
                {
                    "instance": instance.index,
                    "call": self.attempted,
                    "error": type(exc).__name__,
                    "message": str(exc)[:200],
                    "partial_metrics": partial.summary() if partial is not None else None,
                    "traceback": traceback.format_exc(limit=3),
                }
            )
            return None, wall
        return result, perf_counter() - start

    def fail(self, instance: Instance, messages: list[str]) -> None:
        for message in messages:
            self.failures.append(
                {"instance": instance.index, "call": self.attempted, "check": message}
            )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def oracle(instances: list[Instance]) -> tuple[list[dict], float]:
    start = perf_counter()
    exact = [rwbc_exact(instance.graph) for instance in instances]
    return exact, perf_counter() - start


def verify_first(spec: Spec, tally: Tally, instance: Instance, result, exact: dict):
    """Full checks on an instance's first result; returns its reference
    counters (or ``None`` on failure) and its accuracy pair."""
    failures, tau, err = check_result(spec, instance, result, exact)
    if spec.record_messages:
        # The twin runs outside the caller's timed window.
        twin, _ = tally.call(spec, instance, record_messages=False)
        if twin is not None:
            failures += check_twin(result, twin)
    tally.fail(instance, failures)
    return (None if failures else counters(result)), tau, err


def _timed_passes(seconds: float):
    """Pass numbers 0, 1, ... until the next pass would end after
    ``seconds`` (the first pass always runs)."""
    deadline = perf_counter() + seconds
    number = 0
    while True:
        start = perf_counter()
        yield number
        number += 1
        now = perf_counter()
        if now + (now - start) > deadline:
            return


def _warm_up(spec: Spec, tally: Tally, instances: list[Instance]) -> None:
    """One untimed call, so lazy imports and first-use allocations inside
    the program do not land on the first timed call."""
    tally.call(spec, instances[0])


def measure(spec: Spec, instances: list[Instance], seconds: float) -> dict:
    """The timed closed loop (tracing off): passes over all instances for
    ``seconds``.  ``run_s`` is the mean over instances of each instance's
    median wall time.  Returns the end-to-end metrics except ``setup_s``
    and ``peak_rss_mb``."""
    tally = Tally()
    exact, _ = oracle(instances)
    _warm_up(spec, tally, instances)
    walls: list[list[float]] = [[] for _ in instances]
    reference: list[dict | None] = [None] * len(instances)
    accuracy_pairs: list[tuple[float, float]] = []
    passes = 0
    for passes, _ in enumerate(_timed_passes(seconds), start=1):
        for instance in instances:
            result, wall = tally.call(spec, instance)
            if result is None:
                continue
            walls[instance.index].append(wall)
            if passes == 1:
                ref, tau, err = verify_first(spec, tally, instance, result, exact[instance.index])
                reference[instance.index] = ref
                if ref is not None:
                    accuracy_pairs.append((tau, err))
            elif reference[instance.index] is not None:
                tally.fail(instance, check_same(
                    reference[instance.index], counters(result), "repeat run"))
    ok = [ref for ref in reference if ref is not None]
    medians = [statistics.median(w) for w in walls if w]
    return {
        "tally": tally,
        "passes": passes,
        "metrics": {
            "run_s": _mean(medians),
            "msgs_per_s": sum(ref["messages"] for ref in ok) / sum(medians) if ok else math.nan,
            "rounds": _mean(ref["rounds"] for ref in ok),
            "messages": _mean(ref["messages"] for ref in ok),
            "bits": _mean(ref["bits"] for ref in ok),
            "kendall_tau": _mean(tau for tau, _ in accuracy_pairs),
            "mean_rel_err": _mean(err for _, err in accuracy_pairs),
        },
    }


#: Per-layer metrics aggregated over instances by their maximum, not mean.
_MAX_METRICS = {
    "reliable.arq_window_max",
    "transport.max_msgs_per_edge_round",
    "transport.max_bits_per_edge_round",
    "transport.max_message_bits",
}


def layer_metrics(result, telemetry: Telemetry, traced_wall: float) -> dict:
    """Per-layer numbers of one traced estimate."""
    spans = {path: stats["wall_s"] for path, stats in telemetry.profiler.summary().items()}
    drivers_children = sum(
        wall for path, wall in spans.items()
        if path.startswith("drivers/") and path.count("/") == 1
    )
    summary = result.metrics.summary()
    recovery = result.recovery or {}
    totals = telemetry.instruments.totals()
    histograms = telemetry.instruments.histograms
    walk_sends = totals.get("walk_sends", 0)
    retransmissions = recovery.get("retransmissions", 0)
    n = len(result.betweenness)
    values = {
        "estimator.traced_run_s": traced_wall,
        "estimator.self_s": traced_wall - sum(
            wall for path, wall in spans.items() if "/" not in path
        ),
        "scheduler.drivers_self_s": spans.get("drivers", 0.0) - drivers_children,
        "engine.walk_sends": walk_sends,
        # Computed, not measured: the n x n float64 count tensor, twice.
        "engine.count_tensor_bytes": 2 * n * n * 8,
        "faults.dropped": result.metrics.faults.get("dropped", 0),
        "retransmissions": retransmissions,
        "reliable.acks_sent": recovery.get("acks_sent", 0),
        "reliable.duplicates_rejected": recovery.get("duplicates_rejected", 0),
        "reliable.useful_ratio": (
            walk_sends / (walk_sends + retransmissions) if walk_sends else 0.0
        ),
        "reliable.recovery_latency_mean": (
            histograms["recovery_latency_rounds"].mean
            if "recovery_latency_rounds" in histograms else 0.0
        ),
        "reliable.arq_window_max": (
            histograms["arq_window"].max if "arq_window" in histograms else 0
        ),
        "transport.max_msgs_per_edge_round": summary["max_messages_per_edge_round"],
        "transport.max_bits_per_edge_round": summary["max_bits_per_edge_round"],
        "transport.max_message_bits": summary["max_message_bits"],
    }
    for path, name in _SPAN_METRICS.items():
        values[name] = spans.get(path, 0.0)
    for phase in _PHASES:
        values[f"phase.{phase}_rounds"] = 0
        values[f"phase.{phase}_s"] = 0.0
    for record in build_records(result):
        if record["record"] == "phase":
            values[f"phase.{record['name']}_rounds"] = record["rounds"]
            values[f"phase.{record['name']}_s"] = record["wall_s"]
    return values


def measure_layers(spec: Spec, instances: list[Instance], seconds: float) -> dict:
    """The traced run: each instance is run untraced and traced with the
    same seed, in alternating order from pass to pass, for ``seconds``.
    The traced run must reproduce the untraced counters and values
    exactly.  Returns the per-layer metrics except the set-up spans and
    ``fail_rate``."""
    tally = Tally()
    exact, oracle_s = oracle(instances)
    _warm_up(spec, tally, instances)
    per_call: list[dict] = []
    rounds = 0
    traced_total = 0.0
    ratios = []
    checks_s = 0.0
    passes = 0
    for passes, _ in enumerate(_timed_passes(seconds), start=1):
        plain_wall = traced_wall = 0.0
        order = (False, True) if passes % 2 else (True, False)
        for instance in instances:
            runs = {}
            for traced in order:
                telemetry = Telemetry() if traced else None
                result, wall = tally.call(spec, instance, telemetry=telemetry)
                runs[traced] = (result, wall, telemetry)
            (plain, wall0, _), (traced, wall1, telemetry) = runs[False], runs[True]
            if plain is None or traced is None:
                continue
            plain_wall += wall0
            traced_wall += wall1
            check_start = perf_counter()
            if passes == 1:
                verify_first(spec, tally, instance, plain, exact[instance.index])
            tally.fail(instance, check_same(
                counters(plain), counters(traced), "traced run vs untraced run"))
            checks_s += perf_counter() - check_start
            per_call.append(layer_metrics(traced, telemetry, wall1))
            rounds += traced.total_rounds
            traced_total += wall1
        if plain_wall > 0:
            ratios.append(traced_wall / plain_wall)
    metrics = {}
    for name in per_call[0] if per_call else ():
        column = [values[name] for values in per_call]
        metrics[name] = max(column) if name in _MAX_METRICS else _mean(column)
    metrics.update(
        {
            "oracle.exact_s": oracle_s,
            "bench.checks_s": checks_s,
            "scheduler.rounds_per_s": rounds / traced_total if traced_total else math.nan,
            "obs.overhead_ratio": statistics.median(ratios) if ratios else math.nan,
        }
    )
    return {"tally": tally, "passes": passes, "metrics": metrics}

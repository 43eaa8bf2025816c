"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Small stand-ins for the real workloads, so each test runs in well under
#: a second.
FAST = bench.Spec(family="er", n=12, instances=2)
LOSSY = bench.Spec(family="er", n=12, instances=1, faults="lossy")
RECORD = bench.Spec(family="er", n=12, instances=1, record_messages=True)


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fast_run():
    instance = bench.build_instances(FAST, seed=3)[0]
    return instance, bench.estimate(FAST, instance)


def _with_value(result, value: float):
    values = dict(result.betweenness)
    values[next(iter(values))] = value
    return dataclasses.replace(result, betweenness=values)


# ----------------------------------------------------------------------
# Metric names and the benchmark definition
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    config = _config()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in config[key]]
    names += [w["name"] for w in config["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert not set(bench.END_TO_END) & set(bench.PER_LAYER)


def test_definition_matches_the_code():
    config = _config()
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])


# ----------------------------------------------------------------------
# Each check trips on a corrupted result
# ----------------------------------------------------------------------
def test_checks_pass_on_a_good_result(fast_run):
    instance, result = fast_run
    exact = bench.rwbc_exact(instance.graph)
    failures, tau, err = bench.check_result(FAST, instance, result, exact)
    assert failures == []
    assert 0.0 < tau <= 1.0 and err > 0.0


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_values_check_trips_on_a_bad_value(fast_run, value):
    instance, result = fast_run
    assert bench.check_values(_with_value(result, value), instance.graph)


def test_values_check_trips_on_a_missing_node(fast_run):
    instance, result = fast_run
    values = dict(result.betweenness)
    values.pop(next(iter(values)))
    broken = dataclasses.replace(result, betweenness=values)
    assert bench.check_values(broken, instance.graph)


def test_perturbed_value_breaks_the_checksum(fast_run):
    _, result = fast_run
    value = next(iter(result.betweenness.values()))
    perturbed = _with_value(result, value + 1e-6)
    assert bench.check_same(bench.counters(result), bench.counters(perturbed), "repeat run")
    assert not bench.check_same(bench.counters(result), bench.counters(result), "repeat run")


def test_fast_path_check_trips_on_forced_per_message_loop(fast_run):
    instance, _ = fast_run
    slow = bench.estimate(FAST, instance, vectorized=False)
    assert bench.check_fast_path(FAST, slow)
    assert not bench.check_fast_path(RECORD, slow)


def test_accuracy_check_trips_outside_its_gates():
    assert not bench.check_accuracy(FAST, 0.9, 0.5)
    assert bench.check_accuracy(FAST, FAST.tau_floor - 0.01, 0.5)
    assert bench.check_accuracy(FAST, 0.9, FAST.err_ceiling + 0.01)
    assert bench.check_accuracy(FAST, math.nan, 0.5)


def test_fault_check_trips_when_the_plan_did_nothing(fast_run):
    _, fault_free = fast_run
    assert bench.check_faults_applied(LOSSY, fault_free)
    instance = bench.build_instances(LOSSY, seed=3)[0]
    assert not bench.check_faults_applied(LOSSY, bench.estimate(LOSSY, instance))


def test_twin_and_log_checks_on_the_recording_workload():
    instance = bench.build_instances(RECORD, seed=3)[0]
    result = bench.estimate(RECORD, instance)
    assert result.fallback_reasons
    twin = bench.estimate(RECORD, instance, record_messages=False)
    assert not bench.check_twin(result, twin)
    assert not bench.check_message_log(result)

    other = bench.estimate(RECORD, instance, record_messages=False,
                           seed=instance.protocol_seed + 1)
    assert bench.check_twin(result, other)
    assert bench.check_twin(result, _with_value(twin, 123.0))
    truncated = dataclasses.replace(result, message_log=result.message_log[:-1])
    assert bench.check_message_log(truncated)


def test_a_raising_run_is_a_recorded_failure():
    tally = bench.Tally()
    instance = bench.build_instances(FAST, seed=3)[0]
    result, _ = tally.call(FAST, instance, max_rounds=3)
    assert result is None
    assert (tally.attempted, tally.failed) == (1, 1)
    failure = tally.failures[0]
    assert failure["error"] == "RoundLimitExceeded"
    assert failure["partial_metrics"]["rounds"] == 3


# ----------------------------------------------------------------------
# The seed reaches the graph, the protocol and the fault plan
# ----------------------------------------------------------------------
def test_two_seeds_give_different_inputs():
    first = bench.build_instances(LOSSY, seed=1)[0]
    second = bench.build_instances(LOSSY, seed=2)[0]
    assert sorted(first.graph.edges()) != sorted(second.graph.edges())
    assert first.protocol_seed != second.protocol_seed
    assert first.plan.seed == first.fault_seed != second.fault_seed == second.plan.seed
    assert len(set(bench.instance_seeds(1, 0))) == 3
    assert bench.instance_seeds(1, 0) != bench.instance_seeds(1, 1)


def test_protocol_seed_reaches_the_program(fast_run):
    instance, result = fast_run
    reseeded = dataclasses.replace(instance, protocol_seed=instance.protocol_seed + 1)
    assert bench.counters(bench.estimate(FAST, reseeded)) != bench.counters(result)


def test_one_seed_gives_identical_counters_twice():
    runs = []
    for _ in range(2):
        instance = bench.build_instances(LOSSY, seed=5)[0]
        runs.append(bench.counters(bench.estimate(LOSSY, instance)))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def test_measure_reports_every_timed_end_to_end_metric():
    run = bench.measure(FAST, bench.build_instances(FAST, seed=0), seconds=0)
    assert run["tally"].failures == []
    assert run["passes"] == 1
    assert set(run["metrics"]) == set(bench.END_TO_END) - {"setup_s", "peak_rss_mb"}
    assert all(value > 0 for value in run["metrics"].values())


def test_measure_layers_reports_every_program_layer():
    run = bench.measure_layers(LOSSY, bench.build_instances(LOSSY, seed=0), seconds=0)
    assert run["tally"].failures == []
    metrics = run["metrics"]
    assert set(metrics) == set(bench.PER_LAYER) - {"import_s", "graphs.build_s", "fail_rate"}
    assert metrics["faults.dropped"] > 0 and metrics["retransmissions"] > 0
    assert 0.0 < metrics["reliable.useful_ratio"] < 1.0


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-er",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout

"""Tests of the benchmark itself: span arithmetic, names, checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The workloads are shrunk here (module constants patched) so each test
simulates at most a few seconds of host time.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run as bench, spans, workloads, yardstick
from repro.obs.checker import InvariantChecker, Violation

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


# ----------------------------------------------------------------------
# Span arithmetic

def test_self_time_of_nested_spans():
    clock = FakeClock(0, 1, 2, 5, 7, 8, 9, 10)
    recorder = spans.SpanRecorder(clock)
    recorder.enter("root")  # 0
    recorder.enter("a")  # 1
    recorder.enter("b")  # 2
    assert recorder.exit() == 3  # b: 2..5
    assert recorder.exit() == 6  # a: 1..7, child 3
    recorder.enter("b")  # 8
    recorder.exit()  # b: 8..9
    assert recorder.exit() == 10  # root: 0..10, children 6 + 1
    assert recorder.self_time == {"root": 3, "a": 3, "b": 4}


def test_wrapped_spans_sum_to_root():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = recorder.wrap("leaf", leaf)

    def middle(depth):
        total = wrapped_leaf()
        if depth:
            total += wrapped_middle(depth - 1)
        return total

    wrapped_middle = recorder.wrap("middle", middle)
    recorder.enter("root")
    assert wrapped_middle(3) == 4
    root = recorder.exit()
    assert sum(recorder.self_time.values()) == root
    # Each of the four leaf spans reads the clock twice in a row: one tick.
    assert recorder.self_time["leaf"] == 4


class Base:
    def hop(self):
        return "base"


class Child(Base):
    def hop(self):
        return "child+" + super().hop()


class Inherits(Base):
    pass


def test_install_wraps_overrides_and_restores():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(lambda: float(next(ticks)))
    originals = (Base.__dict__["hop"], Child.__dict__["hop"])
    restore = spans.install(recorder, [("layer", f"{__name__}:Base", ("hop",))])
    try:
        assert Child().hop() == "child+base"  # child span 0..3 holding base 1..2
        assert Inherits().hop() == "base"  # 4..5
        assert recorder.self_time["layer"] == 4
        assert "hop" not in Inherits.__dict__
    finally:
        restore()
    assert (Base.__dict__["hop"], Child.__dict__["hop"]) == originals


def test_every_boundary_resolves():
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder, layers.BOUNDARIES)
    restore()
    assert set(layers.SELF_TIME_METRIC) == {layer for layer, _, _ in layers.BOUNDARIES}


# ----------------------------------------------------------------------
# Names

def test_metric_and_workload_names():
    config = benchmark_json()
    names = (
        [m["name"] for m in config["end_to_end"]]
        + [m["name"] for m in config["per_layer"]]
        + [w["name"] for w in config["workloads"]]
    )
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert len(names) == len(set(names))
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_benchmark_json_matches_the_runner():
    config = benchmark_json()
    per_layer = [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]]
    assert per_layer == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    reps = [bench.Rep(2.0, 0.5, [workloads.Run("a", "d", 10.0)], {}, set(), 0.5, 5000)] * 2
    produced = bench.end_to_end(reps)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == [
        (name, unit) for name, (_, unit) in produced.items()
    ]


# ----------------------------------------------------------------------
# Reference seconds

def test_reference_seconds_divide_out_the_host_speed():
    # 2 s of workload while 1000 calls took 0.2 s, twice the nominal time.
    rep = bench.Rep(3.0, 0.8, [], {}, set(), 0.2, 1000)
    assert rep.wall_s == pytest.approx(2.0)
    assert rep.wall_ref_s == pytest.approx(2.0 * yardstick.NOMINAL_CALL_S * 1000 / 0.2)
    assert rep.wall_ref_s == pytest.approx(1.0)
    assert rep.setup_ref_s == pytest.approx(0.4)


def test_every_yardstick_call_does_the_same_work():
    assert len({yardstick._work() for _ in range(5)}) == 1
    assert yardstick.call() > 0


def test_yardstick_slices_leave_the_runs_unchanged(tiny_chaos, tmp_path):
    plain = workloads.chaos_control(5, tmp_path)[0]
    clock = workloads.HostClock()
    clock.install()
    try:
        sliced = workloads.chaos_control(5, tmp_path)[0]
    finally:
        clock.uninstall()
    assert [r.digest for r in sliced] == [r.digest for r in plain]
    # 60 s warm-up + 180 s horizon in 5 s steps, for each cell.
    assert clock.yardstick_calls == len(sliced) * 48
    assert clock.yardstick_s > 0


# ----------------------------------------------------------------------
# Checks that raise fail_rate

@pytest.fixture
def tiny_chaos(monkeypatch):
    monkeypatch.setattr(workloads, "CHAOS_PLANS", ("partition",))
    monkeypatch.setattr(workloads, "CHAOS_SPECS", ("rpcc-sc",))


def _rep(outcome):
    runs, counts = outcome
    return bench.Rep(1.0, 0.1, runs, counts, set())


def test_clean_runs_pass(tiny_chaos, tmp_path):
    rep = _rep(workloads.chaos_control(5, tmp_path))
    assert len(rep.runs) == 8  # 4 cell seeds x 2 policies
    assert bench.score("chaos-control", 5, [rep, rep], {}) == (16, 0, [])


def test_forced_digest_mismatch_fails_every_run(tiny_chaos, tmp_path):
    rep = _rep(workloads.chaos_control(5, tmp_path))
    reference = {"chaos-control": {
        "seed": 5,
        "digest": "0" * 16,
        "runs": {run.label: "0" * 16 for run in rep.runs},
    }}
    attempted, failed, problems = bench.score("chaos-control", 5, [rep], reference)
    assert (attempted, failed) == (8, 8)
    assert "differs from reference" in problems[0]


def test_checker_violation_fails_the_run(tiny_chaos, tmp_path, monkeypatch):
    finish = InvariantChecker.finish

    def finish_with_violation(self):
        report = finish(self)
        report.violations.append(Violation("strong", 1.0, 0, 0, 1, "forced"))
        return report

    monkeypatch.setattr(InvariantChecker, "finish", finish_with_violation)
    rep = _rep(workloads.chaos_control(5, tmp_path))
    attempted, failed, problems = bench.score("chaos-control", 5, [rep], {})
    assert (attempted, failed) == (8, 8)
    assert "1 checker violations" in problems[0]


def test_drift_and_unused_seed_fail():
    first = bench.Rep(1.0, 0.1, [workloads.Run("a", "1111", 1.0)], {"n": 1}, set())
    drifted = first._replace(runs=[workloads.Run("a", "2222", 1.0)])
    assert bench.score("w", 3, [first, drifted], {})[:2] == (2, 1)
    recount = first._replace(counts={"n": 2})
    assert bench.score("w", 3, [first, recount], {})[:2] == (2, 1)
    reference = {"w": {
        "seed": 1, "digest": workloads.combined_digest(first.runs), "runs": {"a": "1111"},
    }}
    assert bench.score("w", 3, [first], reference)[:2] == (1, 1)
    assert bench.score("w", 1, [first], reference)[:2] == (1, 0)


def test_seeds_change_digests_and_repeat(tiny_chaos, tmp_path):
    one = workloads.chaos_control(5, tmp_path)[0]
    again = workloads.chaos_control(5, tmp_path)[0]
    other = workloads.chaos_control(6, tmp_path)[0]
    assert [r.digest for r in one] == [r.digest for r in again]
    assert workloads.combined_digest(one) != workloads.combined_digest(other)


# ----------------------------------------------------------------------
# The campaign workload and the traced run

@pytest.fixture
def tiny_catalog(monkeypatch):
    monkeypatch.setattr(workloads, "CATALOG_SCENARIOS", ("urban-grid", "trace-replay"))
    monkeypatch.setattr(workloads, "CATALOG_SPECS", ("push",))
    monkeypatch.setattr(workloads, "CATALOG_WARMUP", 30.0)
    monkeypatch.setattr(workloads, "CATALOG_HORIZON", 30.0)


def test_catalog_warm_pass_executes_nothing(tiny_catalog, tmp_path):
    runs, counts = workloads.catalog_campaign(2, tmp_path)
    assert len(runs) == 4
    assert [run.problem for run in runs] == [None] * 4
    assert counts == {"experiments.runs_executed": 0, "experiments.store_hits": 4}
    assert list(tmp_path.iterdir()) == []


def test_traced_rep_layers_add_up(tiny_catalog, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKDIR", tmp_path)
    clock = workloads.HostClock()
    clock.install()
    try:
        untraced = bench.run_rep("catalog-campaign", 2, clock)
        recorder = spans.SpanRecorder()
        restore = spans.install(recorder, layers.BOUNDARIES)
        clock.keep = True
        try:
            traced = bench.run_rep("catalog-campaign", 2, clock, recorder)
        finally:
            restore()
    finally:
        clock.uninstall()
    metrics = bench.per_layer(traced, untraced, recorder, clock.built)
    assert list(metrics) == [metric.name for metric in layers.PER_LAYER]
    assert bench.score("catalog-campaign", 2, [untraced, traced], {})[:2] == (8, 0)
    layer_sum = sum(metrics[name][0] for name in layers.SELF_TIME_METRIC.values())
    assert layer_sum + metrics["trace.remainder_s"][0] == pytest.approx(
        metrics["trace.wall_s"][0], rel=1e-3
    )
    assert metrics["experiments.runs_executed"][0] == 0
    assert metrics["experiments.store_hits"][0] == 4
    for name in ("experiments.build_s", "experiments.store_write_s",
                 "experiments.store_read_s", "mobility.s", "cache.s"):
        assert metrics[name][0] > 0, name
    assert metrics["obs.emit_s"][0] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

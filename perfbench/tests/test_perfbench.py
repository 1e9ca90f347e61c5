"""Tests of the benchmark's own code (not of the library).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.serve import (PoissonWorkload, ServeConfig,  # noqa: E402
                         ServeEngine)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def small_report():
    config = ServeConfig(workload=PoissonWorkload(rate=300.0, requests=120,
                                                  seed=5), nodes=2, seed=5)
    return ServeEngine(config).run()


def _check(report, requests=120):
    result = workloads.Round()
    workloads.check_serve_report(result, report, requests, None, ())
    return result


class TestServeChecks:
    def test_intact_report_passes(self, small_report):
        result = _check(small_report)
        assert (result.attempted, result.failed) == (1, 0)

    def test_one_dropped_record_is_a_failed_operation(self, small_report):
        records = small_report.records
        small_report.records = records[:17] + records[18:]
        try:
            result = _check(small_report)
        finally:
            small_report.records = records
        assert (result.attempted, result.failed) == (1, 1)
        assert "conservation" in result.errors[0]

    def test_duplicated_record_is_a_failed_operation(self, small_report):
        records = small_report.records
        small_report.records = records + records[:1]
        try:
            result = _check(small_report)
        finally:
            small_report.records = records
        assert result.failed == 1

    def test_power_over_budget_is_a_failed_operation(self, small_report):
        result = workloads.Round()
        workloads.check_serve_report(result, small_report, 120,
                                     small_report.power_peak_w * 0.5, ())
        assert result.failed == 1 and "budget" in result.errors[0]

    def test_unexpected_drop_reason_fails(self, small_report):
        dropped = small_report.dropped
        records = small_report.records
        small_report.dropped = [(records[0].request, "late")]
        small_report.records = records[1:]
        try:
            result = _check(small_report)
        finally:
            small_report.dropped = dropped
            small_report.records = records
        assert result.failed == 1


class TestKnownDefect:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "library defect: a node on the reboot rung of Node._serve returns "
        "to active draw without passing the power gate"))
    def test_reboot_rung_keeps_peak_power_within_budget(self):
        # serve-chaos with 1 % random hangs on top of each node's first
        # one: at the reference seed a batch hangs twice and its node
        # reboots.  When this passes, restore that hang rate in
        # ServeChaos and re-pin reference.json.
        workload = workloads.ServeChaos()
        workload.hang_rate = 0.01
        workload.setup(0)
        report = workload.simulate(workloads.REFERENCE_SEED)
        assert report.power_peak_w \
            <= workload.budget_w * (1.0 + workloads.POWER_SLACK)


class TestReferenceComparison:
    def test_counts_are_exact_and_floats_relative(self):
        pinned = {"completed": 10, "latency_ms": 1.0}
        assert workloads.compare_stats(
            {"completed": 10, "latency_ms": 1.0 + 1e-6}, pinned) == []
        assert workloads.compare_stats(
            {"completed": 9, "latency_ms": 1.0}, pinned)
        assert workloads.compare_stats(
            {"completed": 10, "latency_ms": 1.01}, pinned)

    def test_missing_key_is_a_mismatch(self):
        assert workloads.compare_stats({"a": 1}, {"a": 1, "b": 2})

    def test_every_workload_has_pinned_statistics(self):
        assert set(workloads.load_reference()) == set(run.WORKLOAD_NAMES)


def _originals():
    found = {}
    for _, name, path, attr in tracing.PROBES:
        owner = tracing._resolve(path)
        found[(path, attr)] = owner.__dict__[attr]
    for cls in tracing._kernel_classes():
        for attr in tracing.KERNEL_METHODS:
            if attr in cls.__dict__:
                found[(cls, attr)] = cls.__dict__[attr]
    import repro.core.system as system
    found[("system", "encode_frame")] = system.encode_frame
    found[("system", "decode_frames")] = system.decode_frames
    return found


class TestTracer:
    def test_wrappers_are_removed_after_a_traced_run(self):
        before = _originals()
        tracer = tracing.Tracer()
        config = ServeConfig(workload=PoissonWorkload(
            rate=300.0, requests=50, seed=2), nodes=2, seed=2)
        with tracer:
            assert _originals() != before
            ServeEngine(config).run()
        assert _originals() == before
        assert not tracer.missing
        assert tracer.fold()["sim.run_all"]["calls"] == 1

    def test_tracing_leaves_results_alone(self):
        def stats():
            config = ServeConfig(workload=PoissonWorkload(
                rate=300.0, requests=80, seed=3), nodes=2, seed=3)
            report = ServeEngine(config).run()
            return workloads.serve_stats(report, report.metrics())

        plain = stats()
        with tracing.Tracer():
            traced = stats()
        assert workloads.digest([plain]) == workloads.digest([traced])

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", "g", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", "g", lambda: inner() + inner())
        outer()
        table = tracer.fold()
        assert table["inner"]["calls"] == 2
        assert table["outer"]["self_ms"] < table["outer"]["total_ms"]
        assert table["outer"]["self_ms"] == pytest.approx(
            table["outer"]["total_ms"] - table["inner"]["total_ms"],
            abs=1e-9)
        assert list(tracer.span_parent) == [-1, 0, 0]

    def test_every_layer_metric_is_reported(self):
        tracer = tracing.Tracer()
        metrics = tracing.layer_metrics(tracer, 0, 0.0)
        assert list(metrics) == [name for name, _ in tracing.LAYER_METRICS]


class TestBenchmarkJson:
    @pytest.fixture(scope="class")
    def spec(self):
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
            return json.load(handle)

    def test_metric_names_and_units_are_well_formed(self, spec):
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")

    def test_lists_match_what_the_runs_print(self, spec):
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
            == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
            == list(tracing.LAYER_METRICS)
        assert [w["name"] for w in spec["workloads"]] \
            == list(run.WORKLOAD_NAMES)

    def test_setup_bound_is_the_largest(self, spec):
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25
        for workload in spec["workloads"]:
            assert len(workload["why"]) <= 200


def test_nearest_rank():
    assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert run.nearest_rank(list(range(1, 101)), 95) == 95

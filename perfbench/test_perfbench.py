"""Arithmetic and plumbing of the benchmark, on hand-built inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

import layers
import run
import tracing

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402  (needs the program on the path)


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: covered part of root is [1, 5]
        ("a.inner", 1.5, 2.0, 1),
        ("late", 8.0, 12.0, 0),  # clipped to the root's end: covers [8, 10]
    ]
    out = tracing.self_times(spans)
    assert out["root"] == [1, 10.0, pytest.approx(10.0 - 4.0 - 2.0)]
    assert out["a"] == [1, 2.0, pytest.approx(1.5)]
    assert out["b"] == [1, 3.0, pytest.approx(3.0)]
    assert out["a.inner"][2] == pytest.approx(0.5)


def test_self_time_sums_repeated_names():
    spans = [("op", 0.0, 4.0, -1), ("prim", 0.0, 1.0, 0), ("prim", 2.0, 3.0, 0), ("op", 5.0, 6.0, -1)]
    out = tracing.self_times(spans)
    assert out["op"] == [2, 5.0, pytest.approx(3.0)]
    assert out["prim"] == [2, 2.0, pytest.approx(2.0)]


def test_tracer_nests_spans_and_folds_them():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.enter("outer")  # t=0
    inner = tracer.enter("inner")  # t=1
    assert tracer.current() == "inner"
    tracer.exit(inner)  # t=2
    tracer.exit(outer)  # t=3
    tracer.count("rows", 7)
    totals, counts = tracer.take()
    assert totals["outer"] == [1, 3.0, 2.0]
    assert totals["inner"] == [1, 1.0, 1.0]
    assert counts == {"rows": 7}
    assert tracer.take() == ({}, {})


def test_fold_refuses_an_open_span():
    tracer = tracing.Tracer()
    tracer.enter("open")
    with pytest.raises(RuntimeError):
        tracer.fold()


# ---------------------------------------------------------------------------
# percentiles and failures


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (1_000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None)],
)
def test_reported_percentile_has_ten_samples_beyond_it(n, expected):
    p = tracing.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - tracing.nearest_rank(n, p) >= tracing.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))[::-1]
    assert tracing.percentile(values, 99.0) == 990
    assert tracing.percentile(values, 50.0) == 500
    assert tracing.percentile([3.0], 99.0) == 3.0


def test_failed_frac_counts_against_attempted():
    assert tracing.failed_frac(10, 0) == 0.0
    assert tracing.failed_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        tracing.failed_frac(0, 0)
    with pytest.raises(ValueError):
        tracing.failed_frac(2, 3)


class FlakyWorkload(workloads.Workload):
    """Every third round raises; every fifth returns a different digest."""

    def __init__(self):
        self.calls = 0
        self.expected_failures = 0

    def run_round(self):
        self.calls += 1
        time.sleep(0.002)
        if self.calls % 3 == 0:
            self.expected_failures += 1
            raise FloatingPointError("diverged")
        if self.calls % 5 == 0:
            self.expected_failures += 1
            return "other"
        return "same"


def test_measure_counts_each_failed_round_and_never_raises():
    wl = FlakyWorkload()
    rounds, failures = run.measure(wl, 0.05)
    assert len(rounds) == wl.calls >= 5
    assert len(failures) == wl.expected_failures == sum(not ok for _, ok in rounds)
    assert tracing.failed_frac(len(rounds), len(failures)) == wl.expected_failures / wl.calls


def test_best_round_sums_each_parts_fastest_time_over_passed_rounds():
    wl = workloads.Workload()
    wl.steps_per_round = 6
    assert wl.best_round_s() == 0.0 and run.best_round_rate(wl) == 0.0
    for parts, wall, digest in (([3.0, 1.0], 4.5, "a"), ([2.0, 2.0], 4.25, "a"), ([0.5, 0.5], 1.5, "b")):
        wl.parts = parts
        try:
            wl.check_round(digest)
            wl.keep_fastest_parts(wall)
        except workloads.CheckFailed:
            pass  # the third round's digest differs, so its times are not kept
    assert wl.part_best == [2.0, 1.0, 0.25]
    assert wl.best_round_s() == 3.25
    assert run.best_round_rate(wl) == 6 / 3.25
    wl.parts = [1.0]
    with pytest.raises(workloads.CheckFailed):
        wl.keep_fastest_parts(2.0)


def test_measure_folds_only_passed_rounds_into_fastest_parts():
    wl = FlakyWorkload()
    rounds, _ = run.measure(wl, 0.05)
    assert len(wl.part_best) == 1
    assert wl.best_round_s() <= min(t for t, ok in rounds if ok)


# ---------------------------------------------------------------------------
# wrapping the program


def test_missing_targets_are_reported_not_raised():
    installed = tracing.install(
        [tracing.Target("kernels.no_such_kernel"), tracing.Target("no_such_module.fn"),
         tracing.Target("search.Adam.no_such_method")],
        lambda target, original: original,
    )
    assert installed.missing == [
        "kernels.no_such_kernel", "no_such_module.fn", "search.Adam.no_such_method"
    ]


def test_every_alias_is_wrapped_and_restored():
    from grnas import metrics, search

    original = metrics.classification_report
    tracer = tracing.Tracer()
    installed = tracing.install(
        [tracing.Target("metrics.classification_report")], tracing.span_wrapper(tracer)
    )
    try:
        assert search.classification_report is metrics.classification_report is not original
        search.classification_report([0.2, 0.9], [0, 1], 3)
    finally:
        installed.remove()
    assert search.classification_report is metrics.classification_report is original
    totals, _ = tracer.take()
    assert totals["metrics.classification_report"][0] == 1


def test_backward_closures_are_attributed_to_their_primitive():
    import numpy as np
    from grnas import autodiff

    tracer = tracing.Tracer()
    spans = tracing.span_wrapper(tracer)

    def make(target, original):
        if target.dotted == layers.TAPE_RECORD:
            return tracing.record_wrapper(tracer, original)
        return spans(target, original)

    targets = [t for t in layers.TARGETS if t.dotted.startswith("autodiff.")]
    installed = tracing.install(targets, make)
    try:
        tape = autodiff.Tape()
        a = tape.tensor(np.ones(3), requires_grad=True)
        b = tape.tensor(np.arange(3.0), requires_grad=True)
        loss = autodiff.sum_all(autodiff.mul(a, b))
        tape.backward(loss)
    finally:
        installed.remove()
    assert np.array_equal(a.grad, np.arange(3.0))
    totals, counts = tracer.take()
    assert counts["autodiff.Tape.record"] == 2
    assert totals["autodiff.mul"][0] == totals["autodiff.mul.bw"][0] == 1
    assert totals["autodiff.sum_all.bw"][0] == 1
    assert totals["autodiff.Tape.backward"][0] == 1


# ---------------------------------------------------------------------------
# the metric lists agree with BENCHMARK.json


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(layers.EXPECTED) == set(workloads.WORKLOADS)


def test_per_layer_values_divide_by_steps_and_calls():
    totals = {
        "kernels.grmc_stats.k10": [6, 3.0, 2.0],
        "search.save_checkpoint": [2, 0.5, 0.5],
        "data.gen_synthetic_bimodal": [1, 0.25, 0.25],
    }
    counts = {"kernels.grmc_stats.rows": 400, "search.save_checkpoint.bytes": 300}
    values = layers.per_layer_values(totals, counts, 4, {"search.save_checkpoint": [1, 0.25, 0.25]}, 0.05)
    assert values["kernels.grmc_stats.self_s.k10"] == (0.5, "s/step")
    assert values["kernels.grmc_stats.rows"] == (100.0, "rows/step")
    assert values["search.save_checkpoint.s"] == (0.25, "s/call")
    assert values["search.save_checkpoint.bytes"] == (150.0, "B/call")
    assert values["data.gen_synthetic_bimodal.s"] == (0.25, "s/call")
    assert values["kernels.conditional_values.calls_per_step"] == (0.0, "calls/step")
    assert values["trace.overhead_frac"] == (0.05, "frac")

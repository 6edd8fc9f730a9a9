"""Tests of the benchmark's own logic: span self-time arithmetic, wrapping
and restoring targets, per-layer values, the workloads' output checks and
the reference-unit arithmetic."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
from spans import Span, Target, Tracer, aggregate, instrumented, self_times  # noqa: E402
from workloads import (DELAY_MAX_NORMS, DIRECT_MAX_ERROR, PER_LAYER, WORKLOADS,  # noqa: E402
                       check_delay, check_direct, check_space, layer_values)


def synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7];
    # a second root d [10, 12] without children
    return [Span("root", 0.0, 10.0, None), Span("a", 1.0, 4.0, 0),
            Span("b", 5.0, 9.0, 0), Span("c", 6.0, 7.0, 2), Span("d", 10.0, 12.0, None)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(synthetic_tree()) == [3.0, 3.0, 3.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span("p", 0.0, 10.0, None), Span("x", 1.0, 4.0, 0),
             Span("y", 3.0, 6.0, 0), Span("z", 9.0, 11.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_aggregate_sums_per_name():
    spans = synthetic_tree() + [Span("a", 12.0, 13.5, None)]
    agg = aggregate(spans)
    assert agg["a"] == {"s": 4.5, "self_s": 4.5, "calls": 2}
    assert agg["root"] == {"s": 10.0, "self_s": 3.0, "calls": 1}


def test_layer_values_reads_spans_and_counters_and_zeroes_the_rest():
    tracer = Tracer()
    tracer.spans = [Span("solver.solve", 0.0, 5.0, None),
                    Span("solver.bdf2_step", 1.0, 4.0, 0),
                    Span("solver.apply_integral_operator", 2.0, 3.0, 1)]
    tracer.count("solver.inner_iterations", 7)
    values = layer_values(tracer)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["solver.solve.self_s"] == 2.0
    assert values["solver.bdf2_step.self_s"] == 2.0
    assert values["solver.bdf2_step.calls"] == 1
    assert values["solver.apply_integral_operator.s"] == 1.0
    assert values["solver.inner_iterations"] == 7
    assert values["cli.main.self_s"] == 0


def test_instrumented_records_nesting_restores_and_reports_absent(monkeypatch):
    mod = types.ModuleType("bench_fake_mod")
    exec("def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n",
         mod.__dict__)
    monkeypatch.setitem(sys.modules, "bench_fake_mod", mod)
    originals = (mod.inner, mod.outer)
    seen = []
    targets = [Target("bench_fake_mod", "outer", "outer"),
               Target("bench_fake_mod", "inner", "inner", lambda t, r: seen.append(r)),
               Target("bench_fake_mod", "gone", "gone"),
               Target("bench_fake_mod_missing", "f", "f")]
    tracer = Tracer()
    with instrumented(tracer, targets):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert seen == [2]
    assert tracer.absent == ["bench_fake_mod.gone", "bench_fake_mod_missing.f"]


def test_counting_wrapper_counts_elements():
    tracer = Tracer()
    f = tracer.counting(lambda r: r * 2, "k.evals")
    f(np.zeros((3, 4)))
    f(np.zeros(5))
    assert tracer.counters["k.evals"] == 17


def test_checks_accept_reference_outputs():
    assert check_delay({"finite": True, "max_norms": list(DELAY_MAX_NORMS)}) == []
    assert check_direct({"finite": True, "max_error": DIRECT_MAX_ERROR}) == []
    assert check_space({"exit_code": 0, "ratio_24_48": 295.45, "ratio_48_96": 203.2}) == []


def test_checks_reject_perturbed_outputs():
    norms = list(DELAY_MAX_NORMS)
    norms[2] = (norms[2][0], norms[2][1] * (1 + 1e-8))
    assert check_delay({"finite": True, "max_norms": norms})
    assert check_delay({"finite": False, "max_norms": list(DELAY_MAX_NORMS)})
    assert check_direct({"finite": True, "max_error": DIRECT_MAX_ERROR * (1 - 1e-8)})
    assert check_space({"exit_code": 0, "ratio_24_48": 199.0, "ratio_48_96": 203.2})
    assert check_space({"exit_code": 0, "ratio_24_48": 295.45, "ratio_48_96": 99.0})
    assert check_space({"exit_code": 1})


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_in_units_pools_calls_and_units_and_cancels_a_uniform_slowdown():
    calls, refs, units = [2.0, 4.0], [1.0, 3.0], [10, 10]
    assert reference.in_units(calls, refs, units) == pytest.approx(3.0 / 0.2)
    slower = reference.in_units([2 * c for c in calls], [2 * r for r in refs], units)
    assert slower == pytest.approx(3.0 / 0.2)


def test_every_workload_has_a_reference_unit():
    for wl in WORKLOADS.values():
        assert wl.reference in reference.UNITS
        assert reference.time_units(wl.reference, 1) > 0

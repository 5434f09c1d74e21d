"""Tests of the benchmark's tracing: patching, restoring and self times.

Run with: python -m pytest bench/tests
"""

import types

import pytest

import harness
import skewbounds
import workloads
from skewbounds import cli
from tracing import TRACED_ATTR, Span, Tracer, package_modules, self_times


def function_bindings():
    return {
        (mod.__name__, attr): obj
        for mod in package_modules(skewbounds)
        for attr, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType)
    }


def traced_names():
    return sorted(f"{m}.{a}" for (m, a), fn in function_bindings().items() if getattr(fn, TRACED_ATTR, False))


def test_install_patches_definitions_and_imported_names():
    with Tracer(skewbounds):
        names = traced_names()
    for name in (
        "skewbounds.metric.gamma_matrix",  # where it is defined
        "skewbounds.scenarios.gamma_matrix",  # where it is imported
        "skewbounds.gamma_matrix",  # the package namespace
        "skewbounds.cli.main",
        "skewbounds.numerics.herm_eig",
    ):
        assert name in names
    assert not any(name.rpartition(".")[2].startswith("_") for name in names)


def test_uninstall_restores_every_patched_name():
    before = function_bindings()
    tracer = Tracer(skewbounds)
    tracer.install()
    assert function_bindings() != before
    tracer.uninstall()
    after = function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_names_restored_when_the_traced_code_raises():
    before = function_bindings()
    with pytest.raises(skewbounds.UnknownExampleError):
        with Tracer(skewbounds) as tracer:
            skewbounds.builtin_example(9)
    assert tracer.spans[-1].error == "UnknownExampleError"
    after = function_bindings()
    assert all(after[k] is before[k] for k in before)


class _Snoop(workloads.Workload):
    """One op that records which skewbounds names are wrapped while it runs."""

    name = "snoop"

    def __init__(self):
        super().__init__(tmp_root="")
        self.seen = []

    def batch(self, seed, index):
        def run():
            self.seen.append(traced_names())
            return skewbounds.random_instance(2, 2, seed=seed)

        return [workloads.Op("snoop", 1, run, lambda _: None)]


def test_untraced_run_installs_no_wrapper():
    snoop = _Snoop()
    phase = harness.run_phase(snoop, seed=3, seconds=0.0)
    assert snoop.seen == [[]]
    assert phase.layer_rows == []
    # control: in a traced run the untraced half still sees no wrapper and
    # the traced half does
    untraced, traced = harness.run_traced(snoop, seed=3, seconds=0.0)
    assert snoop.seen[1] == []
    assert "skewbounds.scenarios.random_instance" in snoop.seen[2]
    assert len(traced.layer_rows) == 1 and untraced.layer_rows == []
    assert traced_names() == []


def test_self_times_are_non_negative_and_sum_to_each_root(tmp_path):
    tracer = Tracer(skewbounds)
    with tracer:
        with tracer.span("op.sweep"):
            skewbounds.run_sweep(skewbounds.builtin_example(2), steps=3)
        with tracer.span("op.reproduce"):
            cli.main(["reproduce", "--example", "3", "--steps", "2", "--out", str(tmp_path)])
    spans = tracer.spans
    selfs = self_times(spans)
    assert all(s >= 0 for s in selfs)
    root_of = []
    for i, s in enumerate(spans):
        root_of.append(i if s.parent < 0 else root_of[s.parent])
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    assert len(roots) == 2
    for r in roots:
        assert sum(own for own, top in zip(selfs, root_of) if top == r) == spans[r].duration
        assert any(top == r and i != r for i, top in enumerate(root_of))


def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", 0, -1), Span("b", 10, 0), Span("c", 12, 1)]
    spans[0].end, spans[1].end, spans[2].end = 100, 40, 20
    assert self_times(spans) == [70, 22, 8]


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(1, 20)))[0] == 0.5  # too few samples: the median
    q, value, beyond = harness.tail(list(range(1, 101)))
    assert (q, value, beyond) == (0.9, 90, 10)
    q, value, beyond = harness.tail(list(range(1, 1000)))
    assert (q, beyond) == (0.9, 99)


def test_benchmark_json_names_every_printed_metric_and_workload():
    import json
    from pathlib import Path

    import layers
    import run

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER

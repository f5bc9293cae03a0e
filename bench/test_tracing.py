"""Self-test of the benchmark's tracing: ``python3 -m pytest bench``."""

import contextlib
import io
import sys

import run
import tracing
from tracing import Span


def _span(name, start, end, parent=None):
    return Span(name, name.partition(".")[0], start, end, parent, 0)


def test_self_time_subtracts_children_once():
    spans = [
        _span("cli.run", 0.0, 10.0),
        _span("solver.build_chain", 1.0, 4.0, parent=0),
        _span("belief.propagate", 2.0, 3.0, parent=1),
        _span("solver.evaluate_policy", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(spans)
    assert summary["wall_s"] == summary["self_s"] == 10.0
    assert summary["solver.self_s"] == 6.0
    assert summary["solver.calls"] == 2
    assert summary["belief.propagate.ms_p50"] == 1000.0


def test_overlapping_children_are_covered_once():
    spans = [
        _span("cli.run", 0.0, 10.0),
        _span("solver.solve", 1.0, 5.0, parent=0),
        _span("solver.solve", 3.0, 7.0, parent=0),
        _span("solver.solve", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 3.0


def test_calls_are_counted_per_binding_site():
    spans = [_span("cli.run", 0.0, 4.0), Span("belief.propagate", "solver", 1.0, 2.0, 0, 0)]
    summary = tracing.summarize(spans)
    assert summary["belief.propagate.calls"] == 1
    assert summary["solver.propagate.calls"] == 1


def _bindings(targets, modules, methods):
    found = {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if id(value) in targets
    }
    found.update({(cls.__name__, attr): cls.__dict__[attr] for cls, attr in methods})
    return found


def test_traced_run_restores_every_binding():
    sys.path.insert(0, run.SRC)
    tracer, targets, modules, methods = run.trace_setup()
    import remotepower.belief as belief
    import remotepower.cli as cli
    import remotepower.solver as solver

    before = _bindings(targets, modules, methods)
    assert ("remotepower.solver", "propagate") in before
    argv = ["evaluate", run.config_path("solve-canonical"), "--policy", run.POLICY]
    with tracing.patched(tracer, targets, modules, methods):
        assert solver.propagate is not belief.propagate
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0
    after = _bindings(targets, modules, methods)
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert solver.propagate is belief.propagate

    summary = tracing.summarize(tracer.spans)
    assert summary["cli.run.calls"] == 1
    assert summary["solver.build_chain.calls"] == 1
    assert summary["belief.propagate.calls"] == summary["solver.propagate.calls"] > 0
    assert summary["policy.PowerPolicy.from_dict.calls"] == 1
    assert tracer.counters["solver.states"] == 1022
    assert abs(summary["self_s"] - summary["wall_s"]) < 1e-9


def test_metric_names_match_benchmark_json():
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

"""Smoke tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q bench"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import SpanError, Tracer, outermost, self_times  # noqa: E402
from workloads import WORKLOADS, check_artifacts, digests  # noqa: E402


@pytest.fixture(scope="module")
def schemas():
    return run.load_schemas()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_passes_gate_traced_and_untraced(name, schemas, tmp_path):
    workload = WORKLOADS[name]
    plain = run.run_once(workload, workload.small_args, 3, tmp_path, f"{name}-plain", False, schemas)
    traced = run.run_once(workload, workload.small_args, 3, tmp_path, f"{name}-traced", True, schemas)
    assert plain["problems"] == [] and traced["problems"] == []
    # tracing must not change a single output byte
    run.check_determinism([plain, traced])
    assert traced["problems"] == []
    summary = traced["trace"]
    assert abs(summary["self_sum_residual_s"]) < run.SELF_SUM_TOL_S
    assert all(count == 0 for count in summary["errors"].values())
    for metric in ("cli.self_s", "cli.files_written", *workload.profile[0]):
        assert run.per_layer_value(metric, traced) > 0


def test_gate_catches_altered_and_inconsistent_output(schemas, tmp_path):
    workload = WORKLOADS["eraser_mc"]
    first = run.run_once(workload, workload.small_args, 5, tmp_path, "a", False, schemas)
    assert first["problems"] == []
    out = tmp_path / "out"
    with open(out / "outcomes.csv", "a") as fh:
        fh.write("5000,1,1,0.5,0.5,L1,R2\n")
    altered = {"run_id": "b", "digests": digests(str(out)), "problems": []}
    problems = check_artifacts(str(out), schemas, altered["digests"])
    assert problems == ["outcomes.csv: sha256 differs from manifest", "outcomes.csv: size differs from manifest"]
    assert workload.check(str(out), {"trials": 5000}) == ["outcomes.csv has 5002 lines, expected 5001"]
    run.check_determinism([first, altered])
    assert altered["problems"] == ["bytes differ from a at the same seed and config: outcomes.csv"]


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_time_arithmetic_on_nested_spans():
    names = ["cli.main", "inference.chsh_optimize", "inference.correlator", "circuit.build_eraser"]
    spans = [
        _span(0, 0.0, 10.0, -1),  # cli.main: self 10 - 4 - 3 = 3
        _span(1, 1.0, 5.0, 0),  # chsh_optimize: self 4 - 1 - 1 = 2
        _span(2, 1.5, 2.5, 1),  # correlator: self 1 - 0.5 = 0.5
        _span(3, 2.0, 2.5, 2),  # build_eraser: self 0.5
        _span(2, 3.0, 4.0, 1),  # correlator: self 1
        _span(3, 6.0, 9.0, 0),  # build_eraser: self 3
    ]
    assert self_times(spans) == [3.0, 2.0, 0.5, 0.5, 1.0, 3.0]
    summary, problems = run.trace_summary(names, spans, run_s=10.0)
    assert problems == []
    assert summary["self_s"] == {"hilbert": 0.0, "circuit": 3.5, "inference": 3.5, "pilotwave": 0.0, "cli": 3.0}
    assert summary["functions"]["inference.correlator"] == (2, 2.0, 0)
    record = {"trace": summary}
    assert run.per_layer_value("inference.correlator.calls", record) == 2
    assert run.per_layer_value("circuit.build_eraser.calls", record) == 2
    assert run.per_layer_value("cli.self_s", record) == 3.0
    # layer self times must add up to the independently measured run time
    _, problems = run.trace_summary(names, spans, run_s=10.5)
    assert problems == ["trace: layer self times sum to run_s -0.500000 s"]


def test_recursive_calls_count_once_and_bad_nesting_is_rejected():
    spans = [_span(0, 0.0, 4.0, -1), _span(1, 1.0, 3.0, 0), _span(1, 1.5, 2.0, 1)]
    assert outermost(["cli.main", "pilotwave.f"], spans) == [True, True, False]
    with pytest.raises(SpanError, match="outside its parent"):
        self_times([_span(0, 0.0, 1.0, -1), _span(1, 0.5, 1.5, 0)])
    with pytest.raises(SpanError, match="overlaps"):
        self_times([_span(0, 0.0, 4.0, -1), _span(1, 1.0, 3.0, 0), _span(1, 2.0, 3.5, 0)])


def test_tracer_wraps_module_functions_and_counts_escaping_errors():
    import types

    module = types.ModuleType("fake_layer")
    exec(
        "def outer(x):\n    return inner(x) + 1\n"
        "def inner(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n"
        "def _private(x):\n    return x\n",
        module.__dict__,
    )
    tracer = Tracer("t")
    assert tracer.install({"fake": module}) == 2
    assert module.outer(1) == 2
    with pytest.raises(ValueError):
        module.outer(-1)
    assert [tracer.names[s[0]] for s in tracer.spans] == ["fake.outer", "fake.inner"] * 2
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert [s[5] for s in tracer.spans] == [0, 0, 1, 1]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(v) for v in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(v) for v in range(100)]) == (90, 89.0)

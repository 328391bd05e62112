"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["step", 0.0, 10.0, -1, "r"],
        ["solve", 1.0, 5.0, 0, "r"],
        ["kernel", 2.0, 3.0, 1, "r"],
        ["kernel", 3.5, 4.0, 1, "r"],
        ["report", 6.0, 9.0, 0, "r"],
        ["step", 10.0, 12.0, -1, "r"],
    ]
    totals = tracer.layer_totals(spans)
    assert totals["step"] == (2, 12.0, 12.0 - 4.0 - 3.0)
    assert totals["solve"] == (1, 4.0, 4.0 - 1.5)
    assert totals["kernel"] == (2, 1.5, 1.5)
    assert totals["report"] == (1, 3.0, 3.0)
    # self times partition the top-level spans
    assert sum(s for _, _, s in totals.values()) == pytest.approx(12.0)


def test_wrapped_calls_record_parents_and_bytes():
    tr = tracer.Tracer("r")
    inner = tr.wrap("inner", lambda a: a * 2, count_bytes=True)
    outer = tr.wrap("outer", lambda a: inner(a) + 1)
    outer(np.zeros(4))
    assert [(s[0], s[3]) for s in tr.spans] == [("outer", -1), ("inner", 0)]
    assert tr.kernel_bytes == {"inner": 64}


def test_computed_bytes_from_shapes():
    args = (np.zeros((3, 4)), 2.0, np.zeros(5, dtype=np.int32))
    assert tracer.computed_bytes(args, (np.zeros((2, 2)), np.zeros(3))) == 96 + 20 + 32 + 24
    assert tracer.computed_bytes(args, np.zeros((2, 3, 4), dtype=np.float32)) == 116 + 96
    # a broadcast view counts its logical size
    assert tracer.computed_bytes((np.broadcast_to(np.zeros(1), (10,)),), None) == 80


def _reports(n=5):
    return [
        SimpleNamespace(t=0.01 * i, V0=1e-6 * (1 - 0.01 * i), V1=2e-4, D0=1e-8,
                        res_j0=1e-10, res_j1=1e-9, det_min=1 - 1e-7 * i, min_ellip=1.0)
        for i in range(n)
    ]


def test_output_check_rejects_perturbed_reports():
    reports = _reports()
    reference = {c: getattr(reports[-1], c) for c in checks.REFERENCE_COLUMNS}
    assert checks.check_trajectory(reports, [], reference) == {}

    def failures(mutate, retried=()):
        reps = _reports()
        mutate(reps)
        return sorted(checks.check_trajectory(reps, list(retried), reference))

    assert failures(lambda r: None, retried=[2]) == [2]
    assert failures(lambda r: setattr(r[2], "det_min", -1e-3)) == [2]
    assert failures(lambda r: setattr(r[3], "min_ellip", 0.0)) == [3]
    assert failures(lambda r: setattr(r[3], "V0", r[2].V0 * 1.001)) == [3]
    assert failures(lambda r: setattr(r[4], "res_j0", 0.1 * r[0].V0)) == [4]
    for col in checks.REFERENCE_COLUMNS:
        value = getattr(reports[-1], col)
        bumped = 1 - (1 - value) * (1 + 1e-5) if col == "det_min" else value * (1 + 1e-5)
        assert failures(lambda r: setattr(r[4], col, bumped)) == [4], col


def test_benchmark_json_is_well_formed():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)) and len(committed["per_layer"]) <= 128
    assert "setup_s" in names


SMOKE = harness.Workload("smoke-2d-r4", 2, 4, 5e-3, 1.0, steps=4, trajectories=2, block=2, setups=1)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_yields_every_metric(tmp_path, trace):
    from lagfsi import solid

    newton_solve = solid.newton_solve
    outcome = harness.measure(SMOKE, seed=3, deadline=0.0, trace=trace, out_dir=tmp_path)
    assert list(outcome.metrics) == list(harness.METRICS[trace])
    assert outcome.failed == {}
    result = json.loads(harness.result_line(outcome))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMOKE.steps * (2 if trace else 1)  # deadline 0: one trajectory
    assert solid.newton_solve is newton_solve  # wrappers removed
    m = outcome.metrics
    if trace:
        assert m["coupling.coupled_step.calls"][0] == SMOKE.steps
        assert m["diagnostics.TrajectoryRecorder.add.calls"][0] == SMOKE.steps + 1
        assert m["coupling.reachable_states"][0] == SMOKE.steps + 1
        assert 0.99 < m["trace.step_coverage"][0] <= 1.0
        assert m["solid.newton_solve.self_s"][0] > 0
        assert (tmp_path / "trace-smoke-2d-r4-seed3.json").is_file()
    else:
        assert all(v > 0 for v, _ in m.values())
    assert not list(tmp_path.glob("tmp*"))  # the CSV directory is removed

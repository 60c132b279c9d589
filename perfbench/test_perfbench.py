"""Tests of the benchmark itself, at smoke sizes:

    python -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports no numpy, so the thread count below still applies)

run.pin_blas_threads()

import framecond  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from framecond import experiments, precondition  # noqa: E402

SMOKE = {
    "frame_pipeline": dict(ms=(5, 7), n_vectors=12),
    "bounded_sweep": dict(m=5, n_vectors=12),
    "phase_recovery": dict(n_vectors=8, m_grid=range(2, 6), trials=2),
}
LAYERS_USED = {
    "frame_pipeline": {"cli", "precondition", "conic", "frames", "numerics"},
    "bounded_sweep": {"precondition", "conic", "frames", "numerics"},
    "phase_recovery": {"experiments", "recovery", "precondition", "conic", "frames", "numerics"},
}


def factory(name, tmp_path, reference=None):
    return lambda: workloads.WORKLOADS[name](0, str(tmp_path), reference or {}, **SMOKE[name])


def test_workloads_cover_every_layer():
    assert set().union(*LAYERS_USED.values()) == set(spans.LAYERS)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_finishes_in_seconds_and_passes_checks(name, tmp_path):
    start = time.perf_counter()
    res = run.measure(factory(name, tmp_path), seconds=0, trace=False)
    assert time.perf_counter() - start < 10
    assert res.correct and res.failed == 0, res.problems
    assert res.attempted == len(res.samples) > 0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_records_each_layer_it_uses(name, tmp_path):
    res = run.measure(factory(name, tmp_path), seconds=0, trace=True)
    assert len(res.walls[False]) == len(res.walls[True]) == 1
    recorded = {s.layer for s in res.recorders[0].spans}
    assert LAYERS_USED[name] <= recorded
    layer = res.layer_rounds[0]
    assert layer["conic.calls"] >= 1 and layer["conic.iterations"] >= layer["conic.calls"]
    if name == "frame_pipeline":
        assert layer["cli.bytes_out"] > 0 and layer["cli.io_s"] > 0
    if name == "phase_recovery":
        assert layer["recovery.bp_calls"] > 0 and 0 < layer["recovery.success_ratio"] <= 1


def test_result_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    res = run.measure(factory("bounded_sweep", tmp_path), seconds=0, trace=True)
    for declared, produced in ((spec["end_to_end"], run.end_to_end_metrics(res)),
                               (spec["per_layer"], run.per_layer_metrics(res))):
        assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in produced.items()}


def test_wrappers_reach_from_imports_and_are_removed_on_exit():
    original = precondition.solve_coherence
    with spans.Recorder():
        assert experiments.solve_coherence is precondition.solve_coherence
        assert precondition.solve_coherence is not original
        assert framecond.coherence is framecond.frames.coherence
    assert precondition.solve_coherence is original
    assert experiments.solve_coherence is original


def test_self_time_of_recursive_pinned_solve(tmp_path):
    frame = workloads.frame_for(0, 5, 12)
    with spans.Recorder() as rec:
        precondition.solve_coherence(frame, workloads.SETTINGS, bounds=(2.0, 1.0))
    solves = [s for s in rec.spans if s.name == "conic.solve"]
    assert len(solves) == 2 and solves[1].parent is solves[0]
    assert solves[0].self_s == pytest.approx(solves[0].dur - solves[1].dur, abs=1e-12)
    top = sum(s.dur for s in rec.spans if s.parent is None)
    assert sum(s.self_s for s in rec.spans) == pytest.approx(top, rel=1e-9)
    assert spans.layer_metrics(rec.spans)["conic.calls"] == 1


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value + 0.1
    rows = [list(row) for row in value]
    rows[0][0] = 1.0 - rows[0][0]
    return rows


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_corrupted_reference_counts_as_failure(name, tmp_path):
    clean = run.measure(factory(name, tmp_path), seconds=0, trace=False)
    reference = clean.workload.reference_values(clean.first_outcomes)
    assert run.measure(factory(name, tmp_path, reference), seconds=0, trace=False).failed == 0
    key = sorted(reference)[-1]
    reference[key] = _corrupt(reference[key])
    res = run.measure(factory(name, tmp_path, reference), seconds=0, trace=False)
    assert res.failed > 0 and not res.correct
    assert any(item_id == key and kind == "mismatch" for item_id, kind, _ in res.problems)


def _shift_q(func):
    def wrong(*args, **kwargs):
        result = func(*args, **kwargs)
        return dataclasses.replace(result, q=result.q + 0.01)
    return wrong


def _flip_cell(func):
    def wrong(*args, **kwargs):
        diagram = func(*args, **kwargs)
        if kwargs.get("pipeline") == "gphi":
            diagram.success_rate[-1, 0] = 1.0 - diagram.success_rate[-1, 0]
        return diagram
    return wrong


@pytest.mark.parametrize("name, module, attr, corrupt", [
    ("frame_pipeline", precondition, "diagonal_lp", _shift_q),
    ("bounded_sweep", precondition, "solve_coherence", _shift_q),
    ("phase_recovery", experiments, "phase_diagram", _flip_cell),
])
def test_corrupted_answer_counts_as_failure(name, module, attr, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    res = run.measure(factory(name, tmp_path), seconds=0, trace=False)
    assert res.failed > 0 and not res.correct


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase_recovery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


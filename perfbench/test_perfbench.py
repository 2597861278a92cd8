"""Tests of the benchmark itself: seeded inputs, exact traced counts,
instrumentation that undoes cleanly, and the metric names it promises.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The workloads run here at reduced size.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from authalic import energy, linsolve, pipeline, rgd  # noqa: E402

COUNTS = [
    "rgd.iterations", "linesearch.evals_per_call", "energy.face_geometry_per_iter",
    "energy.assemble_laplacian_calls", "linsolve.systems", "linsolve.factorizations",
    "linsolve.factorizations_per_system", "linsolve.lu_fill_ratio", "fpi.iterations",
    "fpi.increase_stops", "unfold.sweeps", "unfold.noop_sweep_ratio",
    "sphere.count_folds_calls", "registration.align_iters",
    "registration.locate_fallbacks",
]

SMALL = [
    lambda: workloads.ParamLarge(subdivisions=3),
    lambda: workloads.CorpusSmall(scale=1),
    lambda: workloads.RegisterPair(subdivisions=2),
]


def _traced_counts(workload, seed):
    recorder = spans.Recorder()
    restore = spans.instrument(recorder)
    try:
        state = workload.setup(seed)
        with recorder.operation("op", "operation"):
            workload.run(state)
    finally:
        restore()
    metrics = spans.layer_metrics(recorder, "op")
    return {name: metrics[name] for name in COUNTS}


@pytest.mark.parametrize("make", SMALL, ids=["param", "corpus", "register"])
def test_two_traced_runs_give_identical_counts(make):
    first = _traced_counts(make(), seed=3)
    second = _traced_counts(make(), seed=3)
    assert first == second
    assert first["linsolve.systems"] > 0 and first["rgd.iterations"] > 0


def test_seed_counts_match_the_unfixed_library():
    """The defects the benchmark must show at this library version."""
    counts = _traced_counts(workloads.ParamLarge(subdivisions=3), seed=0)
    assert counts["linsolve.factorizations_per_system"] == 2.0
    assert counts["unfold.noop_sweep_ratio"] == 1.0
    assert counts["rgd.iterations"] == 100


def test_instrument_restores_every_name():
    before = (pipeline.minimize, energy.face_geometry, rgd.search, linsolve.spla,
              rgd.NormalizedStretchObjective.value_and_gradient)
    restore = spans.instrument(spans.Recorder())
    assert pipeline.minimize is not before[0]
    assert linsolve.spla is not before[3]
    restore()
    after = (pipeline.minimize, energy.face_geometry, rgd.search, linsolve.spla,
             rgd.NormalizedStretchObjective.value_and_gradient)
    assert all(a is b for a, b in zip(before, after))


def test_records_time_excludes_objective_and_line_search():
    recorder = spans.Recorder()
    with recorder.operation("op", "operation"):
        outer = recorder.open("pipeline.rgd")
        for name in ("rgd.value_and_gradient", "linesearch.search", "energy.face_geometry"):
            recorder.close(recorder.open(name))
        recorder.close(outer, {"iterations": 1})
    by_name = {s[spans.NAME]: s for s in recorder.spans}
    busy = sum(by_name[n][spans.END] - by_name[n][spans.START]
               for n in ("rgd.value_and_gradient", "linesearch.search"))
    rgd_span = by_name["pipeline.rgd"]
    m = spans.layer_metrics(recorder, "op")
    assert m["rgd.records_s"] == pytest.approx(rgd_span[spans.END] - rgd_span[spans.START] - busy)
    assert all(s[spans.OP] == "op" for s in recorder.spans)


def test_inputs_are_seeded():
    a = workloads.CorpusSmall(scale=1).setup(5)
    b = workloads.CorpusSmall(scale=1).setup(5)
    c = workloads.CorpusSmall(scale=1).setup(6)
    assert all(np.array_equal(x.vertices, y.vertices) for (_, x), (_, y) in zip(a, b))
    assert not np.array_equal(a[0][1].vertices, c[0][1].vertices)


def test_hull_keeps_every_point_and_faces_outward():
    surface = inputs.unit_hull(300, np.random.default_rng(1))
    assert surface.n_vertices == 300
    assert np.allclose(np.linalg.norm(surface.vertices, axis=1), 1.0)
    p = surface.vertices[surface.faces]
    det = np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2]))
    assert (det > 0).all()


def test_random_rotation_is_proper():
    q = inputs.random_rotation(np.random.default_rng(2))
    assert np.allclose(q @ q.T, np.eye(3))
    assert np.linalg.det(q) == pytest.approx(1.0)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    outcome = workloads.Outcome("x", sd_over_mean=0.1, authalic=0.1, maps=1)
    e2e = run._end_to_end([(1.0, 1.0)], [outcome], [0.5])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "param-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke runs of the experiment scripts on tiny meshes, each in its own
interpreter, as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path, name, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name, args, row, files", [
    ("run_ellipsoid.py", ["--subdivisions", "1", "--max-iters", "5"],
     "       paper", []),
    ("noise_stability.py", ["--subdivisions", "1", "--sigmas", "1e-3", "--max-iters", "5"],
     "   1e-03", []),
    ("morph_demo.py", ["--subdivisions", "1", "--frames", "2", "--out", "frames"],
     "landmark mismatch", ["frames/frame_000.obj", "frames/frame_001.obj"]),
])
def test_script_runs(tmp_path, name, args, row, files):
    result = run_script(tmp_path, name, args)
    assert result.returncode == 0, result.stderr
    assert any(line.startswith(row) for line in result.stdout.splitlines()), result.stdout
    for path in files:
        assert (tmp_path / path).is_file(), path


def test_run_ellipsoid_prints_its_peak_resident_set(tmp_path):
    # the memory figure of a run, after the table
    result = run_script(tmp_path, "run_ellipsoid.py", ["--subdivisions", "1", "--max-iters", "2"])
    assert result.returncode == 0, result.stderr
    label, value = result.stdout.splitlines()[-1].rsplit(" ", 2)[:2]
    assert label == "peak resident set:" and float(value) > 0, result.stdout


@pytest.mark.parametrize("name", ["run_ellipsoid.py", "noise_stability.py"])
@pytest.mark.parametrize("mesh, message", [
    ("triangle.obj", "error: open surface: boundary edge (0, 1)"),
    ("absent.obj", "error: [Errno 2] No such file or directory: 'absent.obj'"),
], ids=["open", "missing"])
def test_a_rejected_mesh_is_an_error_line(tmp_path, name, mesh, message):
    # one line and exit 1, as the command-line tool reports it, where a
    # traceback used to end the script
    (tmp_path / "triangle.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    result = run_script(tmp_path, name, [mesh])
    assert result.returncode == 1
    assert result.stderr == message + "\n"
    assert result.stdout == ""


def usage_case(name, args, message):
    return pytest.param(name, args, message, id=f"{name}-{'-'.join(args).lstrip('-')}")


@pytest.mark.parametrize("name, args, message", [
    # the first two cases keep their ids from when the test had no others
    pytest.param("run_ellipsoid.py", ["--max-iters", "-2"], "--max-iters: must be >= 0, got -2",
                 id="run_ellipsoid.py"),
    pytest.param("noise_stability.py", ["--max-iters", "-2"], "--max-iters: must be >= 0, got -2",
                 id="noise_stability.py"),
    usage_case("morph_demo.py", ["--frames", "1"], "--frames: must be >= 2, got 1"),
    usage_case("morph_demo.py", ["--frames", "0"], "--frames: must be >= 2, got 0"),
    usage_case("morph_demo.py", ["--landmarks", "100"],
               "--landmarks: must be in [1, 42], got 100"),
    usage_case("noise_stability.py", ["--sigmas", "0"],
               "--sigmas: must be > 0 and finite, got 0.0"),
    usage_case("noise_stability.py", ["--sigmas=-1e-3"],
               "--sigmas: must be > 0 and finite, got -0.001"),
    usage_case("run_ellipsoid.py", ["--subdivisions", "-1"],
               "--subdivisions: must be >= 0, got -1"),
    usage_case("noise_stability.py", ["--subdivisions", "-1"],
               "--subdivisions: must be >= 0, got -1"),
    usage_case("morph_demo.py", ["--subdivisions", "-1"], "--subdivisions: must be >= 0, got -1"),
    usage_case("morph_demo.py", ["--lam", "0"], "--lam: must be > 0 and finite, got 0.0"),
    usage_case("noise_stability.py", ["--seed", "-1"], "--seed: must be >= 0, got -1"),
    usage_case("run_ellipsoid.py", ["--radii", "1", "0", "1"],
               "--radii: must be > 0 and finite, got 0.0"),
    usage_case("run_ellipsoid.py", ["--radii", "1", "1", "-2"],
               "--radii: must be > 0 and finite, got -2.0"),
    usage_case("run_ellipsoid.py", ["--radii", "1", "nan", "1"],
               "--radii: must be > 0 and finite, got nan"),
    usage_case("run_ellipsoid.py", ["--radii", "inf", "1", "1"],
               "--radii: must be > 0 and finite, got inf"),
])
def test_negative_descent_cap_is_usage_error(tmp_path, name, args, message):
    # argparse's usage exit, before any mesh is parameterized or any table
    # printed: a negative cap, and every other bad argument of the scripts,
    # which used to end in a traceback or an empty run after that work
    result = run_script(tmp_path, name, ["--subdivisions", "1", *args])
    assert result.returncode == 2, result.stdout
    assert message in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "morph_out").exists()

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


@pytest.mark.parametrize("name", ["run_ellipsoid.py", "noise_stability.py"])
def test_negative_descent_cap_is_usage_error(tmp_path, name):
    # argparse's usage exit, before any mesh is built or any table printed
    result = run_script(tmp_path, name, ["--subdivisions", "1", "--max-iters", "-2"])
    assert result.returncode == 2, result.stdout
    assert "--max-iters: must be >= 0, got -2" in result.stderr
    assert result.stdout == ""

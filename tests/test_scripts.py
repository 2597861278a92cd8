"""Smoke runs of the experiment scripts on tiny meshes, each in its own
interpreter, as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, args, row, files", [
    ("run_ellipsoid.py", ["--subdivisions", "1", "--max-iters", "5"],
     "       paper", []),
    ("noise_stability.py", ["--subdivisions", "1", "--sigmas", "1e-3", "--max-iters", "5"],
     "   1e-03", []),
    ("morph_demo.py", ["--subdivisions", "1", "--frames", "2", "--out", "frames"],
     "landmark mismatch", ["frames/frame_000.obj", "frames/frame_001.obj"]),
])
def test_script_runs(tmp_path, name, args, row, files):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert any(line.startswith(row) for line in result.stdout.splitlines()), result.stdout
    for path in files:
        assert (tmp_path / path).is_file(), path

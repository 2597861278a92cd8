"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

from authalic.mesh import make_icosphere, save_mesh

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    surface = make_icosphere(2)
    save_mesh(surface.vertices, surface.faces, tmp_path / "mesh.off")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    assert "sd_over_mean" in capsys.readouterr().out

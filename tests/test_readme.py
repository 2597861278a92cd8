"""The README's library example runs as written against the current API,
its command-line flag lists match the commands, the flags it gives the
experiment scripts are theirs, and the module names it documents exist."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import click

import authalic
from authalic.cli import check, morph, param, register
from authalic.mesh import make_icosphere, save_mesh

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def documented_and_actual_options(command):
    text = README.read_text()
    # a bullet ends at the next bullet or, for the last one, at the blank
    # line that ends the list
    bullet = re.search(rf"^- `{command.name}` (.*?)^(?:- |$)", text, re.S | re.M).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", bullet))
    options = {opt for p in command.params if isinstance(p, click.Option) for opt in p.opts}
    return documented, options


def test_param_bullet_lists_every_param_option():
    documented, options = documented_and_actual_options(param)
    assert documented == options


def test_register_bullet_lists_every_register_option():
    documented, options = documented_and_actual_options(register)
    assert documented == options


def test_morph_bullet_lists_every_morph_option():
    documented, options = documented_and_actual_options(morph)
    assert documented == options


def test_check_bullet_lists_every_check_option():
    documented, options = documented_and_actual_options(check)
    assert documented == options


def script_options(name):
    """The options in a script's ``--help``, run as a user runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--help"],
                            env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(re.findall(r"--[a-z][a-z-]*", result.stdout))


def test_experiment_scripts_section_gives_each_script_its_own_flags():
    # a flag belongs to the script named last before it
    text = README.read_text()
    section = text[text.index("## Experiment scripts"):].split("\n## ")[0]
    parts = re.split(r"(\w+\.py)", section)
    documented = {}
    for name, after in zip(parts[1::2], parts[2::2]):
        documented.setdefault(name, set()).update(re.findall(r"--[a-z][a-z-]*", after))
    assert set(documented) == {p.name for p in (ROOT / "scripts").glob("*.py")}
    for name, flags in documented.items():
        assert flags <= script_options(name), name


def inline_code(text):
    """The backticked spans of `text`, outside its fenced code blocks."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return re.findall(r"`([^`\n]+)`", prose)


def documented_names():
    """(module, name) for every backticked ``module.NAME`` in the README
    and every backticked ALL-CAPS name in a module's bullet of the
    Library section's module list."""
    modules = {m.name for m in pkgutil.iter_modules(authalic.__path__)} | {"authalic"}
    text = README.read_text()
    names = set()
    for span in inline_code(text):
        dotted = re.fullmatch(r"(\w+)\.(\w+)", span)
        if dotted and dotted.group(1) in modules:
            names.add(dotted.groups())
    library = text[text.index("## Library"):].split("\n## ")[0]
    # a bullet ends at the next bullet or at the blank line after the list
    for module, bullet in re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", library, re.S | re.M):
        assert module in modules, module
        names.update((module, span) for span in inline_code(bullet)
                     if re.fullmatch(r"[A-Z][A-Z0-9_]*", span))
    return names


def test_documented_module_names_exist():
    names = documented_names()
    assert ("rgd", "GRAD_TOL") in names and ("pipeline", "METHOD_ITERS") in names
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(
        importlib.import_module("authalic" if module == "authalic" else f"authalic.{module}"),
        name))
    assert not missing

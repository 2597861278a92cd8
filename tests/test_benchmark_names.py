"""The library names the benchmark's traced run wraps stay defined.

`perfbench/spans.py` replaces each traced layer function by name in its
module's (or class's) `__dict__`; a name that moved away would make the
traced run raise `KeyError`.  The benchmark file is loaded read-only, by
path, so this check runs with the library's own tests.

The same list is the only excuse for an import a module never uses:
with no linter in the toolchain, an AST pass stands guard, and another
keeps every name one library module imports from another public (no
leading underscore).  Four more
AST passes keep the library to what its programs (the library itself, the
scripts and the benchmark) run: every top-level function or class is
named by one of them, exported or a click command; every method or
property of a library class is read as an attribute (or named in a
string, as `perfbench/spans.py` patches methods by name); every
defaulted parameter, a dataclass's public defaulted fields included, is
set by one of their calls; and every parameter defaulting to None is
left unset by one of their calls, so that no None path is one that only
tests take.  A small instrumented
run checks that the counts the traced run reads off each stage's result
still resolve.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from authalic import mesh, pipeline, registration, sphere

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_are_module_attributes(spans):
    missing = [(mod, attr) for mod, attr, _, _ in spans._PATCHES
               if attr not in importlib.import_module(f"authalic.{mod}").__dict__]
    assert not missing


def test_wrapped_methods_are_defined_on_their_classes(spans):
    missing = []
    for mod, cls_name, attr, _ in spans._METHOD_PATCHES:
        cls = getattr(importlib.import_module(f"authalic.{mod}"), cls_name)
        if attr not in cls.__dict__:
            missing.append((mod, cls_name, attr))
    assert not missing


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_are_only_wrapped_names(spans):
    wrapped = {(mod, attr) for mod, attr, _, _ in spans._PATCHES}
    unused = {(path.stem, name)
              for path in sorted((ROOT / "src" / "authalic").glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(path)}
    assert unused <= wrapped, sorted(unused - wrapped)


def _private_imports(path: Path) -> set[str]:
    """Underscore-prefixed names a module imports from an authalic module."""
    return {alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "authalic")
            for alias in node.names if alias.name.startswith("_")}


def test_no_module_imports_a_private_name_of_another():
    # a name one module shares with another is public: a private one may
    # change without notice to its own module's readers
    private = {(path.stem, name)
               for path in sorted((ROOT / "src" / "authalic").glob("*.py"))
               for name in _private_imports(path)}
    assert not private, sorted(private)


CALLERS = [path for folder in ("src/authalic", "scripts", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))]


def _is_click_command(node) -> bool:
    """A function decorated with ``@<group>.command(...)`` or ``@click.group(...)``."""
    return any(getattr(getattr(d, "func", d), "attr", None) in ("command", "group")
               for d in node.decorator_list)


def test_every_library_function_is_run_by_some_program():
    # a function or class that only tests reach is code no program runs;
    # the package exports and the click commands are the entry points
    named = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            named.add(getattr(node, "id", None) or getattr(node, "attr", None))
    exported = {a.asname or a.name
                for node in ast.walk(ast.parse((ROOT / "src/authalic/__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    unreached = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "authalic").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named | exported and not _is_click_command(node))
    assert not unreached


def _is_property(node) -> bool:
    """A method decorated with ``@property`` or ``@cached_property``."""
    return any((getattr(d, "id", None) or getattr(d, "attr", None))
               in ("property", "cached_property") for d in node.decorator_list)


def test_every_library_method_is_run_by_some_program():
    # a method or property that only tests read is code no program runs.
    # Names are all the AST knows, so a property counts as read only where
    # an attribute of its name is not called: `ratios.mean()` does not
    # read a `mean` property
    read, called = set(), set()
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                (called if id(node) in calls else read).add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unreached = sorted(
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted((ROOT / "src" / "authalic").glob("*.py"))
        for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        and node.name not in (read if _is_property(node) else read | called))
    assert not unreached, unreached


def _calls(paths) -> dict[str, list[tuple[float, set[str]]]]:
    """Per called name (a plain or attribute name; a class for its
    ``__init__``), the number of positional arguments and the keywords of
    each call.  A starred argument counts as passing every position."""
    calls: dict[str, list[tuple[float, set[str]]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((float("inf") if starred else len(node.args),
                                               {k.arg for k in node.keywords}))
    return calls


def _sets(call, position, parameter) -> bool:
    """Whether a call, as :func:`_calls` lists it, passes the parameter
    at `position` (None for a keyword-only one)."""
    positional, keywords = call
    return parameter in keywords or (position is not None and positional > position)


def _is_dataclass(node) -> bool:
    """A class decorated with ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted_parameters(path: Path):
    """(function name, called name, position, parameter, default) of
    every parameter with a default, the default as its AST node; the
    position excludes ``self`` and is None for a keyword-only parameter.
    A defaulted dataclass field is a parameter of its class's generated
    ``__init__``, at the field's position; a ``_``-prefixed field is a
    private cache and is skipped."""
    tree = ast.parse(path.read_text())
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body}
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        fields = [f for f in cls.body
                  if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        for i, f in enumerate(fields):
            if f.value is not None and not f.target.id.startswith("_"):
                yield cls.name, cls.name, i, f.target.id, f.value
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        called = owner[id(node)] if node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:], args.defaults), start=first):
            yield node.name, called, i - skip, arg.arg, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, called, None, arg.arg, default


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a default that no call in the library, the scripts or the benchmark
    # passes is a setting only tests vary; it belongs in a constant
    calls = _calls(CALLERS)
    unset = set()
    for path in sorted((ROOT / "src" / "authalic").glob("*.py")):
        for function, called, position, parameter, _ in _defaulted_parameters(path):
            if not any(_sets(call, position, parameter) for call in calls.get(called, [])):
                unset.add((path.stem, function, parameter))
    assert not unset, sorted(unset)


def test_every_none_default_is_left_unset_by_some_caller():
    # a None default that every call in the library, the scripts or the
    # benchmark overrides selects a path only tests take; the parameter
    # belongs among the required ones
    calls = _calls(CALLERS)
    always_set = set()
    for path in sorted((ROOT / "src" / "authalic").glob("*.py")):
        for function, called, position, parameter, default in _defaulted_parameters(path):
            if (isinstance(default, ast.Constant) and default.value is None
                    and all(_sets(call, position, parameter) for call in calls.get(called, []))):
                always_set.add((path.stem, function, parameter))
    assert not always_set, sorted(always_set)


# span name -> the counts the traced run reads off that layer's result
TRACED_COUNTS = {
    "pipeline.fpi": {"iterations", "status"},
    "pipeline.rgd": {"iterations", "status"},
    "pipeline.unfold": {"sweeps", "folds_before", "folds_after"},
    "registration.align": {"iterations", "status"},
    "registration.compose": {"fallbacks"},
    "linesearch.search": {"evals"},
}


def test_traced_run_reads_every_stage_result(spans):
    # the library is called through its module attributes, the names the
    # instrumentation replaces
    recorder = spans.Recorder()
    restore = spans.instrument(recorder)
    try:
        with recorder.operation("guard", "guard"):
            surface = mesh.make_icosphere(2, (1.0, 0.8, 0.6))
            result = pipeline.parameterize(surface, pipeline.ParameterizeConfig(max_iters=3))
            f = result.mapping
            rows = np.array([3, 40, 77])
            targets = sphere.project_to_manifold(f[rows] + 0.05)
            aligned = registration.solve_alignment(mesh.build_surface(f, surface.faces), f,
                                                   rows, targets, iters=2)
            registration.compose_registration(result.surface, result.surface, f, f,
                                              aligned.mapping, f)
    finally:
        restore()

    raised = [s[spans.NAME] for s in recorder.spans if s[spans.ATTRS] == {"raised": True}]
    still_open = [s[spans.NAME] for s in recorder.spans if s[spans.END] is None]
    assert not raised and not still_open, (raised, still_open)
    for name, keys in TRACED_COUNTS.items():
        attrs = [s[spans.ATTRS] for s in recorder.spans if s[spans.NAME] == name]
        assert attrs and all(a is not None and keys <= a.keys() for a in attrs), (name, attrs)
    metrics = spans.layer_metrics(recorder, "guard")
    assert metrics["fpi.iterations"] == len(result.fpi.records)
    assert metrics["registration.align_iters"] == len(aligned.records)
    # under the default method: the descent's objective is the one the
    # span wraps, and each preconditioner's factor (the descent's and the
    # alignment's) is an LU with no `linsolve.solve` system of its own
    calls = [s for s in recorder.spans if s[spans.NAME] == "rgd.value_and_gradient"]
    assert len(calls) == len(result.rgd.records) and metrics["rgd.value_and_gradient_s"] > 0
    assert metrics["linsolve.factorizations"] == metrics["linsolve.systems"] + 2

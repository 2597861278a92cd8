"""The library names the benchmark's traced run wraps stay defined.

`perfbench/spans.py` replaces each traced layer function by name in its
module's (or class's) `__dict__`; a name that moved away would make the
traced run raise `KeyError`.  The benchmark file is loaded read-only, by
path, so this check runs with the library's own tests.

The same list is the only excuse for an import a module never uses:
with no linter in the toolchain, an AST pass stands guard.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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

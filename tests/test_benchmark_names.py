"""The library names the benchmark's traced run wraps stay defined.

`perfbench/spans.py` replaces each traced layer function by name in its
module's (or class's) `__dict__`; a name that moved away would make the
traced run raise `KeyError`.  The benchmark file is loaded read-only, by
path, so this check runs with the library's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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

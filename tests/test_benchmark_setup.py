"""The benchmark's set-up builds inputs the library accepts.

`perfbench/workloads.py` and its generators, `perfbench/inputs.py`, are
loaded read-only, by path, as `tests/test_benchmark_names.py` loads
`spans.py`.  Every set-up mesh passes through `build_surface`, so a
generator that emits an invalid face list (an inconsistently oriented
hull, say) fails here, with the library's own tests, instead of in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from authalic.mesh import SimplicialSurface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # each module is in sys.modules while it runs, as an import would
    # leave it (the dataclasses of workloads.py look themselves up there);
    # workloads.py imports its generators as the top-level module `inputs`
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        for name, stem in (("inputs", "inputs"), ("perfbench_workloads", "workloads")):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, meshes", [("param-large", 1), ("corpus-small", 12),
                                          ("register-pair", 2)])
def test_each_workload_sets_up_valid_surfaces(workloads, name, meshes, seed):
    # at benchmark size: build_surface raises on any invalid set-up mesh
    state = workloads.WORKLOADS[name]().setup(seed)
    items = state if isinstance(state, (list, tuple)) else [state]
    surfaces = [s for item in items
                for s in (item if isinstance(item, tuple) else (item,))
                if isinstance(s, SimplicialSurface)]
    assert len(surfaces) == meshes

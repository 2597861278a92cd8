"""Span recorder and the per-layer instrumentation of the library.

Spans are recorded from the benchmark's own files: :func:`instrument`
replaces each layer's public function with a wrapper under the name its
caller looks it up by (``authalic.pipeline.minimize``,
``authalic.fpi.solve``, ``authalic.energy.face_geometry`` ...), so no
library file changes.  Spans stay in memory and are written out when
the run ends; :func:`layer_metrics` turns one operation's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
import types
from contextlib import contextmanager

# span record fields, stored as lists to keep the recorder cheap
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Recorder:
    """In-memory spans: name, start, end, parent index, operation id and
    a dict of counts attached at the layer boundary."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: str, name: str):
        """Root span of one benchmark operation; every span opened inside
        carries `op_id`."""
        self.op = op_id
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)
            self.op = None

    def of_op(self, op_id: str) -> list[list]:
        return [s for s in self.spans if s[OP] == op_id]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                                     "attrs": s[ATTRS]}) + "\n")


def _wrap(recorder: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, {"raised": True})
            raise
        recorder.close(index)
        if attrs is not None:
            # counts are read after the span has ended, so reading them
            # (e.g. the LU factors' sizes) is not charged to the layer
            recorder.spans[index][ATTRS] = attrs(out, args)
        return out
    return wrapper


def _splu_attrs(lu, args):
    matrix = args[0]
    return {"nnz_a": int(matrix.nnz), "nnz_lu": int(lu.L.nnz + lu.U.nnz)}


class _ModuleProxy(types.ModuleType):
    """Stands in for a module, overriding some attributes and forwarding
    the rest, so one caller's view of a third-party module can be wrapped
    without touching the module itself."""

    def __init__(self, module, **overrides):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# (module, attribute, span name, counts read from the result)
_PATCHES = [
    ("pipeline", "parameterize", "pipeline.parameterize", None),
    ("pipeline", "conformal_initial_map", "pipeline.conformal", None),
    ("pipeline", "fpi_minimize", "pipeline.fpi",
     lambda r, args: {"iterations": len(r.records), "status": r.status}),
    ("pipeline", "correct_bijectivity", "pipeline.unfold",
     lambda r, args: {"sweeps": r.sweeps, "folds_before": r.folds_before,
                         "folds_after": r.folds_after}),
    ("pipeline", "minimize", "pipeline.rgd",
     lambda r, args: {"iterations": len(r.records), "status": r.status}),
    ("rgd", "search", "linesearch.search", lambda r, args: {"evals": r.evals}),
    ("energy", "face_geometry", "energy.face_geometry", None),
    ("energy", "assemble_laplacian", "energy.assemble_laplacian", None),
    ("energy", "euclidean_gradient", "energy.euclidean_gradient", None),
    ("energy", "image_area_gradient", "energy.image_area_gradient", None),
    ("fpi", "solve", "linsolve.solve", None),
    ("unfold", "solve", "linsolve.solve", None),
    ("unfold", "assemble_mean_value", "unfold.assemble_mean_value", None),
    ("sphere", "count_folds", "sphere.count_folds", None),
    ("rgd", "count_folds", "sphere.count_folds", None),
    ("fpi", "count_folds", "sphere.count_folds", None),
    ("unfold", "count_folds", "sphere.count_folds", None),
    ("pipeline", "count_folds", "sphere.count_folds", None),
    ("registration", "solve_alignment", "registration.align",
     lambda r, args: {"iterations": len(r.records), "status": r.status}),
    ("registration", "compose_registration", "registration.compose",
     lambda r, args: {"fallbacks": r.fallback_count}),
    ("mesh", "make_icosphere", "mesh.make_icosphere", None),
    ("mesh", "build_surface", "mesh.build_surface", None),
]

# methods looked up on the objective object inside the descent loop
_METHOD_PATCHES = [
    ("rgd", "NormalizedStretchObjective", "value_and_gradient", "rgd.value_and_gradient"),
    ("registration", "RegistrationObjective", "value_and_gradient",
     "registration.value_and_gradient"),
]


def instrument(recorder: Recorder):
    """Wrap every traced layer function; returns a callable that undoes it."""
    import importlib

    undo = []

    def put(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for mod_name, attr, span, attrs in _PATCHES:
        module = importlib.import_module(f"authalic.{mod_name}")
        put(module, attr, _wrap(recorder, span, getattr(module, attr), attrs))
    for mod_name, cls_name, attr, span in _METHOD_PATCHES:
        cls = getattr(importlib.import_module(f"authalic.{mod_name}"), cls_name)
        put(cls, attr, _wrap(recorder, span, getattr(cls, attr)))
    linsolve = importlib.import_module("authalic.linsolve")
    put(linsolve, "spla", _ModuleProxy(
        linsolve.spla, splu=_wrap(recorder, "linsolve.splu", linsolve.spla.splu, _splu_attrs)))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics of one operation
# ---------------------------------------------------------------------------

def _duration(s) -> float:
    return s[END] - s[START]


def _within(spans, index_of, ancestor_name):
    """Spans that have an ancestor called `ancestor_name`."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p is not None:
            if index_of[p][NAME] == ancestor_name:
                out.append(s)
                break
            p = index_of[p][PARENT]
    return out


def layer_metrics(recorder: Recorder, op_id: str) -> dict[str, float]:
    """Per-layer metrics of one operation, from its spans.

    Times are inclusive span durations summed over the operation, except
    `rgd.records_s`: the part of each descent run spent outside its
    objective and line-search child spans, i.e. per-iteration records,
    tangent projection and stopping tests.
    """
    spans = recorder.of_op(op_id)
    everything = recorder.spans

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total(name):
        return float(sum(_duration(s) for s in named(name)))

    def attr_sum(name, key):
        return sum((s[ATTRS] or {}).get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    for stage in ("conformal", "fpi", "unfold", "rgd"):
        m[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")

    rgd_runs = named("pipeline.rgd")
    iterations = attr_sum("pipeline.rgd", "iterations")
    m["rgd.iterations"] = iterations
    m["rgd.value_and_gradient_s"] = total("rgd.value_and_gradient")
    indices = {id(s): i for i, s in enumerate(everything)}
    records = 0.0
    for run in rgd_runs:
        i = indices[id(run)]
        busy = sum(_duration(c) for c in spans
                   if c[PARENT] == i and c[NAME] in ("rgd.value_and_gradient",
                                                     "linesearch.search"))
        records += _duration(run) - busy
    m["rgd.records_s"] = records
    m["rgd.records_share"] = records / m["pipeline.rgd_s"] if rgd_runs else 0.0

    searches = named("linesearch.search")
    m["linesearch.search_s"] = total("linesearch.search")
    m["linesearch.evals_per_call"] = (attr_sum("linesearch.search", "evals") / len(searches)
                                      if searches else 0.0)

    in_param = _within(named("energy.face_geometry"), everything, "pipeline.parameterize")
    m["energy.face_geometry_per_iter"] = len(in_param) / iterations if iterations else 0.0
    m["energy.face_geometry_s"] = total("energy.face_geometry")
    m["energy.assemble_laplacian_calls"] = len(named("energy.assemble_laplacian"))
    m["energy.assemble_laplacian_s"] = total("energy.assemble_laplacian")
    m["energy.euclidean_gradient_s"] = total("energy.euclidean_gradient")
    m["energy.image_area_gradient_s"] = total("energy.image_area_gradient")

    systems = len(named("linsolve.solve"))
    factorizations = len(named("linsolve.splu"))
    m["linsolve.systems"] = systems
    m["linsolve.factorizations"] = factorizations
    m["linsolve.factorizations_per_system"] = factorizations / systems if systems else 0.0
    m["linsolve.splu_s"] = total("linsolve.splu")
    m["linsolve.solve_s"] = total("linsolve.solve")
    nnz_a = attr_sum("linsolve.splu", "nnz_a")
    m["linsolve.lu_fill_ratio"] = attr_sum("linsolve.splu", "nnz_lu") / nnz_a if nnz_a else 0.0

    m["fpi.iterations"] = attr_sum("pipeline.fpi", "iterations")
    m["fpi.increase_stops"] = sum(1 for s in named("pipeline.fpi")
                                  if (s[ATTRS] or {}).get("status") == "authalic_increased")

    # a sweep that starts at 0 folds can only be the first one of a
    # correction: later sweeps run only while folds remain
    sweeps = attr_sum("pipeline.unfold", "sweeps")
    noop = sum(1 for s in named("pipeline.unfold")
               if s[ATTRS] and s[ATTRS]["sweeps"] > 0 and s[ATTRS]["folds_before"] == 0)
    m["unfold.sweeps"] = sweeps
    m["unfold.noop_sweep_ratio"] = noop / sweeps if sweeps else 0.0
    m["unfold.assemble_mean_value_s"] = total("unfold.assemble_mean_value")

    m["sphere.count_folds_calls"] = len(named("sphere.count_folds"))
    m["sphere.count_folds_s"] = total("sphere.count_folds")

    m["registration.align_s"] = total("registration.align")
    m["registration.align_iters"] = attr_sum("registration.align", "iterations")
    m["registration.value_and_gradient_s"] = total("registration.value_and_gradient")
    m["registration.compose_s"] = total("registration.compose")
    m["registration.locate_fallbacks"] = attr_sum("registration.compose", "fallbacks")
    return m


def setup_metrics(recorder: Recorder, op_id: str) -> dict[str, float]:
    """Mesh-layer times of one set-up (inclusive: `make_icosphere`
    contains the `build_surface` call it makes)."""
    spans = recorder.of_op(op_id)
    return {
        "mesh.make_icosphere_s": float(sum(_duration(s) for s in spans
                                           if s[NAME] == "mesh.make_icosphere")),
        "mesh.build_surface_s": float(sum(_duration(s) for s in spans
                                          if s[NAME] == "mesh.build_surface")),
    }


# name -> unit of every per-layer metric the traced run reports
LAYER_UNITS = {
    "pipeline.conformal_s": "s",
    "pipeline.fpi_s": "s",
    "pipeline.unfold_s": "s",
    "pipeline.rgd_s": "s",
    "rgd.iterations": "count",
    "rgd.value_and_gradient_s": "s",
    "rgd.records_s": "s",
    "rgd.records_share": "ratio",
    "linesearch.search_s": "s",
    "linesearch.evals_per_call": "count/call",
    "energy.face_geometry_per_iter": "count/iter",
    "energy.face_geometry_s": "s",
    "energy.assemble_laplacian_calls": "count",
    "energy.assemble_laplacian_s": "s",
    "energy.euclidean_gradient_s": "s",
    "energy.image_area_gradient_s": "s",
    "linsolve.systems": "count",
    "linsolve.factorizations": "count",
    "linsolve.factorizations_per_system": "count/system",
    "linsolve.splu_s": "s",
    "linsolve.solve_s": "s",
    "linsolve.lu_fill_ratio": "ratio",
    "fpi.iterations": "count",
    "fpi.increase_stops": "count",
    "unfold.sweeps": "count",
    "unfold.noop_sweep_ratio": "ratio",
    "unfold.assemble_mean_value_s": "s",
    "sphere.count_folds_calls": "count",
    "sphere.count_folds_s": "s",
    "registration.align_s": "s",
    "registration.align_iters": "count",
    "registration.value_and_gradient_s": "s",
    "registration.compose_s": "s",
    "registration.locate_fallbacks": "count",
    "mesh.make_icosphere_s": "s",
    "mesh.build_surface_s": "s",
    "trace.overhead_ratio": "ratio",
}

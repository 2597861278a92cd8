"""End-to-end parameterization pipeline and record/report plumbing.

Pipeline order: a start map, a burst of fixed-point iterations (FPI,
stopped at the first energy increase), fold correction, Riemannian
descent, fold correction again.  The start is the first fold-free one
of the conformal start (:func:`~authalic.fpi.conformal_initial_map`) and
the radial start (:func:`~authalic.fpi.radial_initial_map`), tried in
the method's order (:data:`START_ORDER`), and the conformal one when
both fold.  Two methods share that order
(:attr:`ParameterizeConfig.method`):

- ``"lbfgs"``, the default: the radial start first, no FPI iterations,
  and 20 iterations of the preconditioned Riemannian L-BFGS direction
  on the normalized stretch energy measured with spherical image areas;
  the descent converges from any fold-free start, so the conformal
  solve runs only where the radial start folds;
- ``"paper"``: the conformal start first, 10 FPI iterations, then 100
  of the paper's steepest descent on the chordal normalized stretch
  energy; ``ParameterizeConfig(method="paper")`` is the paper's run.

The method picks the start order, the iteration caps
(:data:`METHOD_ITERS`), the objective and the direction together; only
the descent cap can be overridden, as the run's budget.  The radial
start follows the input's frame: under ``"lbfgs"`` a rotated input gives
a rotated output map, of the same quality.  The conformal start depends
only on lengths and areas, so it does not rotate with the input.

One reference cotangent Laplacian is assembled per run, for the
conformal start and the L-BFGS preconditioner.  The input's face list
must be consistently oriented, in either sense
(:func:`~authalic.mesh.check_orientation`).  The input mesh is
always rescaled to total area 4*pi first: the reported energies are
then comparable across models, and FPI's stopping tests, which read
absolute energies, take the same decisions at every input scale (the
descent's objectives are invariant under the rescaling anyway).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import energy as en
from .fpi import (conformal_initial_map, fpi_minimize, radial_initial_map,
                  reference_laplacian)
from .mesh import SimplicialSurface, check_orientation, normalize_area
from .rgd import IterationRecord, MinimizeResult, minimize
from .sphere import count_folds
from .unfold import CorrectionResult, correct_bijectivity

CSV_HEADER = "iter,E_S,E_A,E,sd_over_mean,grad_norm,alpha,folds,elapsed_s"
METHOD_ITERS = {"lbfgs": (0, 20), "paper": (10, 100)}
"""(FPI, descent) iteration caps of each method; the descent cap is the
default of :attr:`ParameterizeConfig.max_iters`."""
METHODS = tuple(METHOD_ITERS)
START_ORDER = {"lbfgs": ("radial", "conformal"), "paper": ("conformal", "radial")}
"""The order in which each method tries the start maps: the first
fold-free one is taken, and the conformal one when both fold."""


@dataclass(frozen=True)
class ParameterizeConfig:
    """Settings of :func:`parameterize`: the method (see
    :mod:`authalic.pipeline`), the descent iteration cap (unset, the
    method's own, :data:`METHOD_ITERS`; it reads resolved after
    construction) and the seed of the conformal start's puncture.  An
    unknown `method` or a negative `max_iters` raises ``ValueError`` here,
    before any work is done.
    The method's fixed steps and numbers are not settings: fold
    correction always runs after FPI (a fold-free start that FPI left
    unchanged counts as corrected) and after the descent, and the FPI cap
    (:data:`METHOD_ITERS`), the disk radius of the hemisphere solves
    (:data:`authalic.fpi.RADIUS`) and the line search's
    sufficient-decrease constant and step cap
    (:data:`authalic.linesearch.C1`, :data:`authalic.linesearch.ALPHA_MAX`)
    are module constants."""

    method: str = "lbfgs"
    max_iters: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.max_iters is None:
            object.__setattr__(self, "max_iters", METHOD_ITERS[self.method][1])
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class ParameterizeResult:
    """The final map and its rescaled surface.  `start` names the start
    map, ``"conformal"`` or ``"radial"``: the first fold-free one in the
    method's :data:`START_ORDER`, else the conformal one.  `fpi` and
    `rgd` are the warm-up's and the descent's own results; `records`
    runs through both with one iteration numbering and one clock.
    `corrections` holds the fold corrections ``"after_fpi"`` and
    ``"after_rgd"``."""

    mapping: np.ndarray
    surface: SimplicialSurface
    start: str
    records: list[IterationRecord]
    fpi: MinimizeResult
    rgd: MinimizeResult
    corrections: dict[str, CorrectionResult]
    seconds: float

    @property
    def summary(self) -> dict:
        # the reported distortion energy is the area-matched one (scale
        # free and nonnegative); the raw stretch-minus-area value is in
        # the records
        geom = en.face_geometry(self.surface, self.mapping)
        return {
            "sd_over_mean": geom.sd_over_mean,
            "authalic": geom.area_matched_authalic,
            "seconds": self.seconds,
            "folds": geom.folds,
            "degree": geom.degree,
        }


def parameterize(surface: SimplicialSurface,
                 config: ParameterizeConfig | None = None) -> ParameterizeResult:
    """Compute a spherical area-preserving parameterization of `surface`.

    `surface` is a valid :class:`~authalic.mesh.SimplicialSurface`; a face
    list in which two faces hold the same directed side (inconsistent
    orientation) raises :class:`~authalic.errors.MeshTopologyError`
    naming both faces, before any work.  A wholly reversed face list is
    valid: the start maps are mirrored to match it.
    """
    check_orientation(surface)
    config = config or ParameterizeConfig()
    surface = normalize_area(surface)
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()

    lap = reference_laplacian(surface)
    starts = {"conformal": lambda: conformal_initial_map(surface, rng=rng, laplacian=lap),
              "radial": lambda: radial_initial_map(surface)}
    # the first fold-free start in the method's order, else the conformal one
    tried = {}
    for start_name in START_ORDER[config.method]:
        f = starts[start_name]()
        tried[start_name] = f, count_folds(surface, f)
        if not tried[start_name][1]:
            break
    else:
        start_name = "conformal"
    f, start_folds = tried[start_name]
    records: list[IterationRecord] = []

    def append(stage_records, began):
        # one numbering and one clock for the whole run: the stage's own
        # iteration count and time both start over at its first record
        offset = len(records)
        records.extend(replace(r, iteration=offset + r.iteration,
                               elapsed_s=began + r.elapsed_s) for r in stage_records)

    began = time.perf_counter() - start
    fpi = fpi_minimize(surface, f, max_iters=METHOD_ITERS[config.method][0],
                       stop_on_increase=True)
    append(fpi.records, began)
    if fpi.records or start_folds:
        after_fpi = correct_bijectivity(surface, fpi.mapping)
    else:
        # FPI ran no iteration and the start is fold-free: the correction
        # would count its folds again and return it as given
        after_fpi = CorrectionResult(mapping=fpi.mapping, folds_before=0, folds_after=0,
                                     sweeps=0)

    began = time.perf_counter() - start
    rgd = minimize(surface, after_fpi.mapping, max_iters=config.max_iters,
                   laplacian=lap if config.method == "lbfgs" else None)
    append(rgd.records, began)
    after_rgd = correct_bijectivity(surface, rgd.mapping)

    return ParameterizeResult(
        mapping=after_rgd.mapping, surface=surface, start=start_name, records=records,
        fpi=fpi, rgd=rgd,
        corrections={"after_fpi": after_fpi, "after_rgd": after_rgd},
        seconds=time.perf_counter() - start,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.12g}"


def write_records_csv(path, records) -> None:
    """Write iteration records with the fixed column schema."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.iteration), _fmt(r.stretch), _fmt(r.authalic), _fmt(r.normalized),
            _fmt(r.sd_over_mean), _fmt(r.grad_norm), _fmt(r.alpha),
            str(r.folds), f"{r.elapsed_s:.3f}",
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

"""End-to-end parameterization pipeline and record/report plumbing.

Pipeline order: conformal start, a short burst of fixed-point iterations
(stopped at the first energy increase), fold correction,
gradient descent, fold correction again.  The input mesh is always
rescaled to total area 4*pi first: the reported energies are then
comparable across models, and FPI's stopping tests, which read absolute
energies, take the same decisions at every input scale (the descent's
objective is invariant under the rescaling anyway).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import energy as en
from .fpi import conformal_initial_map, fpi_minimize
from .linesearch import STRATEGIES
from .mesh import SimplicialSurface, normalize_area
from .rgd import IterationRecord, MinimizeResult, minimize
# the summary reads the fold count from the face geometry; count_folds stays
# importable here because perfbench/spans.py wraps it under this name
from .sphere import count_folds  # noqa: F401
from .unfold import CorrectionResult, correct_bijectivity

CSV_HEADER = "iter,E_S,E_A,E,sd_over_mean,grad_norm,alpha,folds,elapsed_s"


@dataclass(frozen=True)
class ParameterizeConfig:
    """Settings of :func:`parameterize`: the FPI and descent iteration
    caps, the line search and the seed of the conformal start's puncture.
    An unknown `strategy` raises ``ValueError`` here, before any work is
    done.  The method's fixed steps and numbers are not settings: fold
    correction always runs after FPI and after the descent, and the disk
    radius of the hemisphere solves (:data:`authalic.fpi.RADIUS`) and the
    line search's sufficient-decrease constant and step cap
    (:data:`authalic.linesearch.C1`, :data:`authalic.linesearch.ALPHA_MAX`)
    are module constants."""

    fpi_iters: int = 10
    max_iters: int = 100
    strategy: str = "interpolant"
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, "
                             f"expected one of {STRATEGIES}")


@dataclass(frozen=True)
class ParameterizeResult:
    """The final map and its rescaled surface.  `fpi` and `rgd` are the
    warm-up's and the descent's own results; `records` runs through both
    with one iteration numbering and one clock.  `corrections` holds the
    fold corrections ``"after_fpi"`` and ``"after_rgd"``."""

    mapping: np.ndarray
    surface: SimplicialSurface
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
        }


def parameterize(surface: SimplicialSurface,
                 config: ParameterizeConfig | None = None) -> ParameterizeResult:
    """Compute a spherical area-preserving parameterization of `surface`."""
    config = config or ParameterizeConfig()
    surface = normalize_area(surface)
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()

    f = conformal_initial_map(surface, rng=rng)
    records: list[IterationRecord] = []

    def append(stage_records, began):
        # one numbering and one clock for the whole run: the stage's own
        # iteration count and time both start over at its first record
        offset = len(records)
        records.extend(replace(r, iteration=offset + r.iteration,
                               elapsed_s=began + r.elapsed_s) for r in stage_records)

    began = time.perf_counter() - start
    fpi = fpi_minimize(surface, f, max_iters=config.fpi_iters, stop_on_increase=True)
    append(fpi.records, began)
    after_fpi = correct_bijectivity(surface, fpi.mapping)

    began = time.perf_counter() - start
    rgd = minimize(surface, after_fpi.mapping, max_iters=config.max_iters,
                   strategy=config.strategy)
    append(rgd.records, began)
    after_rgd = correct_bijectivity(surface, rgd.mapping)

    return ParameterizeResult(
        mapping=after_rgd.mapping, surface=surface, records=records, fpi=fpi, rgd=rgd,
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

"""End-to-end parameterization pipeline and record/report plumbing.

Pipeline order: conformal start, a short burst of fixed-point iterations
(stopped at the first authalic-energy increase), fold correction,
gradient descent, fold correction again.  The input mesh is always
rescaled to total area 4*pi first: the reported energies are then
comparable across models, and FPI's stopping tests, which read absolute
energies, take the same decisions at every input scale (the descent's
objective is invariant under the rescaling anyway).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import energy as en
from .diagnostics import geometry_ratio_stats
from .fpi import conformal_initial_map, fpi_minimize
from .linesearch import STRATEGIES
from .mesh import SPHERE_AREA, SimplicialSurface, normalize_area
from .rgd import IterationRecord, MinimizeResult, minimize
# the summary reads the fold count from the face geometry; count_folds stays
# importable here because perfbench/spans.py wraps it under this name
from .sphere import count_folds  # noqa: F401
from .unfold import CorrectionResult, correct_bijectivity

CSV_HEADER = "iter,E_S,E_A,E,sd_over_mean,grad_norm,alpha,folds,elapsed_s"
CORRECTIONS = ("off", "fpi", "rgd", "both")


@dataclass(frozen=True)
class ParameterizeConfig:
    """Settings of :func:`parameterize`.  `correct` picks the fold
    corrections (after FPI, after RGD, both or off); an unknown `correct`
    or `strategy` raises ``ValueError`` here, before any work is done.
    The method's fixed numbers are module constants: the disk radius of
    the hemisphere solves (:data:`authalic.fpi.RADIUS`) and the line
    search's sufficient-decrease constant and step cap
    (:data:`authalic.linesearch.C1`, :data:`authalic.linesearch.ALPHA_MAX`)."""

    fpi_iters: int = 10
    max_iters: int = 100
    strategy: str = "interpolant"
    correct: str = "both"
    seed: int = 0

    def __post_init__(self):
        for name, allowed in (("strategy", STRATEGIES), ("correct", CORRECTIONS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, "
                                 f"expected one of {allowed}")


@dataclass(frozen=True)
class ParameterizeResult:
    mapping: np.ndarray
    surface: SimplicialSurface
    records: list[IterationRecord]
    fpi_status: str
    fpi_iterations: int
    rgd: MinimizeResult
    corrections: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def summary(self) -> dict:
        # the reported distortion energy is the area-matched one (scale
        # free and nonnegative); the raw stretch-minus-area value is in
        # the records
        geom = en.face_geometry(self.surface, self.mapping, check=False)
        report = en.geometry_report(self.surface, geom)
        return {
            "sd_over_mean": geometry_ratio_stats(geom).sd_over_mean,
            "authalic": en.area_matched_authalic(report),
            "seconds": self.seconds,
            "folds": geom.folds,
        }


def parameterize(surface: SimplicialSurface,
                 config: ParameterizeConfig | None = None) -> ParameterizeResult:
    """Compute a spherical area-preserving parameterization of `surface`."""
    config = config or ParameterizeConfig()
    surface = normalize_area(surface, SPHERE_AREA)
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()

    f = conformal_initial_map(surface, rng=rng)
    records: list[IterationRecord] = []
    fpi_status = "skipped"
    fpi_iterations = 0
    corrections: dict[str, CorrectionResult] = {}

    def append(stage_records, began):
        # one numbering and one clock for the whole run: the stage's own
        # iteration count and time both start over at its first record
        offset = len(records)
        records.extend(replace(r, iteration=offset + r.iteration,
                               elapsed_s=began + r.elapsed_s) for r in stage_records)

    if config.fpi_iters > 0:
        began = time.perf_counter() - start
        fpi = fpi_minimize(surface, f, max_iters=config.fpi_iters, stop_on_increase=True)
        f = fpi.mapping
        fpi_status = fpi.status
        fpi_iterations = len(fpi.records)
        append(fpi.records, began)

    if config.correct in ("fpi", "both"):
        corr = correct_bijectivity(surface, f)
        corrections["after_fpi"] = corr
        f = corr.mapping

    began = time.perf_counter() - start
    rgd = minimize(surface, f, max_iters=config.max_iters, strategy=config.strategy)
    f = rgd.mapping
    append(rgd.records, began)

    if config.correct in ("rgd", "both"):
        corr = correct_bijectivity(surface, f)
        corrections["after_rgd"] = corr
        f = corr.mapping

    return ParameterizeResult(
        mapping=f, surface=surface, records=records,
        fpi_status=fpi_status, fpi_iterations=fpi_iterations,
        rgd=rgd, corrections=corrections,
        seconds=time.perf_counter() - start,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.12g}"


def format_records_csv(records) -> str:
    """Render iteration records with the fixed column schema."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.iteration), _fmt(r.stretch), _fmt(r.authalic), _fmt(r.normalized),
            _fmt(r.sd_over_mean), _fmt(r.grad_norm), _fmt(r.alpha),
            str(r.folds), f"{r.elapsed_s:.3f}",
        ]))
    return "\n".join(lines) + "\n"


def write_records_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(format_records_csv(records))

"""End-to-end parameterization pipeline and record/report plumbing.

Pipeline order: conformal start, a short burst of fixed-point iterations
(stopped at the first authalic-energy increase), fold correction,
gradient descent, fold correction again.  The input mesh is rescaled to
total area 4*pi beforehand so the reported energies are comparable
across models (the objective itself is invariant under that rescaling).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import energy as en
from .diagnostics import geometry_ratio_stats
from .fpi import conformal_initial_map, fpi_minimize
from .mesh import SPHERE_AREA, SimplicialSurface, normalize_area
from .rgd import IterationRecord, MinimizeResult, SolverConfig, minimize
from .sphere import count_folds
from .unfold import CorrectionResult, correct_bijectivity

CSV_HEADER = "iter,E_S,E_A,E,sd_over_mean,grad_norm,alpha,folds,elapsed_s"


@dataclass(frozen=True)
class ParameterizeConfig:
    fpi_iters: int = 10
    max_iters: int = 100
    strategy: str = "interpolant"
    radius: float = 1.2
    c1: float = 1e-4
    alpha_max: float = 1.0
    epsilon: float = 1e-6
    correct: str = "both"  # off | fpi | rgd | both
    seed: int = 0
    normalize: bool = True


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
            "folds": count_folds(self.surface, self.mapping),
        }


def parameterize(surface: SimplicialSurface,
                 config: ParameterizeConfig | None = None) -> ParameterizeResult:
    """Compute a spherical area-preserving parameterization of `surface`."""
    config = config or ParameterizeConfig()
    if config.normalize:
        surface = normalize_area(surface, SPHERE_AREA)
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()

    f = conformal_initial_map(surface, rng=rng)
    records: list[IterationRecord] = []
    fpi_status = "skipped"
    fpi_iterations = 0
    corrections: dict[str, CorrectionResult] = {}

    if config.fpi_iters > 0:
        fpi = fpi_minimize(surface, f, epsilon=config.epsilon, r=config.radius,
                           max_iters=config.fpi_iters, stop_on_increase=True)
        f = fpi.mapping
        fpi_status = fpi.status
        fpi_iterations = len(fpi.records)
        records.extend(fpi.records)

    if config.correct in ("fpi", "both"):
        corr = correct_bijectivity(surface, f, r=config.radius)
        corrections["after_fpi"] = corr
        f = corr.mapping

    solver = SolverConfig(max_iters=config.max_iters, strategy=config.strategy,
                          c1=config.c1, alpha_max=config.alpha_max)
    rgd = minimize(surface, f, solver)
    f = rgd.mapping
    offset = len(records)
    records.extend(replace(r, iteration=offset + r.iteration) for r in rgd.records)

    if config.correct in ("rgd", "both"):
        corr = correct_bijectivity(surface, f, r=config.radius)
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

"""Riemannian gradient descent on the power manifold of unit spheres.

Each iteration projects the ambient gradient of the objective to the
tangent space, takes the anti-gradient direction, picks a step size by
line search, and retracts.  The default objective is the normalized
stretch energy; alternative objectives (e.g. the landmark registration
energy) plug in through the same interface, and every objective stops
by the same rules (see :func:`minimize`): the stall test reads the
decrease of the objective being minimized, so no caller needs its own.

Each accepted iterate gets one per-face geometry pass and one energy
report: the objectives keep the :class:`~authalic.energy.FaceGeometry`
of the last mapping they evaluated and its report, so those computed for
the accepted line-search trial also give the iteration record (energies,
SD/Mean and fold count) and the next value and gradient.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .diagnostics import geometry_ratio_stats
from .linesearch import ALPHA_MAX, phi_derivative_at_zero, search
# the records read the fold count from the face geometry; count_folds stays
# importable here because perfbench/spans.py wraps it under this name
from .sphere import count_folds, project_tangent  # noqa: F401

logger = logging.getLogger(__name__)


GRAD_TOL = 1e-6
"""The gradient test: stop once |grad| <= GRAD_TOL * sqrt(n) for n vertices."""
ENERGY_TOL = 1e-12
"""The stall test: stop after :data:`STALL_ITERS` accepted steps in a row
that each lower the objective by less than this."""
STALL_ITERS = 3


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    stretch: float
    authalic: float
    normalized: float
    sd_over_mean: float
    grad_norm: float | None
    alpha: float | None
    folds: int
    elapsed_s: float


@dataclass(frozen=True)
class MinimizeResult:
    mapping: np.ndarray
    records: list[IterationRecord]
    status: str
    message: str = ""


class GeometryMemo:
    """The face geometry of the last mapping an objective evaluated, and
    its energy report.

    One entry, keyed by the array object: a mapping must not be changed
    in place between evaluations (the descent driver and the line search
    only ever make new arrays).  The geometry is stored unchecked;
    callers that need a nondegenerate image run
    :func:`~authalic.energy.check_geometry` on it.  The report is made
    on first use.
    """

    def __init__(self, surface):
        self.surface = surface
        self._mapping = None
        self._geometry = None
        self._report = None

    def geometry(self, f: np.ndarray) -> en.FaceGeometry:
        if f is not self._mapping:
            self._geometry = en.face_geometry(self.surface, f, check=False)
            self._report = None
            self._mapping = f
        return self._geometry

    def report(self, f: np.ndarray) -> en.EnergyReport:
        geom = self.geometry(f)
        if self._report is None:
            self._report = en.geometry_report(self.surface, geom)
        return self._report


class NormalizedStretchObjective(GeometryMemo):
    """Objective wrapper: normalized stretch energy and its gradient."""

    def value(self, f: np.ndarray) -> float:
        return self.report(f).normalized

    def value_and_gradient(self, f: np.ndarray):
        geom = self.geometry(f)
        en.check_geometry(geom)
        report = self.report(f)
        return report.normalized, en.normalized_gradient(self.surface, geom, report)


def make_record(geom: en.FaceGeometry, report: en.EnergyReport, iteration: int,
                grad_norm: float | None, alpha: float | None,
                elapsed_s: float) -> IterationRecord:
    """Iteration record of the mapping whose face geometry is `geom` and
    whose energy report is `report`: the energies, SD/Mean and fold count
    all come from that one pass."""
    return IterationRecord(
        iteration=iteration,
        stretch=report.stretch,
        authalic=report.authalic,
        normalized=report.normalized,
        sd_over_mean=geometry_ratio_stats(geom).sd_over_mean,
        grad_norm=grad_norm,
        alpha=alpha,
        folds=geom.folds,
        elapsed_s=elapsed_s,
    )


def minimize(surface, f0: np.ndarray, *, objective=None, max_iters: int = 100,
             strategy: str = "interpolant") -> MinimizeResult:
    """Run gradient descent from `f0` until a stopping rule fires.

    The rules are the same for every objective, and each reads values the
    loop already holds: the Riemannian gradient norm falls to
    :data:`GRAD_TOL` * sqrt(n) (`grad_converged`); :data:`STALL_ITERS`
    accepted steps in a row each lower the objective by less than
    :data:`ENERGY_TOL` (`energy_stalled`); `max_iters` steps are taken
    (`max_iters`); the line search finds no step (`line_search_failed`).
    On line-search failure the best (last accepted) iterate is returned,
    not an exception.  `strategy` goes to
    :func:`~authalic.linesearch.search`.

    Every accepted iteration is logged at DEBUG level on this module's
    logger.

    Parameters
    ----------
    objective : GeometryMemo, optional
        A :class:`GeometryMemo` with `value(f)` and
        `value_and_gradient(f)` -> (value, ambient gradient); defaults to
        the normalized stretch energy on `surface`.  The records reuse
        the geometry and report it computed for the accepted trial.
    """
    objective = objective or NormalizedStretchObjective(surface)
    f = np.asarray(f0, dtype=np.float64).copy()
    grad_tol = GRAD_TOL * np.sqrt(f.shape[0])

    records: list[IterationRecord] = []
    start = time.perf_counter()
    prev_value = None
    stall_count = 0

    for k in range(1, max_iters + 1):
        value, egrad = objective.value_and_gradient(f)
        rgrad = project_tangent(f, egrad)
        # einsum, not np.linalg.norm: a BLAS dot can wait milliseconds for
        # its worker threads, more than the rest of the record costs
        grad_norm = float(np.sqrt(np.einsum("ij,ij->", rgrad, rgrad)))
        if grad_norm <= grad_tol:
            return MinimizeResult(f, records, "grad_converged",
                                  f"|grad| = {grad_norm:.3e} <= {grad_tol:.3e}")
        d = -rgrad
        dphi0 = phi_derivative_at_zero(f, d, egrad)
        if prev_value is None or not np.isfinite(dphi0) or dphi0 >= 0:
            alpha0 = ALPHA_MAX
        else:
            alpha0 = min(ALPHA_MAX, 2.0 * (value - prev_value) / dphi0)
            if not np.isfinite(alpha0) or alpha0 <= 0:
                alpha0 = ALPHA_MAX
        ls = search(f, d, energy=objective.value, phi0=value, dphi0=dphi0,
                    strategy=strategy, alpha0=alpha0)
        if not ls.ok:
            return MinimizeResult(f, records, "line_search_failed", ls.message)

        f = ls.mapping
        prev_value = value
        record = make_record(objective.geometry(f), objective.report(f), k, grad_norm,
                             ls.alpha, time.perf_counter() - start)
        records.append(record)
        logger.debug("iter %5d  E = %.9e  E_A = %.3e  |grad| = %.3e  alpha = %.3e",
                     k, ls.energy, record.authalic, grad_norm, ls.alpha)

        stall_count = stall_count + 1 if value - ls.energy < ENERGY_TOL else 0
        if stall_count >= STALL_ITERS:
            return MinimizeResult(f, records, "energy_stalled",
                                  f"objective decrease < {ENERGY_TOL:g} "
                                  f"for {STALL_ITERS} iterations")

    return MinimizeResult(f, records, "max_iters")

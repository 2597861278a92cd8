"""Riemannian gradient descent on the power manifold of unit spheres.

Each iteration projects the ambient gradient of the objective to the
tangent space, takes a descent direction, picks a step size by line
search, and retracts.  :func:`minimize` runs the objective, the cap and
the direction its caller hands it: the anti-gradient (the paper's
method) or, given the checked solve :func:`preconditioner` returns, a
preconditioned Riemannian L-BFGS direction (:class:`LBFGS`; Huang,
Gallivan and Absil, SIAM J. Optim. 2015).  The objectives are the
normalized stretch energy with chordal or spherical image areas
(:class:`NormalizedStretchObjective`) and others through the same
interface, such as the landmark registration energy; the records
always carry the chordal energies of the geometry.

Each accepted iterate gets one per-face geometry pass: the objectives
keep the :class:`~authalic.energy.FaceGeometry` of the last mapping they
evaluated, and the energies, SD/Mean and fold count are read off it
(each summed once), so the pass made for the accepted line-search trial
also gives the iteration record and the next value and gradient.  One
geometry is alive at a time: the memo releases the last one before it
measures the next, and checks each map it measures.  A geometry keeps
three per-face rows and its kernels work through fixed-size face blocks
(:data:`~authalic.energy.FACE_BLOCK`), so past K's factor the descent
holds the L-BFGS pairs, a few (n, 3) arrays, three (m,) rows and one
block's temporaries.

The power manifold makes every step row-wise work on (n, 3) arrays, and
:func:`minimize` keeps them all coordinate-major (Fortran order).  It
copies `f0` once with ``order="F"``; numpy's elementwise operations
carry that layout through the retraction, the projections, the line
search and the objectives; :func:`~authalic.mesh.scatter_corners`
returns it; and the preconditioner permutes through the transpose.  A
row dot then runs on three contiguous coordinates, and SuperLU reads and
returns coordinate-major blocks.  There is one layout and no per-call
conversion.
"""

from __future__ import annotations

import logging
import numbers
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import energy as en
from .errors import SolveError
from .linesearch import ALPHA_MAX, phi_derivative_at_zero, search
from .linsolve import factorize
# the records read the fold count from the face geometry; count_folds stays
# importable here because perfbench/spans.py wraps it under this name
from .sphere import count_folds, project_tangent, row_dots  # noqa: F401

logger = logging.getLogger(__name__)


GRAD_TOL = 1e-6
"""The gradient test: stop once |grad| <= GRAD_TOL * sqrt(n) for n vertices,
or once it falls to :data:`GRAD_RTOL` times the first iterate's.  The
sqrt(n) term is the roundoff floor: at a critical start, such as an
icosphere's own vertices, the first gradient is roundoff and the
relative term alone would send the line search a non-descent direction."""
GRAD_RTOL = 1e-3
"""The gradient test's scale-free floor, relative to the first gradient."""
PRECONDITIONER_SHIFT = 3.0
"""epsilon of the preconditioner K = L + epsilon (|M| / n) I; at 0.01 and
below the descent stalls."""
LBFGS_MEMORY = 5
"""Pairs the L-BFGS direction keeps."""
CURVATURE_TOL = 1e-12
"""A pair is kept only when <s, y> > CURVATURE_TOL |s| |y|."""


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
    """The result of every iterative stage: the descent, the FPI warm-up
    and the landmark alignment.  `records` holds one record per iteration
    run, `status` names the stop and `message` gives its reason where
    there is one.  A descent (:func:`minimize`) ends ``"grad_converged"``,
    ``"max_iters"`` or ``"line_search_failed"``; FPI has its own stops
    (:func:`~authalic.fpi.fpi_minimize`).  On ``"authalic_increased"`` and
    ``"stretch_increased"`` the last record is the rejected iterate and
    `mapping` the one before it.  `mapping` is (n, 3) in either memory
    order: a descent returns it coordinate-major."""

    mapping: np.ndarray
    records: list[IterationRecord]
    status: str
    message: str = ""


class GeometryMemo:
    """The face geometry of the last mapping an objective evaluated.

    One entry, keyed by the array object: a mapping must not be changed
    in place between evaluations (the descent driver and the line search
    only ever make new arrays).  The old geometry is released before the
    next one is measured, so the memo never holds two.  It runs
    :func:`~authalic.energy.check_geometry` on each map it measures and
    keeps no degenerate one, so a value and a gradient reject alike.
    """

    def __init__(self, surface):
        self.surface = surface
        self._mapping = None
        self._geometry = None

    def geometry(self, f: np.ndarray) -> en.FaceGeometry:
        if f is not self._mapping:
            self._mapping = self._geometry = None
            geom = en.face_geometry(self.surface, f)
            en.check_geometry(geom)
            self._mapping, self._geometry = f, geom
        return self._geometry


class NormalizedStretchObjective(GeometryMemo):
    """Objective wrapper: normalized stretch energy and its gradient.

    The image area of a face is its chordal triangle's (the paper's
    energy, `normalized`) or, with `spherical`, its geodesic triangle's
    on the sphere (`spherical_normalized`).  Spherical areas sum to 4 pi
    for every degree-1 map, so that energy cannot fall by shrinking the
    total image area, which the chordal one can on coarse meshes.  Both
    calls raise on a degenerate face (:class:`GeometryMemo`).
    """

    def __init__(self, surface, spherical: bool = False):
        super().__init__(surface)
        self.spherical = spherical

    def value(self, f: np.ndarray) -> float:
        geom = self.geometry(f)
        return geom.spherical_normalized if self.spherical else geom.normalized

    def value_and_gradient(self, f: np.ndarray):
        geom = self.geometry(f)
        if self.spherical:
            return geom.spherical_normalized, en.spherical_gradient(self.surface, geom)
        return geom.normalized, en.normalized_gradient(self.surface, geom)


def preconditioner(surface, laplacian: sp.spmatrix):
    """K^-1 as a checked solve, for K = L + :data:`PRECONDITIONER_SHIFT`
    (|M| / n) I with L the symmetric positive semidefinite `laplacian`:
    the reference cotangent Laplacian, plus the landmark pull's diagonal
    for the alignment.

    K is factored once, in the surface's dissection order, through
    :func:`~authalic.linsolve.factorize`, so every application meets the
    residual contract; K is symmetric positive definite, so each
    application also checks <g, K^-1 g> > 0 and raises
    :class:`~authalic.errors.SolveError` otherwise.  The returned
    function maps an (n, 3) array g to K^-1 g.
    """
    n = surface.n_vertices
    order = surface.dissection_order
    shift = PRECONDITIONER_SHIFT * surface.total_area / n
    k = sp.csr_matrix(laplacian + shift * sp.eye(n, format="csr"))[order][:, order]
    solve_k = factorize(k)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)

    def apply(g: np.ndarray) -> np.ndarray:
        # permuted through the transpose: each coordinate of a
        # coordinate-major g is one contiguous take, and SuperLU reads and
        # returns coordinate-major blocks
        x = np.take(solve_k(np.take(g.T, order, axis=1).T).T, inverse, axis=1).T
        curvature = _inner(g, x)
        if not curvature > 0:
            raise SolveError(f"preconditioner is not positive definite "
                             f"(<g, K^-1 g> = {curvature:.3e})")
        return x

    return apply


class LBFGS:
    """Preconditioned Riemannian L-BFGS directions on the power manifold.

    `pairs` is a deque of at most :data:`LBFGS_MEMORY` triples
    (s, y, 1 / <s, y>), oldest first, with s = P_x(x_k - x_{k-1}) and
    y = g_k - P_x(g_{k-1}) (g the Riemannian gradient, P_x the tangent
    projection at the current x).  A pair is appended only when
    <s, y> > :data:`CURVATURE_TOL` |s| |y|, and the deque then drops its
    oldest.  Each call re-projects the held pairs onto the current
    tangent space in place and runs the two-loop recursion (Nocedal and
    Wright, Alg. 7.4) with the initial inverse Hessian
    H_0 = P_x K^-1 P_x.  A direction that is not a descent direction is
    replaced by -P_x K^-1 g and the deque is cleared.
    """

    def __init__(self, precondition):
        self.precondition = precondition
        self.pairs = deque(maxlen=LBFGS_MEMORY)
        self._last = None  # (x, g) of the previous call

    def _remember(self, f: np.ndarray, g: np.ndarray) -> None:
        """Form the pair from the previous call's (x, g) and append it if
        its curvature passes."""
        x_prev, g_prev = self._last
        s = project_tangent(f, f - x_prev)
        y = g - project_tangent(f, g_prev)
        sy = _inner(s, y)
        if sy > CURVATURE_TOL * np.sqrt(_inner(s, s) * _inner(y, y)):
            self.pairs.append((s, y, 1.0 / sy))

    def _preconditioned(self, f: np.ndarray, v: np.ndarray) -> np.ndarray:
        """P_f K^-1 v, in a new array."""
        x = self.precondition(v)
        _project_in_place(f, x)
        return x

    def direction(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The descent direction at `f`, whose Riemannian gradient is `g`."""
        if self._last is not None:
            self._remember(f, g)
        self._last = (f, g)
        for s, y, _ in self.pairs:
            _project_in_place(f, s)
            _project_in_place(f, y)
        q = g.copy(order="K")
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alphas.append(rho * _inner(s, q))
            q -= alphas[-1] * y
        r = self._preconditioned(f, q)
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            r += (alpha - rho * _inner(y, r)) * s
        _project_in_place(f, r)
        if not _inner(r, g) > 0:
            self.pairs.clear()
            r = self._preconditioned(f, g)
        return np.negative(r, out=r)


def _project_in_place(f: np.ndarray, v: np.ndarray) -> None:
    """v <- P_f v, row by row."""
    v -= row_dots(f, v)[:, None] * f


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product; einsum, not a BLAS dot, which can wait
    milliseconds for its worker threads."""
    return float(np.einsum("ij,ij->", a, b))


def make_record(geom: en.FaceGeometry, iteration: int, grad_norm: float | None,
                alpha: float | None, elapsed_s: float) -> IterationRecord:
    """Iteration record of the mapping whose face geometry is `geom`: the
    energies, SD/Mean and fold count all come from that one pass."""
    return IterationRecord(
        iteration=iteration,
        stretch=geom.stretch,
        authalic=geom.authalic,
        normalized=geom.normalized,
        sd_over_mean=geom.sd_over_mean,
        grad_norm=grad_norm,
        alpha=alpha,
        folds=geom.folds,
        elapsed_s=elapsed_s,
    )


def minimize(objective, f0: np.ndarray, *, max_iters: int,
             precondition) -> MinimizeResult:
    """Descend `objective` from `f0` until one of three stops fires.

    `objective` is a :class:`GeometryMemo` with `value(f)` and
    `value_and_gradient(f)` -> (value, ambient gradient); the records
    reuse the geometry it measured for the accepted trial.  When
    `precondition` is the checked solve of :func:`preconditioner`, the
    direction is :class:`LBFGS`'s, and once its memory holds a pair the
    first trial step is :data:`~authalic.linesearch.ALPHA_MAX`; when it
    is None, the direction is the paper's anti-gradient.

    The stops are the same for every objective, and each reads values the
    loop already holds: the Riemannian gradient norm falls to
    max(:data:`GRAD_TOL` * sqrt(n), :data:`GRAD_RTOL` * |g_1|), g_1 the
    first iterate's gradient (`grad_converged`); `max_iters` steps are
    taken (`max_iters`); the line search finds no step
    (`line_search_failed`).  On line-search failure the best (last
    accepted) iterate is returned, not an exception; a degenerate trial
    is rejected, so only `f0` can raise ``DegenerateFaceError``; a
    `max_iters` that is not an integer >= 0 raises ``ValueError`` first.
    Every accepted iteration is logged at DEBUG level on this module's logger.
    """
    if not isinstance(max_iters, numbers.Integral) or max_iters < 0:
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    f = np.array(f0, dtype=np.float64, order="F")
    lbfgs = None if precondition is None else LBFGS(precondition)
    grad_tol = GRAD_TOL * np.sqrt(f.shape[0])

    records: list[IterationRecord] = []
    start = time.perf_counter()
    prev_value = None

    for k in range(1, max_iters + 1):
        value, egrad = objective.value_and_gradient(f)
        rgrad = project_tangent(f, egrad)
        grad_norm = float(np.sqrt(_inner(rgrad, rgrad)))
        if k == 1:
            grad_tol = max(grad_tol, GRAD_RTOL * grad_norm)
        if grad_norm <= grad_tol:
            return MinimizeResult(f, records, "grad_converged",
                                  f"|grad| = {grad_norm:.3e} <= {grad_tol:.3e}")
        d = -rgrad if lbfgs is None else lbfgs.direction(f, rgrad)
        dphi0 = phi_derivative_at_zero(f, d, egrad)
        if prev_value is None or dphi0 >= 0 or (lbfgs is not None and lbfgs.pairs):
            alpha0 = ALPHA_MAX
        else:
            alpha0 = min(ALPHA_MAX, 2.0 * (value - prev_value) / dphi0)
            if not np.isfinite(alpha0) or alpha0 <= 0:
                alpha0 = ALPHA_MAX
        ls = search(f, d, energy=objective.value, phi0=value, dphi0=dphi0, alpha0=alpha0)
        if not ls.ok:
            return MinimizeResult(f, records, "line_search_failed", ls.message)

        f = ls.mapping
        prev_value = value
        record = make_record(objective.geometry(f), k, grad_norm, ls.alpha,
                             time.perf_counter() - start)
        records.append(record)
        logger.debug("iter %5d  E = %.9e  E_A = %.3e  |grad| = %.3e  alpha = %.3e",
                     k, ls.energy, record.authalic, grad_norm, ls.alpha)

    return MinimizeResult(f, records, "max_iters")

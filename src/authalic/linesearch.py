"""Step-size selection along the retracted curve.

The accepted step must satisfy the sufficient decrease condition

    phi(alpha) <= phi(0) + c1 * alpha * phi'(0),

where phi(alpha) is the objective evaluated at the retraction of
alpha * d.  Two strategies are provided: safeguarded quadratic/cubic
interpolation backtracking, and bounded scalar minimization followed by
the same acceptance test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import LineSearchError
from .sphere import retract, row_dots

DEFAULT_C1 = 1e-4
DEFAULT_ALPHA_MAX = 1.0
DEFAULT_MAX_BACKTRACKS = 30
STRATEGIES = ("interpolant", "bounded")
# safeguard window for each interpolated step, relative to the last trial
CLAMP_LO = 0.1
CLAMP_HI = 0.5


@dataclass
class LineSearchState:
    """Bookkeeping for one backtracking run."""

    phi0: float
    dphi0: float
    alpha0: float
    c1: float = DEFAULT_C1
    alpha_prev: float | None = None
    phi_prev: float | None = None
    alpha_2prev: float | None = None
    phi_2prev: float | None = None


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    mapping: np.ndarray
    energy: float
    evals: int
    ok: bool
    message: str = ""


def phi_derivative_at_zero(f: np.ndarray, d: np.ndarray, egrad: np.ndarray,
                           tangent_tol: float = 1e-8) -> float:
    """Directional derivative of the objective along the retracted curve.

    The retraction derivative at zero has rows
    d_l / ||f_l|| - (f_l . d_l / ||f_l||^3) f_l, contracted against the
    ambient gradient; for unit rows and tangent d this is just the
    Frobenius inner product <egrad, d>.
    """
    f = np.asarray(f, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    fd = row_dots(f, d)
    radial = np.abs(fd).max() if d.size else 0.0
    if radial > tangent_tol:
        raise LineSearchError(f"direction is not tangent (max |f.d| = {radial:.3e})")
    inv_norms = 1.0 / np.sqrt(row_dots(f, f))
    # sum_l egrad_l . psi'_l, one row dot per term
    return float(np.sum(inv_norms * (row_dots(egrad, d)
                                     - (inv_norms * inv_norms * fd) * row_dots(egrad, f))))


def quadratic_backtrack_step(state: LineSearchState, phi_alpha0: float) -> float:
    """Minimizer of the quadratic through phi(0), phi'(0), phi(alpha0),
    clamped into [0.1, 0.5] * alpha0."""
    a0 = state.alpha0
    denom = 2.0 * (phi_alpha0 - state.phi0 - state.dphi0 * a0)
    if denom == 0.0 or not np.isfinite(denom):
        step = 0.5 * a0
    else:
        step = -state.dphi0 * a0 * a0 / denom
    if not np.isfinite(step):
        step = 0.5 * a0
    return float(min(max(step, CLAMP_LO * a0), CLAMP_HI * a0))


def cubic_fit(state: LineSearchState):
    """Fit a alpha^3 + b alpha^2 + phi'(0) alpha + phi(0) through the two
    most recent trials.  Returns (a, b, raw_minimizer); the minimizer is
    None when the model has no finite local minimum."""
    ap, a2 = state.alpha_prev, state.alpha_2prev
    if ap is None or a2 is None:
        raise LineSearchError("cubic step requires two previous trials")
    rp = state.phi_prev - state.phi0 - state.dphi0 * ap
    r2 = state.phi_2prev - state.phi0 - state.dphi0 * a2
    gap = ap - a2
    if gap == 0.0:
        return 0.0, 0.0, None
    a = (rp / ap**2 - r2 / a2**2) / gap
    b = (-a2 * rp / ap**2 + ap * r2 / a2**2) / gap
    if abs(a) * max(ap, a2) < 1e-12 * max(abs(b), 1e-300):
        # cubic degenerates to the quadratic b alpha^2 + phi'(0) alpha + phi(0)
        if b > 0.0:
            return a, b, -state.dphi0 / (2.0 * b)
        return a, b, None
    disc = b * b - 3.0 * a * state.dphi0
    if disc < 0.0:
        return a, b, None
    return a, b, (-b + np.sqrt(disc)) / (3.0 * a)


def cubic_backtrack_step(state: LineSearchState) -> float:
    """Cubic-model step, clamped into [0.1, 0.5] * alpha_prev."""
    ap = state.alpha_prev
    _, _, raw = cubic_fit(state)
    step = 0.5 * ap if raw is None or not np.isfinite(raw) else raw
    return float(min(max(step, CLAMP_LO * ap), CLAMP_HI * ap))


def _sufficient(state: LineSearchState, alpha: float, phi_alpha: float) -> bool:
    return phi_alpha <= state.phi0 + state.c1 * alpha * state.dphi0


def search(f: np.ndarray, d: np.ndarray, *, energy, phi0: float, dphi0: float,
           strategy: str = "interpolant", alpha0: float = 1.0,
           c1: float = DEFAULT_C1, alpha_max: float = DEFAULT_ALPHA_MAX,
           max_backtracks: int = DEFAULT_MAX_BACKTRACKS) -> LineSearchResult:
    """Find a step size satisfying sufficient decrease along retract(f, a d).

    Parameters
    ----------
    energy : callable
        Maps a candidate (n, 3) mapping to the objective value.
    phi0, dphi0 : float
        The objective at f and its derivative along the retracted curve
        (:func:`phi_derivative_at_zero`); `dphi0` must be negative.
    strategy : {"interpolant", "bounded"}

    Returns
    -------
    LineSearchResult
        `ok` is False when no trial satisfied the condition within the
        backtrack budget; the best trial seen is still returned.
    """
    if not dphi0 < 0.0:
        raise LineSearchError(f"not a descent direction (phi'(0) = {dphi0:.3e})")

    state = LineSearchState(phi0=phi0, dphi0=dphi0,
                            alpha0=min(float(alpha0), alpha_max), c1=c1)
    evals = 0

    def phi(alpha: float):
        nonlocal evals
        g = retract(f, alpha * d)
        evals += 1
        return energy(g), g

    best = (np.inf, None, np.nan)

    if strategy == "bounded":
        res = minimize_scalar(lambda a: phi(float(a))[0], bounds=(0.0, alpha_max),
                              method="bounded", options={"xatol": 1e-6, "maxiter": 50})
        alpha = float(res.x)
        value, g = phi(alpha)
        # the bounded minimizer cannot land exactly on the interval end;
        # probe it so a monotone phi still gets the full step
        value_end, g_end = phi(alpha_max)
        if value_end < value:
            alpha, value, g = alpha_max, value_end, g_end
        if _sufficient(state, alpha, value):
            return LineSearchResult(alpha, g, value, evals, True)
        # fall through to backtracking from the bounded result
        state.alpha0 = alpha
        state.alpha_prev, state.phi_prev = alpha, value
        best = min(best, (value, g, alpha), key=lambda t: t[0])
        alpha = quadratic_backtrack_step(state, value)
    elif strategy == "interpolant":
        alpha = state.alpha0
    else:
        raise ValueError(f"unknown line-search strategy {strategy!r}")

    for _ in range(max_backtracks + 1):
        value, g = phi(alpha)
        if _sufficient(state, alpha, value):
            return LineSearchResult(alpha, g, value, evals, True)
        if value < best[0]:
            best = (value, g, alpha)
        if state.alpha_prev is None:
            state.alpha0 = alpha
            next_alpha = quadratic_backtrack_step(state, value)
        else:
            state.alpha_2prev, state.phi_2prev = state.alpha_prev, state.phi_prev
            state.alpha_prev, state.phi_prev = alpha, value
            next_alpha = cubic_backtrack_step(state)
        if state.alpha_prev is None:
            state.alpha_prev, state.phi_prev = alpha, value
        alpha = next_alpha

    value, g, alpha = best
    return LineSearchResult(
        alpha, f if g is None else g, phi0 if g is None else value, evals, False,
        message=f"no sufficient-decrease step within {max_backtracks} backtracks",
    )

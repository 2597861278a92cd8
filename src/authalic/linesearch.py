"""Step-size selection along the retracted curve.

The accepted step must satisfy the sufficient decrease condition

    phi(alpha) <= phi(0) + c1 * alpha * phi'(0),

where phi(alpha) is the objective evaluated at the retraction of
alpha * d.  The search is Armijo backtracking: each rejected trial
sets the next step by safeguarded quadratic/cubic interpolation.  A
trial whose image is degenerate (the objective raises
:class:`~authalic.errors.DegenerateFaceError`) is a rejected trial with
phi = inf, and the next trial halves the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFaceError, LineSearchError
from .sphere import retract, row_dots

# sufficient-decrease constant and step-size cap of every search
C1 = 1e-4
ALPHA_MAX = 1.0
# most rejected trials a search makes before giving up
MAX_BACKTRACKS = 30
# largest |f . d| of a row that a tangent direction may have
TANGENT_TOL = 1e-8
# safeguard window for each interpolated step, relative to the last trial
CLAMP_LO = 0.1
CLAMP_HI = 0.5


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    mapping: np.ndarray
    energy: float
    evals: int
    ok: bool
    message: str = ""


def phi_derivative_at_zero(f: np.ndarray, d: np.ndarray, egrad: np.ndarray) -> float:
    """Directional derivative of the objective along the retracted curve.

    The retraction derivative at zero has rows
    d_l / ||f_l|| - (f_l . d_l / ||f_l||^3) f_l, contracted against the
    ambient gradient; for unit rows and tangent d this is just the
    Frobenius inner product <egrad, d>.  A direction with a row farther
    than :data:`TANGENT_TOL` from tangent raises.
    """
    f = np.asarray(f, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    fd = row_dots(f, d)
    radial = np.abs(fd).max() if d.size else 0.0
    if radial > TANGENT_TOL:
        raise LineSearchError(f"direction is not tangent (max |f.d| = {radial:.3e})")
    inv_norms = 1.0 / np.sqrt(row_dots(f, f))
    # sum_l egrad_l . psi'_l, one row dot per term
    return float(np.sum(inv_norms * (row_dots(egrad, d)
                                     - (inv_norms * inv_norms * fd) * row_dots(egrad, f))))


def _safeguarded(step: float | None, alpha: float) -> float:
    """An interpolated step clamped into [0.1, 0.5] * alpha, the last
    trial; half that trial when the model gives no finite step."""
    if step is None or not np.isfinite(step):
        step = 0.5 * alpha
    return float(min(max(step, CLAMP_LO * alpha), CLAMP_HI * alpha))


def quadratic_backtrack_step(phi0: float, dphi0: float, alpha: float,
                             phi_alpha: float) -> float:
    """Minimizer of the quadratic through phi(0), phi'(0) and the rejected
    trial (alpha, phi_alpha), safeguarded."""
    denom = 2.0 * (phi_alpha - phi0 - dphi0 * alpha)
    step = -dphi0 * alpha * alpha / denom if denom != 0.0 and np.isfinite(denom) else None
    return _safeguarded(step, alpha)


def cubic_fit(phi0: float, dphi0: float, last, before):
    """Fit a alpha^3 + b alpha^2 + phi'(0) alpha + phi(0) through the two
    most recent trials, each an (alpha, phi) pair.  Returns (a, b,
    raw_minimizer); the minimizer is None when the model has no finite
    local minimum."""
    (ap, phip), (a2, phi2) = last, before
    rp = phip - phi0 - dphi0 * ap
    r2 = phi2 - phi0 - dphi0 * a2
    gap = ap - a2
    if gap == 0.0:
        return 0.0, 0.0, None
    a = (rp / ap**2 - r2 / a2**2) / gap
    b = (-a2 * rp / ap**2 + ap * r2 / a2**2) / gap
    if abs(a) * max(ap, a2) < 1e-12 * max(abs(b), 1e-300):
        # cubic degenerates to the quadratic b alpha^2 + phi'(0) alpha + phi(0)
        if b > 0.0:
            return a, b, -dphi0 / (2.0 * b)
        return a, b, None
    disc = b * b - 3.0 * a * dphi0
    if disc < 0.0:
        return a, b, None
    return a, b, (-b + np.sqrt(disc)) / (3.0 * a)


def cubic_backtrack_step(phi0: float, dphi0: float, last, before) -> float:
    """Cubic-model step through the trials `last` and `before`,
    safeguarded relative to the last one."""
    return _safeguarded(cubic_fit(phi0, dphi0, last, before)[2], last[0])


def search(f: np.ndarray, d: np.ndarray, *, energy, phi0: float, dphi0: float,
           alpha0: float = 1.0) -> LineSearchResult:
    """Find a step size satisfying sufficient decrease along retract(f, a d),
    with c1 = :data:`C1` and the steps capped at :data:`ALPHA_MAX`.

    Parameters
    ----------
    energy : callable
        Maps a candidate (n, 3) mapping to the objective value.
    phi0, dphi0 : float
        The objective at f and its derivative along the retracted curve
        (:func:`phi_derivative_at_zero`); `dphi0` must be negative.
    alpha0 : float
        The first trial is min(alpha0, ALPHA_MAX).  Each rejected trial
        sets the next one: after the first rejection the minimizer of
        the quadratic through phi(0), phi'(0) and that trial, after
        later ones the minimizer of the cubic through the last two
        trials, each clamped into [0.1, 0.5] times the last trial.  A
        degenerate trial (phi = inf) halves the step and enters no fit:
        the next rejection fits a quadratic again.  The search makes at
        most :data:`MAX_BACKTRACKS` + 1 trials.

    Returns
    -------
    LineSearchResult
        `ok` is False when no trial satisfied the condition within the
        backtrack budget; the result is then the start, at alpha = 0
        and energy `phi0`.
    """
    if not dphi0 < 0.0:
        raise LineSearchError(f"not a descent direction (phi'(0) = {dphi0:.3e})")

    rejected = []  # (alpha, phi) of each rejected finite trial, in order
    alpha = min(float(alpha0), ALPHA_MAX)
    for evals in range(1, MAX_BACKTRACKS + 2):
        g = retract(f, alpha * d)
        try:
            value = energy(g)
        except DegenerateFaceError:
            value = np.inf
        if value <= phi0 + C1 * alpha * dphi0:
            return LineSearchResult(alpha, g, value, evals, True)
        if not np.isfinite(value):
            # a degenerate trial halves the step and enters no fit
            rejected.clear()
            alpha = CLAMP_HI * alpha
            continue
        rejected.append((alpha, value))
        if len(rejected) == 1:
            alpha = quadratic_backtrack_step(phi0, dphi0, alpha, value)
        else:
            alpha = cubic_backtrack_step(phi0, dphi0, rejected[-1], rejected[-2])

    return LineSearchResult(
        0.0, f, phi0, evals, False,
        message=f"no sufficient-decrease step within {MAX_BACKTRACKS} backtracks",
    )

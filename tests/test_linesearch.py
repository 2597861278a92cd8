import warnings

import numpy as np
import pytest

from authalic import linesearch
from authalic.energy import euclidean_gradient, face_geometry
from authalic.errors import DegenerateFaceError, LineSearchError
from authalic.linesearch import (cubic_backtrack_step, cubic_fit, phi_derivative_at_zero,
                                 quadratic_backtrack_step, search)
from authalic.sphere import project_tangent, project_to_manifold, retract


def ellipsoid_state(ellipsoid3):
    f = project_to_manifold(ellipsoid3.vertices)
    egrad = euclidean_gradient(ellipsoid3, f)
    d = -project_tangent(f, egrad)
    return f, egrad, d


def normalized(surface):
    return lambda g: face_geometry(surface, g).normalized


def ellipsoid_search(ellipsoid3, f, d, egrad, **kwargs):
    """Search on the normalized energy, from phi(0) and phi'(0) at f."""
    energy = normalized(ellipsoid3)
    return search(f, d, energy=energy, phi0=energy(f),
                  dphi0=phi_derivative_at_zero(f, d, egrad), **kwargs)


# ---------------------------------------------------------------------------
# phi'(0)
# ---------------------------------------------------------------------------

def test_phi_derivative_reduces_to_inner_product(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    value = phi_derivative_at_zero(f, d, egrad)
    assert value == pytest.approx(float(np.sum(egrad * d)), rel=1e-12)
    # equals the Riemannian inner product with the projected gradient
    rgrad = project_tangent(f, egrad)
    assert abs(value - float(np.sum(rgrad * d))) <= 1e-10 * abs(value)


def test_phi_derivative_antigradient_is_negative(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    rgrad = project_tangent(f, egrad)
    value = phi_derivative_at_zero(f, -rgrad, egrad)
    assert value == pytest.approx(-float(np.sum(rgrad * rgrad)), rel=1e-12)
    assert value < 0


def test_phi_derivative_matches_curve_finite_difference(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    value = phi_derivative_at_zero(f, d, egrad)
    eps = 1e-6
    energy = normalized(ellipsoid3)
    fd = (energy(retract(f, eps * d)) - energy(retract(f, -eps * d))) / (2 * eps)
    assert abs(fd - value) <= 1e-6 * abs(value)


def test_phi_derivative_rejects_non_tangent(ellipsoid3):
    f, egrad, _ = ellipsoid_state(ellipsoid3)
    with pytest.raises(LineSearchError, match="tangent"):
        phi_derivative_at_zero(f, f.copy(), egrad)


# ---------------------------------------------------------------------------
# Interpolation algebra
# ---------------------------------------------------------------------------

def test_quadratic_step_hand_example():
    assert quadratic_backtrack_step(1.0, -1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_quadratic_step_degenerate_denominator():
    # phi(a0) exactly on the tangent line: quadratic degenerates
    assert quadratic_backtrack_step(1.0, -1.0, 1.0, 0.0) == pytest.approx(0.5)


def test_quadratic_step_overflow_halves():
    # a finite denominator with a minimizer that overflows to -inf: half
    # the trial, not the lower clamp
    assert quadratic_backtrack_step(0.0, -1e200, 1e100, -3e300) == 0.5e100


def test_quadratic_step_clamps():
    # unclamped minimizer at 0.9 a0 -> clamp to 0.5 a0
    phi0, dphi0 = 0.0, -1.0
    phi_a0 = phi0 + dphi0 * 1.0 + 1.0 / 1.8
    assert quadratic_backtrack_step(phi0, dphi0, 1.0, phi_a0) == pytest.approx(0.5)
    # unclamped minimizer far below 0.1 a0 -> clamp to 0.1 a0
    assert quadratic_backtrack_step(phi0, dphi0, 1.0, 1e3) == pytest.approx(0.1)


def cubic_value(a, b, c, d, alpha):
    return a * alpha**3 + b * alpha**2 + c * alpha + d


def test_cubic_fit_recovers_constructed_cubic():
    # phi(alpha) = alpha^3 - 2 alpha + 1: phi(1) = 0, phi(2) = 5
    last, before = (1.0, 0.0), (2.0, 5.0)
    a, b, raw = cubic_fit(1.0, -2.0, last, before)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    assert raw == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)
    # the actual step is safeguarded into [0.1, 0.5] times the last trial
    assert cubic_backtrack_step(1.0, -2.0, last, before) == pytest.approx(0.5)


def test_cubic_fit_quadratic_degeneracy_returns_vertex():
    b_true = 2.0
    last = (1.0, cubic_value(0, b_true, -1, 1, 1.0))
    before = (2.0, cubic_value(0, b_true, -1, 1, 2.0))
    a, b, raw = cubic_fit(1.0, -1.0, last, before)
    assert a == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(b_true, rel=1e-12)
    assert raw == pytest.approx(1.0 / (2 * b_true), rel=1e-12)


def test_cubic_negative_discriminant_falls_back():
    # a < 0 with positive phi'(0)-side data engineered so disc < 0
    dphi0 = -4.0
    last = (1.0, cubic_value(-2, 1, dphi0, 0, 1.0))
    before = (2.0, cubic_value(-2, 1, dphi0, 0, 2.0))
    a, b, raw = cubic_fit(0.0, dphi0, last, before)
    assert a == pytest.approx(-2.0, rel=1e-12)
    assert b * b - 3 * a * dphi0 < 0
    assert raw is None
    assert cubic_backtrack_step(0.0, dphi0, last, before) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Full searches
# ---------------------------------------------------------------------------

def test_first_trial_accepted_when_condition_holds(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    res = ellipsoid_search(ellipsoid3, f, d, egrad)
    assert res.ok and res.evals == 1 and res.alpha == 1.0


def test_accepted_step_satisfies_sufficient_decrease(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    energy = normalized(ellipsoid3)
    phi0 = energy(f)
    dphi0 = phi_derivative_at_zero(f, d, egrad)
    res = ellipsoid_search(ellipsoid3, f, d, egrad)
    # re-evaluate the condition independently of the search bookkeeping
    assert energy(res.mapping) <= phi0 + 1e-4 * res.alpha * dphi0
    assert res.energy < phi0


def test_search_beats_grid_scan(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    res = ellipsoid_search(ellipsoid3, f, d, egrad)
    assert res.ok
    energy = normalized(ellipsoid3)
    grid = min(energy(retract(f, a * d))
               for a in np.linspace(0.0, 1.0, 1000)[1:])
    assert res.energy <= grid + 1e-8


def test_backtracking_sequence_decreasing_and_bounded(monkeypatch):
    # a single point on the sphere with an energy that never accepts:
    # recover each trial alpha from the retracted row
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])
    trials = []

    def stubborn(g):
        alpha = g[0, 1] / g[0, 0]
        trials.append(alpha)
        return 1.0  # never below phi0 + c1 alpha dphi0

    monkeypatch.setattr(linesearch, "MAX_BACKTRACKS", 12)
    res = search(f, d, energy=stubborn, phi0=1.0, dphi0=-1.0, alpha0=1.0)
    assert not res.ok
    assert len(trials) == 13
    assert all(b < a for a, b in zip(trials, trials[1:]))
    assert all(t >= 0.1 ** (k + 1) - 1e-12 for k, t in enumerate(trials[1:]))
    assert res.energy == 1.0


def test_cubic_step_clamps_relative_to_the_last_trial(monkeypatch):
    # phi(alpha) = 1 + 100 alpha^2 against phi'(0) = -1: every model puts
    # its minimizer near 0.005, so each step is the lower clamp of the
    # trial just rejected
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])
    trials = []

    def steep(g):
        alpha = g[0, 1] / g[0, 0]
        trials.append(alpha)
        return 1.0 + 100.0 * alpha**2

    monkeypatch.setattr(linesearch, "MAX_BACKTRACKS", 2)
    search(f, d, energy=steep, phi0=1.0, dphi0=-1.0)
    assert trials == pytest.approx([1.0, 0.1, 0.01], rel=1e-12)


def trial_alpha(g):
    """The step of a trial on the one-point stub: retract((1, 0, 0), a (0, 1, 0))."""
    return g[0, 1] / g[0, 0]


def test_a_degenerate_trial_is_rejected_and_halves_the_step():
    # the objective raises on the unit step, as on an image that the step
    # collapses: the search rejects that trial and halves the step
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])
    trials = []

    def fragile(g):
        trials.append(trial_alpha(g))
        if trials[-1] > 0.6:
            raise DegenerateFaceError("total spherical image area -1.257e+01 is not positive")
        return 1.0 - trials[-1]

    res = search(f, d, energy=fragile, phi0=1.0, dphi0=-1.0, alpha0=1.0)
    assert res.ok and res.evals == 2
    assert trials == pytest.approx([1.0, 0.5], rel=1e-12)
    assert res.alpha == pytest.approx(0.5, rel=1e-12) and res.energy == pytest.approx(0.5)


def test_a_degenerate_trial_enters_no_fit():
    # rejected at 1, degenerate at the quadratic step 0.25, rejected at
    # its half 0.125: the next step is the quadratic one through that
    # trial alone, and no fit ever reads the degenerate trial's inf
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])
    trials = []

    def energy(g):
        alpha = trial_alpha(g)
        trials.append(alpha)
        if alpha > 0.9:
            return 2.0
        if alpha > 0.2:
            raise DegenerateFaceError("image of face 0 is degenerate")
        return 1.0 if alpha > 0.1 else 1.0 - alpha

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = search(f, d, energy=energy, phi0=1.0, dphi0=-1.0, alpha0=1.0)
    assert res.ok
    assert trials == pytest.approx([1.0, 0.25, 0.125, 0.0625], rel=1e-12)


def test_only_degenerate_trials_fail_the_search_at_the_start(monkeypatch):
    # every trial degenerate: no step is taken and the start is returned
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])

    def collapsed(g):
        raise DegenerateFaceError("image of face 0 is degenerate")

    monkeypatch.setattr(linesearch, "MAX_BACKTRACKS", 3)
    res = search(f, d, energy=collapsed, phi0=1.0, dphi0=-1.0)
    assert not res.ok and res.evals == 4
    assert res.mapping is f and res.energy == 1.0


def test_non_descent_direction_rejected(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    with pytest.raises(LineSearchError, match="descent"):
        ellipsoid_search(ellipsoid3, f, -d, egrad)


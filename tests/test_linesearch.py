import numpy as np
import pytest

from authalic.energy import energy_report_per_face, euclidean_gradient
from authalic.errors import LineSearchError
from authalic.linesearch import (LineSearchState, cubic_backtrack_step, cubic_fit,
                                 phi_derivative_at_zero, quadratic_backtrack_step,
                                 search)
from authalic.sphere import project_tangent, project_to_manifold, retract


def ellipsoid_state(ellipsoid3):
    f = project_to_manifold(ellipsoid3.vertices)
    egrad = euclidean_gradient(ellipsoid3, f)
    d = -project_tangent(f, egrad)
    return f, egrad, d


def normalized(surface):
    return lambda g: energy_report_per_face(surface, g).normalized


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
    state = LineSearchState(phi0=1.0, dphi0=-1.0, alpha0=1.0)
    assert quadratic_backtrack_step(state, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_quadratic_step_degenerate_denominator():
    state = LineSearchState(phi0=1.0, dphi0=-1.0, alpha0=1.0)
    # phi(a0) exactly on the tangent line: quadratic degenerates
    assert quadratic_backtrack_step(state, 0.0) == pytest.approx(0.5)


def test_quadratic_step_clamps():
    # unclamped minimizer at 0.9 a0 -> clamp to 0.5 a0
    state = LineSearchState(phi0=0.0, dphi0=-1.0, alpha0=1.0)
    phi_a0 = state.phi0 + state.dphi0 * 1.0 + 1.0 / 1.8
    assert quadratic_backtrack_step(state, phi_a0) == pytest.approx(0.5)
    # unclamped minimizer far below 0.1 a0 -> clamp to 0.1 a0
    assert quadratic_backtrack_step(state, 1e3) == pytest.approx(0.1)


def cubic_value(a, b, c, d, alpha):
    return a * alpha**3 + b * alpha**2 + c * alpha + d


def test_cubic_fit_recovers_constructed_cubic():
    # phi(alpha) = alpha^3 - 2 alpha + 1: phi(1) = 0, phi(2) = 5
    state = LineSearchState(phi0=1.0, dphi0=-2.0, alpha0=2.0,
                            alpha_prev=1.0, phi_prev=0.0,
                            alpha_2prev=2.0, phi_2prev=5.0)
    a, b, raw = cubic_fit(state)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    assert raw == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)
    # the actual step is safeguarded into [0.1, 0.5] alpha_prev
    assert cubic_backtrack_step(state) == pytest.approx(0.5)


def test_cubic_fit_quadratic_degeneracy_returns_vertex():
    b_true = 2.0
    state = LineSearchState(phi0=1.0, dphi0=-1.0, alpha0=1.0)
    state.alpha_prev, state.phi_prev = 1.0, cubic_value(0, b_true, -1, 1, 1.0)
    state.alpha_2prev, state.phi_2prev = 2.0, cubic_value(0, b_true, -1, 1, 2.0)
    a, b, raw = cubic_fit(state)
    assert a == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(b_true, rel=1e-12)
    assert raw == pytest.approx(1.0 / (2 * b_true), rel=1e-12)


def test_cubic_negative_discriminant_falls_back():
    # a < 0 with positive phi'(0)-side data engineered so disc < 0
    state = LineSearchState(phi0=0.0, dphi0=-4.0, alpha0=1.0,
                            alpha_prev=1.0, phi_prev=cubic_value(-2, 1, -4, 0, 1.0),
                            alpha_2prev=2.0, phi_2prev=cubic_value(-2, 1, -4, 0, 2.0))
    a, b, raw = cubic_fit(state)
    assert a == pytest.approx(-2.0, rel=1e-12)
    assert b * b - 3 * a * state.dphi0 < 0
    assert raw is None
    assert cubic_backtrack_step(state) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Full searches
# ---------------------------------------------------------------------------

def test_first_trial_accepted_when_condition_holds(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    res = ellipsoid_search(ellipsoid3, f, d, egrad, strategy="interpolant")
    assert res.ok and res.evals == 1 and res.alpha == 1.0


def test_accepted_step_satisfies_sufficient_decrease(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    energy = normalized(ellipsoid3)
    phi0 = energy(f)
    dphi0 = phi_derivative_at_zero(f, d, egrad)
    res = ellipsoid_search(ellipsoid3, f, d, egrad, strategy="interpolant")
    # re-evaluate the condition independently of the search bookkeeping
    assert energy(res.mapping) <= phi0 + 1e-4 * res.alpha * dphi0
    assert res.energy < phi0


def test_bounded_strategy_beats_grid_scan(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    res = ellipsoid_search(ellipsoid3, f, d, egrad, strategy="bounded")
    assert res.ok
    energy = normalized(ellipsoid3)
    grid = min(energy(retract(f, a * d))
               for a in np.linspace(0.0, 1.0, 1000)[1:])
    assert res.energy <= grid + 1e-8


def test_backtracking_sequence_decreasing_and_bounded():
    # a single point on the sphere with an energy that never accepts:
    # recover each trial alpha from the retracted row
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])
    trials = []

    def stubborn(g):
        alpha = g[0, 1] / g[0, 0]
        trials.append(alpha)
        return 1.0  # never below phi0 + c1 alpha dphi0

    res = search(f, d, energy=stubborn, phi0=1.0, dphi0=-1.0,
                 strategy="interpolant", alpha0=1.0, max_backtracks=12)
    assert not res.ok
    assert len(trials) == 13
    assert all(b < a for a, b in zip(trials, trials[1:]))
    assert all(t >= 0.1 ** (k + 1) - 1e-12 for k, t in enumerate(trials[1:]))
    assert res.energy == 1.0


def test_non_descent_direction_rejected(ellipsoid3):
    f, egrad, d = ellipsoid_state(ellipsoid3)
    with pytest.raises(LineSearchError, match="descent"):
        ellipsoid_search(ellipsoid3, f, -d, egrad)


def test_unknown_strategy():
    f = np.array([[1.0, 0.0, 0.0]])
    d = np.array([[0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="strategy"):
        search(f, d, energy=lambda g: 0.0, phi0=1.0, dphi0=-1.0,
               strategy="golden")

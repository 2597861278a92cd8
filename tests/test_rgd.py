
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from authalic.energy import euclidean_gradient, face_geometry
from authalic.errors import SolveError
from authalic.fpi import reference_laplacian
from authalic.linesearch import ALPHA_MAX, phi_derivative_at_zero, search
from authalic.linsolve import RESIDUAL_RTOL
from authalic.mesh import make_icosphere, normalize_area
import authalic.rgd as rgd
from authalic.rgd import LBFGS, GeometryMemo, NormalizedStretchObjective, minimize
from authalic.sphere import project_tangent, project_to_manifold, retract, row_dots


def riemannian_gradient(surface, f):
    return project_tangent(f, euclidean_gradient(surface, f))


def test_riemannian_gradient_rows_tangent(ellipsoid3):
    f = project_to_manifold(ellipsoid3.vertices)
    rgrad = riemannian_gradient(ellipsoid3, f)
    radial = np.abs(np.sum(f * rgrad, axis=1)).max()
    assert radial <= 1e-10 * max(1.0, np.abs(rgrad).max())


def test_radial_ambient_gradient_projects_to_zero(ellipsoid3):
    # stub: if the ambient gradient is radial everywhere the Riemannian
    # gradient vanishes
    f = project_to_manifold(ellipsoid3.vertices)
    assert np.abs(project_tangent(f, 3.0 * f)).max() <= 1e-12


def test_directional_derivative_first_order(ellipsoid3):
    rng = np.random.default_rng(8)
    f = project_to_manifold(ellipsoid3.vertices)
    rgrad = riemannian_gradient(ellipsoid3, f)
    xi = project_tangent(f, rng.normal(size=f.shape))
    xi /= np.linalg.norm(xi)
    eps = 1e-7
    fd = (face_geometry(ellipsoid3, retract(f, eps * xi)).normalized
          - face_geometry(ellipsoid3, retract(f, -eps * xi)).normalized) / (2 * eps)
    inner = float(np.sum(rgrad * xi))
    assert fd == pytest.approx(inner, rel=1e-5)


def test_immediate_convergence_at_critical_point(icosphere2, monkeypatch):
    class Flat(GeometryMemo):
        def value(self, f):
            return 1.0

        def value_and_gradient(self, f):
            return 1.0, 2.0 * f

    monkeypatch.setattr(rgd, "GRAD_TOL", 1e-8 / np.sqrt(icosphere2.n_vertices))
    result = minimize(icosphere2, icosphere2.vertices, objective=Flat(icosphere2))
    assert result.status == "grad_converged"
    assert result.records == []
    assert np.array_equal(result.mapping, icosphere2.vertices)


def test_line_search_failure_returns_best_iterate(icosphere2):
    class Stubborn(GeometryMemo):
        def value(self, f):
            return 1.0

        def value_and_gradient(self, f):
            g = project_tangent(f, np.roll(f, 1, axis=1))
            return 1.0, g + f

    result = minimize(icosphere2, icosphere2.vertices, objective=Stubborn(icosphere2),
                      max_iters=5)
    assert result.status == "line_search_failed"
    assert np.array_equal(result.mapping, icosphere2.vertices)


def test_descent_run_on_ellipsoid(ellipsoid3):
    f0 = project_to_manifold(ellipsoid3.vertices)
    result = minimize(ellipsoid3, f0, max_iters=50)
    assert result.status in ("max_iters", "grad_converged")
    values = [r.normalized for r in result.records]
    assert len(values) >= 10
    assert all(b < a for a, b in zip(values, values[1:]))
    # iterates stay on the manifold
    assert np.abs(np.linalg.norm(result.mapping, axis=1) - 1.0).max() <= 1e-12
    # the recorded triple satisfies E_A = E_S - A with A recovered from E
    total = ellipsoid3.total_area
    for r in result.records:
        area = total * r.stretch / r.normalized
        assert r.authalic == pytest.approx(r.stretch - area, abs=1e-10 * max(1.0, r.stretch))
    rep0 = face_geometry(ellipsoid3, f0)
    rep1 = face_geometry(ellipsoid3, result.mapping)
    assert rep1.authalic < rep0.authalic


def test_alpha_and_grad_norm_recorded(ellipsoid3):
    f0 = project_to_manifold(ellipsoid3.vertices)
    result = minimize(ellipsoid3, f0, max_iters=5)
    for r in result.records:
        assert r.alpha is not None and 0 < r.alpha <= 1.0
        assert r.grad_norm is not None and r.grad_norm > 0
        assert r.folds >= 0 and r.elapsed_s >= 0


def test_descent_without_gradient_tests_ends_in_a_failed_search(icosphere2, monkeypatch):
    # identity on the unit icosphere is already area distortion minimizing:
    # with both gradient tests off, the descent runs until the line search
    # finds no decrease left, well inside the cap
    monkeypatch.setattr(rgd, "GRAD_TOL", 0.0)
    monkeypatch.setattr(rgd, "GRAD_RTOL", 0.0)
    result = minimize(icosphere2, icosphere2.vertices, max_iters=4000)
    assert result.status == "line_search_failed"
    assert len(result.records) < 4000


def test_gradient_falls_with_generous_budget(monkeypatch):
    # accumulation at critical points: on a small mesh the gradient norm
    # drops below 1e-4 well within a generous iteration budget
    surf = normalize_area(make_icosphere(1, (1.0, 0.9, 0.8)))
    f0 = project_to_manifold(surf.vertices)
    monkeypatch.setattr(rgd, "GRAD_TOL", 1e-4 / np.sqrt(surf.n_vertices))
    monkeypatch.setattr(rgd, "GRAD_RTOL", 0.0)
    result = minimize(surf, f0, max_iters=5000)
    assert result.status == "grad_converged"
    assert np.linalg.norm(riemannian_gradient(surf, result.mapping)) <= 1e-4


def test_area_ratio_cv_zero_at_identity(icosphere2):
    assert face_geometry(icosphere2, icosphere2.vertices).sd_over_mean <= 1e-12


# ---------------------------------------------------------------------------
# Preconditioned L-BFGS
# ---------------------------------------------------------------------------

def shifted_laplacian(surface):
    """K = L_cot + PRECONDITIONER_SHIFT (|M| / n) I, in vertex order."""
    n = surface.n_vertices
    shift = rgd.PRECONDITIONER_SHIFT * surface.total_area / n
    return reference_laplacian(surface) + shift * sp.eye(n)


def test_preconditioner_solves_meet_the_residual_contract(ellipsoid3, monkeypatch):
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(1) or splu(*a, **k))
    apply = rgd.preconditioner(ellipsoid3, reference_laplacian(ellipsoid3))
    k = shifted_laplacian(ellipsoid3).tocsr()
    k_norm = abs(k).sum(axis=1).max()
    rng = np.random.default_rng(3)
    for _ in range(3):
        g = rng.normal(size=(ellipsoid3.n_vertices, 3))
        x = apply(g)
        residual = np.linalg.norm(k @ x - g, axis=0)
        bound = RESIDUAL_RTOL * (k_norm * np.linalg.norm(x, axis=0)
                                 + np.linalg.norm(g, axis=0))
        assert (residual <= bound).all()
    # one factorization for every application
    assert len(factors) == 1


def test_preconditioner_rejects_a_matrix_that_is_not_positive_definite(ellipsoid3):
    # -K passes the residual contract but not <g, K^-1 g> > 0
    n = ellipsoid3.n_vertices
    shift = 2.0 * rgd.PRECONDITIONER_SHIFT * ellipsoid3.total_area / n
    negated = -reference_laplacian(ellipsoid3) - shift * sp.eye(n)
    apply = rgd.preconditioner(ellipsoid3, negated)
    with pytest.raises(SolveError, match="not positive definite"):
        apply(np.ones((n, 3)))


def lbfgs_run(surface, steps):
    """`steps` L-BFGS iterations on the spherical objective from the radial
    start; returns the L-BFGS state, the last mapping and its
    Riemannian gradient."""
    objective = NormalizedStretchObjective(surface, spherical=True)
    f = project_to_manifold(surface.vertices - surface.vertices.mean(axis=0))
    lbfgs = LBFGS(rgd.preconditioner(surface, reference_laplacian(surface)))
    for _ in range(steps):
        value, egrad = objective.value_and_gradient(f)
        g = project_tangent(f, egrad)
        d = lbfgs.direction(f, g)
        assert np.abs(row_dots(f, d)).max() <= 1e-12 * np.abs(d).max()
        assert np.sum(d * g) < 0
        dphi0 = phi_derivative_at_zero(f, d, egrad)
        f = search(f, d, energy=objective.value, phi0=value, dphi0=dphi0).mapping
    value, egrad = objective.value_and_gradient(f)
    return lbfgs, f, project_tangent(f, egrad)


def test_lbfgs_directions_are_tangent_descent_directions(ellipsoid3):
    lbfgs, _, _ = lbfgs_run(ellipsoid3, 8)
    assert len(lbfgs.pairs) == rgd.LBFGS_MEMORY


def test_a_full_memory_drops_its_oldest_pair(ellipsoid3):
    # eight steps form seven pairs, so the memory is full before the call
    lbfgs, f, g = lbfgs_run(ellipsoid3, 8)
    held = [s for s, _, _ in lbfgs.pairs]
    lbfgs.direction(f, g)
    now = [s for s, _, _ in lbfgs.pairs]
    assert len(now) == rgd.LBFGS_MEMORY
    # the rest keep their order and the new pair comes last
    assert all(a is b for a, b in zip(now[:-1], held[1:]))
    assert all(now[-1] is not s for s in held)


def test_a_non_descent_direction_falls_back_and_clears_the_memory(ellipsoid3):
    _, f, g = lbfgs_run(ellipsoid3, 0)
    precondition = rgd.preconditioner(ellipsoid3, reference_laplacian(ellipsoid3))
    lbfgs = LBFGS(precondition)
    # one held pair (s, y) = (g, 0) with a negative weight: then
    # H = H_0 + rho g g^T and <g, H g> = <g, H_0 g> + rho |g|^4 < 0
    h0g = project_tangent(f, precondition(g))
    rho = -2.0 * np.sum(g * h0g) / np.sum(g * g) ** 2
    lbfgs.pairs.append((g.copy(), np.zeros_like(g), rho))
    d = lbfgs.direction(f, g)
    assert not lbfgs.pairs
    assert np.array_equal(d, -h0g)
    assert np.sum(d * g) < 0


def test_a_rejected_pair_keeps_every_held_pair(ellipsoid3, monkeypatch):
    lbfgs, f, g = lbfgs_run(ellipsoid3, 8)
    assert len(lbfgs.pairs) == rgd.LBFGS_MEMORY
    held = [(s, s.copy(), y.copy(), rho) for s, y, rho in lbfgs.pairs]
    monkeypatch.setattr(rgd, "CURVATURE_TOL", np.inf)  # every new pair fails
    f_new = project_to_manifold(f + 1e-3)
    lbfgs.direction(f_new, g)
    assert len(lbfgs.pairs) == rgd.LBFGS_MEMORY
    for (s_now, y_now, rho_now), (s_held, s, y, rho) in zip(lbfgs.pairs, held):
        # the held pairs, in their order, are only re-projected onto the
        # new tangent space
        assert s_now is s_held
        assert np.array_equal(s_now, s - row_dots(f_new, s)[:, None] * f_new)
        assert np.array_equal(y_now, y - row_dots(f_new, y)[:, None] * f_new)
        assert rho_now == rho


def test_lbfgs_descent_decreases_the_spherical_energy(ellipsoid3, monkeypatch):
    trials = []
    search_ = rgd.search
    monkeypatch.setattr(rgd, "search",
                        lambda *a, **k: trials.append(k["alpha0"]) or search_(*a, **k))
    f0 = project_to_manifold(ellipsoid3.vertices)
    objective = NormalizedStretchObjective(ellipsoid3, spherical=True)
    start = objective.value(f0)
    result = minimize(ellipsoid3, f0, objective=objective, max_iters=20,
                      laplacian=reference_laplacian(ellipsoid3))
    assert len(result.records) == 20 and result.status == "max_iters"
    assert objective.value(result.mapping) < start
    assert result.records[-1].sd_over_mean < 0.01 * result.records[0].sd_over_mean
    # once the memory holds a pair (from the second iteration on, here),
    # the first trial is the full step, not the interpolated one
    assert trials[1:] == [ALPHA_MAX] * 19


def test_the_laplacian_picks_the_spherical_objective(ellipsoid3):
    # the L-BFGS direction comes with the spherical energy unless another
    # objective is given, so no caller pairs it with the chordal one by
    # leaving the objective out
    f0 = project_to_manifold(ellipsoid3.vertices)
    lap = reference_laplacian(ellipsoid3)
    default = minimize(ellipsoid3, f0, max_iters=3, laplacian=lap)
    spherical = minimize(ellipsoid3, f0, max_iters=3, laplacian=lap,
                         objective=NormalizedStretchObjective(ellipsoid3, spherical=True))
    assert np.array_equal(default.mapping, spherical.mapping)
    chordal = minimize(ellipsoid3, f0, max_iters=3, laplacian=lap,
                       objective=NormalizedStretchObjective(ellipsoid3))
    assert not np.array_equal(default.mapping, chordal.mapping)

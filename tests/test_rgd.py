import dataclasses

import numpy as np
import pytest

from authalic.energy import energy_report_per_face, euclidean_gradient
from authalic.mesh import make_icosphere, normalize_area
from authalic.diagnostics import area_ratio_stats
import authalic.rgd as rgd
from authalic.rgd import GeometryMemo, minimize
from authalic.sphere import project_tangent, project_to_manifold, retract


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
    fd = (energy_report_per_face(ellipsoid3, retract(f, eps * xi)).normalized
          - energy_report_per_face(ellipsoid3, retract(f, -eps * xi)).normalized) / (2 * eps)
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
    assert result.status in ("max_iters", "energy_stalled", "grad_converged")
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
    rep0 = energy_report_per_face(ellipsoid3, f0)
    rep1 = energy_report_per_face(ellipsoid3, result.mapping)
    assert rep1.authalic < rep0.authalic


def test_alpha_and_grad_norm_recorded(ellipsoid3):
    f0 = project_to_manifold(ellipsoid3.vertices)
    result = minimize(ellipsoid3, f0, max_iters=5)
    for r in result.records:
        assert r.alpha is not None and 0 < r.alpha <= 1.0
        assert r.grad_norm is not None and r.grad_norm > 0
        assert r.folds >= 0 and r.elapsed_s >= 0


def test_energy_stall_stop(icosphere2, monkeypatch):
    # identity on the unit icosphere is already area distortion minimizing
    # in practice: tiny decreases trip the stall rule quickly
    monkeypatch.setattr(rgd, "ENERGY_TOL", 1e-9)
    monkeypatch.setattr(rgd, "GRAD_TOL", 0.0)
    result = minimize(icosphere2, icosphere2.vertices, max_iters=4000)
    assert result.status in ("energy_stalled", "line_search_failed")


def test_stall_test_reads_the_objective_not_the_authalic_energy(icosphere2):
    # the objective sum(z) falls every step while the report's authalic
    # energy rises: the descent must not call that a stall
    class Downhill(GeometryMemo):
        def value(self, f):
            return float(f[:, 2].sum())

        def value_and_gradient(self, f):
            return self.value(f), np.broadcast_to([0.0, 0.0, 1.0], f.shape)

        def report(self, f):
            return dataclasses.replace(super().report(f), authalic=-self.value(f))

    result = minimize(icosphere2, icosphere2.vertices, objective=Downhill(icosphere2))
    authalic = [r.authalic for r in result.records]
    assert all(b > a for a, b in zip(authalic[:4], authalic[1:4]))
    assert result.status == "grad_converged"


def test_gradient_falls_with_generous_budget(monkeypatch):
    # accumulation at critical points: on a small mesh the gradient norm
    # drops below 1e-4 well within a generous iteration budget
    surf = normalize_area(make_icosphere(1, (1.0, 0.9, 0.8)))
    f0 = project_to_manifold(surf.vertices)
    monkeypatch.setattr(rgd, "GRAD_TOL", 1e-4 / np.sqrt(surf.n_vertices))
    monkeypatch.setattr(rgd, "ENERGY_TOL", -np.inf)
    result = minimize(surf, f0, max_iters=5000)
    assert result.status == "grad_converged"
    assert np.linalg.norm(riemannian_gradient(surf, result.mapping)) <= 1e-4


def test_area_ratio_cv_zero_at_identity(icosphere2):
    assert area_ratio_stats(icosphere2, icosphere2.vertices).sd_over_mean <= 1e-12

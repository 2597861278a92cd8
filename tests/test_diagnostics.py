import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import authalic.linsolve as linsolve
from authalic.diagnostics import (PROBE_EIGENPAIRS, PROBE_RESIDUAL_RTOL, authalic_error,
                                  fd_gradient_norm_error, probe_smallest_eigenvalue,
                                  smallest_hessian_eigenvalue)
from authalic.energy import assemble_global_hessian, face_geometry
from authalic.errors import DegenerateFaceError, SolveError
from authalic.fpi import radial_initial_map
from authalic.mesh import make_icosphere, perturb_vertices
from authalic.rgd import NormalizedStretchObjective
from authalic.sphere import project_to_manifold

from helpers import count_factorizations, rotation_matrix


def area_ratios(geom):
    return geom.image_areas / geom.ref_areas


def test_area_preserving_mapping_scores_zero(icosphere2):
    geom = face_geometry(icosphere2, icosphere2.vertices)
    assert geom.sd_over_mean <= 1e-12
    assert area_ratios(geom).mean() == pytest.approx(1.0, rel=1e-12)


def test_population_sd_convention(icosphere2):
    # population (ddof=0) semantics: {1, 3} has SD 1 and mean 2
    assert np.std([1.0, 3.0]) / np.mean([1.0, 3.0]) == 0.5
    rng = np.random.default_rng(3)
    f = project_to_manifold(icosphere2.vertices + 0.05 * rng.normal(size=(162, 3)))
    geom = face_geometry(icosphere2, f)
    ratios = area_ratios(geom)
    assert geom.sd_over_mean == pytest.approx(np.std(ratios, ddof=0) / ratios.mean(), rel=1e-12)


def test_stats_invariant_under_rotation(icosphere2):
    rng = np.random.default_rng(4)
    f = project_to_manifold(icosphere2.vertices + 0.05 * rng.normal(size=(162, 3)))
    rotated = f @ rotation_matrix([0.3, -1.0, 2.0], 1.2).T
    a = face_geometry(icosphere2, f)
    b = face_geometry(icosphere2, rotated)
    assert b.sd_over_mean == pytest.approx(a.sd_over_mean, abs=1e-12)


def test_authalic_error_value_and_symmetry(icosphere2):
    noisy = perturb_vertices(icosphere2, 1e-3, seed=0)
    displacement = np.linalg.norm(noisy.vertices - icosphere2.vertices, axis=1).sum()
    err = authalic_error(noisy, icosphere2, 2.5e-3, 2.0e-3)
    assert err == pytest.approx(icosphere2.n_vertices * 0.5e-3 / displacement)
    # symmetric in the two energies
    assert authalic_error(noisy, icosphere2, 2.0e-3, 2.5e-3) == pytest.approx(err)
    # zero numerator
    assert authalic_error(noisy, icosphere2, 7.0e-3, 7.0e-3) == 0.0


def test_authalic_error_identical_meshes_rejected(icosphere2):
    with pytest.raises(ZeroDivisionError):
        authalic_error(icosphere2, icosphere2, 1.0, 2.0)


def test_fd_harness_small_on_good_gradient(icosphere1):
    rng = np.random.default_rng(2)
    f = project_to_manifold(icosphere1.vertices + 0.05 * rng.normal(size=(42, 3)))
    assert fd_gradient_norm_error(NormalizedStretchObjective(icosphere1), f, step=1e-6,
                                  max_coords=f.size) < 1e-6


def test_fd_harness_truncation_grows_with_step(icosphere1):
    rng = np.random.default_rng(2)
    f = project_to_manifold(icosphere1.vertices + 0.05 * rng.normal(size=(42, 3)))
    objective = NormalizedStretchObjective(icosphere1)
    fine = fd_gradient_norm_error(objective, f, step=1e-5, max_coords=f.size)
    coarse = fd_gradient_norm_error(objective, f, step=1e-4, max_coords=f.size)
    assert coarse > fine


def test_fd_harness_step_validation(icosphere1):
    with pytest.raises(ValueError, match="step"):
        fd_gradient_norm_error(NormalizedStretchObjective(icosphere1), icosphere1.vertices,
                               step=1e-2, max_coords=icosphere1.vertices.size)


def test_fd_norm_error_robust_on_arbitrary_mappings(ellipsoid3):
    # the normwise error stays far below tolerance even where small
    # gradient entries would push an entrywise one onto the noise floor
    f = project_to_manifold(ellipsoid3.vertices)
    for spherical in (False, True):
        objective = NormalizedStretchObjective(ellipsoid3, spherical=spherical)
        assert fd_gradient_norm_error(objective, f, max_coords=200) < 1e-6


def test_fd_harness_degenerate_mapping_errors(icosphere1):
    constant = np.tile([1.0, 0.0, 0.0], (icosphere1.n_vertices, 1))
    with pytest.raises(DegenerateFaceError):
        fd_gradient_norm_error(NormalizedStretchObjective(icosphere1), constant,
                               max_coords=constant.size)


def test_probe_identity_matrix():
    result = probe_smallest_eigenvalue(sp.eye(40, format="csc"), np.zeros((40, 0)))
    assert result.smallest_eigenvalue == pytest.approx(1.0, rel=1e-10)


def test_probe_diagonal_modes():
    d = sp.diags([-2.0, 1.0, 3.0, 5.0, -0.5]).tocsc()
    mag = probe_smallest_eigenvalue(d, np.zeros((5, 0)))
    assert mag.smallest_eigenvalue == pytest.approx(-0.5, rel=1e-8)


def deflated_reference(hessian):
    """Reference probe: the eigenvalue nearest zero of the dense Hessian
    (coordinate-major) off its three rigid translations T, from
    P H P + ||H||_F T T^T, P the projector off T, which moves their zero
    eigenvalues to ||H||_F and keeps every other one."""
    h = hessian.toarray()
    n = h.shape[0] // 3
    t = np.kron(np.eye(3), np.ones((n, 1))) / np.sqrt(n)
    p = np.eye(3 * n) - t @ t.T
    scale = np.linalg.norm(h)
    vals = np.linalg.eigvalsh(p @ h @ p + scale * t @ t.T)
    return float(vals[np.argmin(np.abs(vals))]), scale


def test_hessian_probe_certified_residual(icosphere1):
    # on a map that is not a radial one, the probe skips the translations'
    # zero eigenvalues and meets the dense reference
    rng = np.random.default_rng(1)
    f = project_to_manifold(icosphere1.vertices + 0.02 * rng.normal(size=(42, 3)))
    reference, scale = deflated_reference(assemble_global_hessian(icosphere1, f))
    result = smallest_hessian_eigenvalue(icosphere1, f)
    assert abs(result.smallest_eigenvalue) > 1e-6 * scale
    assert abs(result.smallest_eigenvalue - reference) <= 1e-10 * scale
    assert 0.0 <= result.residual <= PROBE_RESIDUAL_RTOL * scale


# the deflated eigenvalue on the radial map of each mesh, to five places
RADIAL_EIGENVALUES = {1: -2.4582e-2, 2: 9.1070e-3, 3: 3.2946e-4}


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_hessian_probe_factors_once_through_linsolve(monkeypatch, subdivisions):
    surface = make_icosphere(subdivisions, (1.0, 0.8, 0.6))
    f = radial_initial_map(surface)
    reference, scale = deflated_reference(assemble_global_hessian(surface, f))
    calls = count_factorizations(monkeypatch)
    result = smallest_hessian_eigenvalue(surface, f)
    assert len(calls) == 1
    assert result.residual <= PROBE_RESIDUAL_RTOL * scale
    assert abs(result.smallest_eigenvalue - reference) <= 1e-10 * scale
    assert result.smallest_eigenvalue == pytest.approx(RADIAL_EIGENVALUES[subdivisions],
                                                       rel=1e-4)


def test_hessian_probe_solves_meet_the_residual_contract(monkeypatch, icosphere1):
    # a contract no roundoff meets: the first shift-invert solve raises
    monkeypatch.setattr(linsolve, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(SolveError, match="residual contract"):
        smallest_hessian_eigenvalue(icosphere1, project_to_manifold(icosphere1.vertices))

import numpy as np
import pytest

from authalic.energy import assemble_laplacian, energy_report_per_face, face_geometry
from authalic.errors import SolveError
from authalic.fpi import (_PIN, _interior_mask, conformal_initial_map, dirichlet_solve,
                          fpi_minimize)
from authalic.mesh import normalize_area
from authalic.rgd import minimize
from authalic.sphere import PlanarPoints, count_folds, invert_plane, stereographic

from helpers import bumpy_sphere


def test_interior_boundary_split_by_radius():
    h = PlanarPoints.finite(np.array([0.5, 1.1, 1.3]))
    mask = _interior_mask(h)
    assert mask.tolist() == [True, True, False]


def test_infinity_always_boundary():
    h = PlanarPoints(values=np.array([0.0j, 0.3 + 0j]),
                     at_infinity=np.array([True, False]))
    assert _interior_mask(h).tolist() == [False, True]


def test_median_normalization_rule():
    mags = np.array([1.0, 2.0, 4.0])
    assert np.allclose(mags / np.median(mags), [0.5, 1.0, 2.0])


def test_conformal_map_unit_icosphere(icosphere2):
    surf = normalize_area(icosphere2)
    f = conformal_initial_map(surf)
    assert count_folds(surf, f) == 0
    assert np.abs(np.linalg.norm(f, axis=1) - 1.0).max() <= 1e-12


def test_conformal_map_ellipsoid(ellipsoid3):
    f = conformal_initial_map(ellipsoid3)
    assert count_folds(ellipsoid3, f) == 0
    assert np.isfinite(energy_report_per_face(ellipsoid3, f).authalic)


def test_conformal_map_seeded_face_choice(ellipsoid3):
    a = conformal_initial_map(ellipsoid3, rng=np.random.default_rng(1))
    b = conformal_initial_map(ellipsoid3, rng=np.random.default_rng(1))
    c = conformal_initial_map(ellipsoid3, face_index=5)
    assert np.array_equal(a, b)
    assert count_folds(ellipsoid3, c) == 0


def test_fpi_boundary_rows_fixed(ellipsoid3):
    # the conformal start's plane: its pinned face is the whole boundary
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, ellipsoid3.vertices))
    pinned = ellipsoid3.faces[int(np.argmax(ellipsoid3.face_areas))]
    interior = np.ones(ellipsoid3.n_vertices, dtype=bool)
    interior[pinned] = False
    values = np.zeros(ellipsoid3.n_vertices, dtype=np.complex128)
    values[pinned] = _PIN
    h = PlanarPoints.finite(values)
    out = dirichlet_solve(ellipsoid3, lap, h, interior)
    assert np.array_equal(out.values[~interior], h.values[~interior])

    # one FPI plane: the inverted stereographic image of the start, with
    # the Laplacian of the start's face geometry
    f0 = conformal_initial_map(ellipsoid3)
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, f0))
    h = invert_plane(stereographic(f0))
    interior = _interior_mask(h)
    assert interior.any() and not interior.all()
    out = dirichlet_solve(ellipsoid3, lap, h, interior)
    assert np.array_equal(out.values[~interior], h.values[~interior])
    assert np.array_equal(out.at_infinity, h.at_infinity)


def test_fpi_iterates_on_manifold(ellipsoid3):
    f0 = conformal_initial_map(ellipsoid3)
    result = fpi_minimize(ellipsoid3, f0, max_iters=5, stop_on_increase=False)
    assert np.abs(np.linalg.norm(result.mapping, axis=1) - 1.0).max() <= 1e-12
    assert [r.iteration for r in result.records] == list(range(1, 6))


def test_fpi_detects_first_increase_and_rolls_back():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_initial_map(surf)
    result = fpi_minimize(surf, f0, max_iters=60, stop_on_increase=True)
    assert result.status == "authalic_increased"
    # the last record is the rejected iterate
    k = len(result.records)
    assert k >= 2
    energies = [r.authalic for r in result.records]
    # nonincreasing up to the detected iteration, increase at it
    assert all(b <= a for a, b in zip(energies[: k - 1], energies[1: k - 1]))
    assert energies[k - 1] > energies[k - 2]
    # the returned mapping is the pre-increase iterate
    returned = energy_report_per_face(surf, result.mapping).authalic
    assert returned == pytest.approx(energies[k - 2], rel=1e-12)


def test_fpi_monitor_off_runs_to_budget():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_initial_map(surf)
    result = fpi_minimize(surf, f0, max_iters=8, stop_on_increase=False)
    assert result.status in ("max_iters", "delta_converged")
    assert len(result.records) <= 8
    # the run went past an authalic increase without stopping on it
    energies = [r.authalic for r in result.records]
    assert any(b > a for a, b in zip(energies, energies[1:]))


def test_warm_start_then_descent_beats_fpi_alone():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_initial_map(surf)
    fpi_only = fpi_minimize(surf, f0, max_iters=60, stop_on_increase=False)
    fpi_best = min(r.authalic for r in fpi_only.records)

    warm = fpi_minimize(surf, f0, max_iters=10, stop_on_increase=True)
    refined = minimize(surf, warm.mapping, max_iters=100)
    final = energy_report_per_face(surf, refined.mapping).authalic
    assert final <= fpi_best


def test_empty_interior_raises():
    lap = None
    h = PlanarPoints.finite(np.array([2.0, 3.0, 4.0]))
    with pytest.raises(SolveError, match="empty interior"):
        dirichlet_solve(None, lap, h, _interior_mask(h))


def pole_plane(surface):
    """Reference Laplacian and stereographic plane of a unit icosphere,
    whose north-pole vertex lands at infinity."""
    h = stereographic(surface.vertices)
    assert h.at_infinity.sum() == 1
    return assemble_laplacian(surface, face_geometry(surface, surface.vertices)).tocsr(), h


def test_vertex_at_infinity_coupled_to_interior_raises(icosphere1):
    lap, h = pole_plane(icosphere1)
    pole = int(np.flatnonzero(h.at_infinity)[0])
    interior = _interior_mask(h)
    ring = icosphere1.edges[(icosphere1.edges == pole).any(axis=1)].ravel()
    interior[ring] = True
    interior[pole] = False
    with pytest.raises(SolveError, match="vertex at infinity is coupled"):
        dirichlet_solve(icosphere1, lap, h, interior)


def test_vertex_at_infinity_among_boundary_is_kept(icosphere1):
    lap, h = pole_plane(icosphere1)
    interior = _interior_mask(h)
    out = dirichlet_solve(icosphere1, lap, h, interior)
    assert np.array_equal(out.at_infinity, h.at_infinity)
    assert np.array_equal(out.values[~interior], h.values[~interior])
    # the interior rows of the Laplacian vanish on the solved plane
    finite = np.where(out.at_infinity, 0.0, out.values)
    assert np.abs(lap[interior] @ finite).max() <= 1e-12 * np.abs(finite).max()


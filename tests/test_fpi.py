import numpy as np
import pytest
import scipy.sparse as sp

import authalic.energy as en
from authalic.energy import assemble_laplacian, face_geometry
from authalic.errors import SolveError
from authalic.fpi import (_PIN, conformal_initial_map, dirichlet_solve, disk_interior,
                          fpi_minimize, reference_laplacian)
from authalic.mesh import normalize_area
from authalic.rgd import NormalizedStretchObjective, minimize
from authalic.sphere import count_folds, stereographic

from helpers import bumpy_sphere, conformal_start


def test_interior_boundary_split_by_radius():
    h = np.array([0.5, 1.1, 1.3], dtype=np.complex128)
    mask = disk_interior(h)
    assert mask.tolist() == [True, True, False]


def test_infinity_always_boundary():
    h = np.array([np.inf, 0.3 + 0j])
    assert disk_interior(h).tolist() == [False, True]


def test_median_normalization_rule():
    mags = np.array([1.0, 2.0, 4.0])
    assert np.allclose(mags / np.median(mags), [0.5, 1.0, 2.0])


def test_conformal_map_unit_icosphere(icosphere2):
    surf = normalize_area(icosphere2)
    f = conformal_start(surf)
    assert count_folds(surf, f) == 0
    assert np.abs(np.linalg.norm(f, axis=1) - 1.0).max() <= 1e-12


def test_conformal_map_ellipsoid(ellipsoid3):
    f = conformal_start(ellipsoid3)
    assert count_folds(ellipsoid3, f) == 0
    assert np.isfinite(face_geometry(ellipsoid3, f).authalic)


def test_conformal_map_seeded_face_choice(ellipsoid3):
    lap = reference_laplacian(ellipsoid3)
    a = conformal_initial_map(ellipsoid3, np.random.default_rng(1), lap)
    b = conformal_initial_map(ellipsoid3, np.random.default_rng(1), lap)
    c = conformal_initial_map(ellipsoid3, np.random.default_rng(2), lap)
    assert np.array_equal(a, b)
    # the second seed punctures another face: a different, fold-free start
    assert not np.array_equal(a, c)
    assert count_folds(ellipsoid3, c) == 0


def test_fpi_boundary_rows_fixed(ellipsoid3):
    # a conformal start's plane: its pinned face is the whole boundary
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, ellipsoid3.vertices))
    pinned = ellipsoid3.faces[int(np.argmax(ellipsoid3.face_areas))]
    interior = np.ones(ellipsoid3.n_vertices, dtype=bool)
    interior[pinned] = False
    values = np.zeros(ellipsoid3.n_vertices, dtype=np.complex128)
    values[pinned] = _PIN
    h = values
    out = dirichlet_solve(ellipsoid3, lap, h, interior)
    assert np.array_equal(out[~interior], h[~interior])

    # the first FPI plane: the start projected from the south pole, with
    # the Laplacian of the start's face geometry
    f0 = conformal_start(ellipsoid3)
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, f0))
    h = stereographic(f0, -1.0)
    interior = disk_interior(h)
    assert interior.any() and not interior.all()
    out = dirichlet_solve(ellipsoid3, lap, h, interior)
    assert np.array_equal(out[~interior], h[~interior])
    assert np.array_equal(np.isinf(out), np.isinf(h))


def test_fpi_iterates_on_manifold(ellipsoid3):
    f0 = conformal_start(ellipsoid3)
    result = fpi_minimize(ellipsoid3, f0, max_iters=5, stop_on_increase=False)
    assert np.abs(np.linalg.norm(result.mapping, axis=1) - 1.0).max() <= 1e-12
    assert [r.iteration for r in result.records] == list(range(1, 6))


def test_fpi_detects_first_increase_and_rolls_back():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_start(surf)
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
    returned = face_geometry(surf, result.mapping).authalic
    assert returned == pytest.approx(energies[k - 2], rel=1e-12)


def test_fpi_monitor_off_runs_to_budget():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_start(surf)
    result = fpi_minimize(surf, f0, max_iters=8, stop_on_increase=False)
    # a stretch-energy rise is not convergence: the run stops on it and
    # returns the iterate before the rise, whose record is the one before last
    assert result.status == "stretch_increased"
    assert len(result.records) <= 8
    assert face_geometry(surf, result.mapping).stretch == result.records[-2].stretch
    # the run went past an authalic increase without stopping on it
    energies = [r.authalic for r in result.records]
    assert any(b > a for a, b in zip(energies, energies[1:]))


def test_a_zero_cap_does_no_work(monkeypatch, ellipsoid3):
    f0 = conformal_start(ellipsoid3)
    calls = []
    geometry = en.face_geometry

    def counted(*args, **kwargs):
        calls.append(args)
        return geometry(*args, **kwargs)

    monkeypatch.setattr(en, "face_geometry", counted)
    result = fpi_minimize(ellipsoid3, f0, max_iters=0)
    assert not calls
    assert result.status == "max_iters" and result.records == []
    assert np.array_equal(result.mapping, f0) and result.mapping is not f0


def test_warm_start_then_descent_beats_fpi_alone():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_start(surf)
    fpi_only = fpi_minimize(surf, f0, max_iters=60, stop_on_increase=False)
    fpi_best = min(r.authalic for r in fpi_only.records)

    warm = fpi_minimize(surf, f0, max_iters=10, stop_on_increase=True)
    refined = minimize(NormalizedStretchObjective(surf), warm.mapping, max_iters=100,
                       precondition=None)
    final = face_geometry(surf, refined.mapping).authalic
    assert final <= fpi_best


def test_empty_interior_raises():
    lap = None
    h = np.array([2.0, 3.0, 4.0], dtype=np.complex128)
    with pytest.raises(SolveError, match="empty interior"):
        dirichlet_solve(None, lap, h, disk_interior(h))


def pole_plane(surface):
    """Reference Laplacian and stereographic plane of a unit icosphere,
    whose north-pole vertex lands at infinity."""
    h = stereographic(surface.vertices)
    assert np.isinf(h).sum() == 1
    return assemble_laplacian(surface, face_geometry(surface, surface.vertices)).tocsr(), h


def test_vertex_at_infinity_coupled_to_interior_raises(icosphere1):
    lap, h = pole_plane(icosphere1)
    pole = int(np.flatnonzero(np.isinf(h))[0])
    interior = disk_interior(h)
    ring = icosphere1.edges[(icosphere1.edges == pole).any(axis=1)].ravel()
    interior[ring] = True
    interior[pole] = False
    with pytest.raises(SolveError, match="vertex at infinity is coupled"):
        dirichlet_solve(icosphere1, lap, h, interior)


def test_the_right_hand_side_rule_fires_where_a_stored_entry_reads_an_inf(icosphere1):
    # the rule fires exactly where an interior row stores an entry in an
    # inf column, an explicit zero included
    lap, h = pole_plane(icosphere1)
    pole = int(np.flatnonzero(np.isinf(h))[0])
    disk = disk_interior(h)
    far = int(np.flatnonzero(disk)[0])
    assert lap[far, pole] == 0
    coo = lap.tocoo()
    padded = sp.csr_matrix((np.append(coo.data, 0.0), (np.append(coo.row, far),
                                                       np.append(coo.col, pole))),
                           shape=lap.shape)
    assert padded.nnz == lap.nnz + 1
    ring = icosphere1.edges[(icosphere1.edges == pole).any(axis=1)].ravel()
    cases = [(lap, disk), (padded, disk)]
    for v in ring[ring != pole]:
        interior = disk.copy()
        interior[v] = True
        cases.append((lap, interior))
    fired = []
    for matrix, interior in cases:
        stored = matrix[np.flatnonzero(interior)][:, np.isinf(h)].nnz > 0
        try:
            dirichlet_solve(icosphere1, matrix, h, interior)
        except SolveError as exc:
            assert "vertex at infinity is coupled" in str(exc)
            fired.append(True)
        else:
            fired.append(False)
        assert fired[-1] == stored
    assert fired[:2] == [False, True] and all(fired[2:])


def test_vertex_at_infinity_among_boundary_is_kept(icosphere1):
    lap, h = pole_plane(icosphere1)
    interior = disk_interior(h)
    out = dirichlet_solve(icosphere1, lap, h, interior)
    assert np.array_equal(np.isinf(out), np.isinf(h))
    assert np.array_equal(out[~interior], h[~interior])
    # the interior rows of the Laplacian vanish on the solved plane
    finite = np.where(np.isinf(out), 0.0, out)
    assert np.abs(lap[interior] @ finite).max() <= 1e-12 * np.abs(finite).max()


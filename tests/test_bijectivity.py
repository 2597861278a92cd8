from types import SimpleNamespace

import numpy as np
import pytest

from authalic.energy import energy_report_per_face
from authalic.errors import DegenerateFaceError
from authalic.sphere import (PlanarPoints, count_folds, inverse_stereographic, invert_plane,
                             project_to_manifold, stereographic)
from authalic.fpi import _interior_mask, dirichlet_solve
from authalic.unfold import assemble_mean_value, correct_bijectivity

from helpers import dense_mean_value_laplacian, inverted_vertex_map, regular_tetrahedron


def planar_layout(surface, seed=0):
    """A generic planar image of the mesh for assembly tests."""
    h = stereographic(project_to_manifold(surface.vertices))
    rng = np.random.default_rng(seed)
    return h.values + 0.01 * (rng.normal(size=h.n) + 1j * rng.normal(size=h.n))


def test_equilateral_mean_value_weight_hand_value():
    # the oracle on an equilateral corner gives tan(30 degrees)/side;
    # module output is then checked against the oracle on real layouts
    tri = np.array([0.0, 1.0, np.exp(1j * np.pi / 3.0)])
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    phi = abs(np.angle(v / u))
    assert np.tan(phi / 2.0) / abs(tri[1] - tri[0]) == pytest.approx(1.0 / np.sqrt(3.0))


def test_mean_value_matches_dense_oracle(icosphere1):
    h = planar_layout(icosphere1)
    ours = assemble_mean_value(icosphere1, PlanarPoints.finite(h)).toarray()
    oracle = dense_mean_value_laplacian(icosphere1, h)
    assert np.abs(ours - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_mean_value_leaves_a_vertex_at_infinity_out(icosphere1):
    h = planar_layout(icosphere1, seed=3)
    at_infinity = np.zeros(h.size, dtype=bool)
    v = int(np.argmax(np.abs(h)))
    at_infinity[v] = True
    lap = assemble_mean_value(icosphere1, PlanarPoints(values=h, at_infinity=at_infinity))
    # no stored entry couples the vertex at infinity, not even a zero
    assert lap[v].nnz == 0 and lap[:, v].nnz == 0
    finite = SimpleNamespace(faces=icosphere1.faces[(icosphere1.faces != v).all(axis=1)])
    oracle = dense_mean_value_laplacian(finite, h)
    assert np.abs(lap.toarray() - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_mean_value_rows_sum_to_zero(icosphere1):
    h = planar_layout(icosphere1, seed=1)
    lap = assemble_mean_value(icosphere1, PlanarPoints.finite(h))
    assert np.abs(np.asarray(lap.sum(axis=1))).max() <= 1e-10 * np.abs(lap.data).max()


def test_mean_value_unsymmetric_with_negative_offdiagonals(icosphere1):
    h = planar_layout(icosphere1, seed=2)
    lap = assemble_mean_value(icosphere1, PlanarPoints.finite(h)).toarray()
    assert np.abs(lap - lap.T).max() > 1e-8 * np.abs(lap).max()
    off = lap[~np.eye(lap.shape[0], dtype=bool)]
    # fold-free planar configurations have convex angles: weights positive
    assert (off <= 1e-14).all()


def test_mean_value_coincident_points_rejected():
    tetra = regular_tetrahedron()
    h = np.array([0.0, 1.0, 1.0, 2.0 + 1j])  # two adjacent vertices coincide
    with pytest.raises(DegenerateFaceError, match="coincident"):
        assemble_mean_value(tetra, PlanarPoints.finite(h))


def test_mean_value_straight_angle_rejected():
    tetra = regular_tetrahedron()
    h = np.array([0.0, 1.0, 0.5 + 0j, 1.0 + 2j])  # vertex 2 sits on edge (0,1)
    with pytest.raises(DegenerateFaceError, match="degenerate"):
        assemble_mean_value(tetra, PlanarPoints.finite(h))


def sweep_holding_boundary(surface, f):
    """One southern+northern sweep of mean-value solves, run directly;
    each pass must return every vertex outside its disk bitwise unchanged."""
    h = stereographic(f)
    for _ in ("south", "north"):
        interior = _interior_mask(h)
        out = dirichlet_solve(surface, assemble_mean_value(surface, h), h, interior)
        assert np.array_equal(out.values[~interior], h.values[~interior])
        assert np.array_equal(out.at_infinity, h.at_infinity)
        h = invert_plane(out)
    return inverse_stereographic(h)


def test_fold_free_mapping_is_fixed_point(icosphere2):
    f = icosphere2.vertices.copy()
    # embedded configurations are reproduced by the mean-value solve on
    # both hemispheres
    assert np.abs(sweep_holding_boundary(icosphere2, f) - f).max() <= 1e-9
    # so a fold-free mapping is returned as given, with no sweep
    result = correct_bijectivity(icosphere2, f)
    assert result.folds_before == 0
    assert result.folds_after == 0
    assert result.sweeps == 0
    assert np.array_equal(result.mapping, f)


def test_constructed_fold_removed(icosphere2):
    f = inverted_vertex_map(icosphere2)
    before = count_folds(icosphere2, f)
    assert before >= 1

    result = correct_bijectivity(icosphere2, f)
    assert result.folds_before == before
    assert result.folds_after == 0
    assert result.sweeps == 1
    # that sweep, run directly, holds each pass's boundary
    assert np.array_equal(sweep_holding_boundary(icosphere2, f), result.mapping)
    assert np.abs(np.linalg.norm(result.mapping, axis=1) - 1.0).max() <= 1e-12


def test_correction_preserves_quality_when_clean(ellipsoid3):
    from authalic.fpi import conformal_initial_map
    f = conformal_initial_map(ellipsoid3)
    before = energy_report_per_face(ellipsoid3, f).authalic
    result = correct_bijectivity(ellipsoid3, f)
    after = energy_report_per_face(ellipsoid3, result.mapping).authalic
    assert after == pytest.approx(before, abs=1e-6 * max(1.0, abs(before)))

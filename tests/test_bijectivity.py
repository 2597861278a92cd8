import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from authalic.energy import euclidean_gradient, face_geometry
from authalic.errors import DegenerateFaceError
from authalic.sphere import (count_folds, inverse_stereographic, project_to_manifold,
                             stereographic)
from authalic.fpi import dirichlet_solve, disk_interior
from authalic.unfold import _solve_pass, assemble_mean_value, correct_bijectivity

from helpers import (conformal_start, dense_mean_value_laplacian, inverted_vertex_map,
                     regular_tetrahedron)


def planar_layout(surface, seed=0):
    """A generic planar image of the mesh for assembly tests."""
    h = stereographic(project_to_manifold(surface.vertices))
    h[np.isinf(h)] = 0.0  # the north-pole vertex, laid out at the origin
    rng = np.random.default_rng(seed)
    return h + 0.01 * (rng.normal(size=h.size) + 1j * rng.normal(size=h.size))


def test_equilateral_mean_value_weight_hand_value():
    # the oracle on an equilateral corner gives tan(30 degrees)/side;
    # module output is then checked against the oracle on real layouts
    tri = np.array([0.0, 1.0, np.exp(1j * np.pi / 3.0)])
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    phi = abs(np.angle(v / u))
    assert np.tan(phi / 2.0) / abs(tri[1] - tri[0]) == pytest.approx(1.0 / np.sqrt(3.0))


def test_mean_value_matches_dense_oracle(icosphere1):
    h = planar_layout(icosphere1)
    ours = assemble_mean_value(icosphere1, h).toarray()
    oracle = dense_mean_value_laplacian(icosphere1, h)
    assert np.abs(ours - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_mean_value_leaves_a_vertex_at_infinity_out(icosphere1):
    h = planar_layout(icosphere1, seed=3)
    v = int(np.argmax(np.abs(h)))
    plane = h.copy()
    plane[v] = np.inf
    lap = assemble_mean_value(icosphere1, plane)
    # no stored entry couples the vertex at infinity, not even a zero
    assert lap[v].nnz == 0 and lap[:, v].nnz == 0
    finite = SimpleNamespace(faces=icosphere1.faces[(icosphere1.faces != v).all(axis=1)])
    oracle = dense_mean_value_laplacian(finite, h)
    assert np.abs(lap.toarray() - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_mean_value_rows_sum_to_zero(icosphere1):
    h = planar_layout(icosphere1, seed=1)
    lap = assemble_mean_value(icosphere1, h)
    assert np.abs(np.asarray(lap.sum(axis=1))).max() <= 1e-10 * np.abs(lap.data).max()


def test_mean_value_unsymmetric_with_negative_offdiagonals(icosphere1):
    h = planar_layout(icosphere1, seed=2)
    lap = assemble_mean_value(icosphere1, h).toarray()
    assert np.abs(lap - lap.T).max() > 1e-8 * np.abs(lap).max()
    off = lap[~np.eye(lap.shape[0], dtype=bool)]
    # fold-free planar configurations have convex angles: weights positive
    assert (off <= 1e-14).all()


def test_mean_value_coincident_points_rejected():
    tetra = regular_tetrahedron()
    h = np.array([0.0, 1.0, 1.0, 2.0 + 1j])  # two adjacent vertices coincide
    with pytest.raises(DegenerateFaceError, match="coincident"):
        assemble_mean_value(tetra, h)


def test_mean_value_straight_angle_rejected():
    tetra = regular_tetrahedron()
    h = np.array([0.0, 1.0, 0.5 + 0j, 1.0 + 2j])  # vertex 2 sits on edge (0,1)
    with pytest.raises(DegenerateFaceError, match="degenerate"):
        assemble_mean_value(tetra, h)


coordinate = st.floats(-1.0, 1.0)
# the moved corner's remaining distance, as a share of its first: 0 (on
# the opposite edge, or on a neighbour) or 1e-18 to 1
gap = st.just(0.0) | st.floats(1.0, 18.0).map(lambda e: 10.0 ** -e)
# where on the opposite edge it goes: 0 and 1 are the neighbours
edge_point = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(coordinate, min_size=6, max_size=6), edge_point, gap,
       st.integers(0, 2))
# an edge of 2.2e-309 at a 45-degree corner: the divisor passes, the weight overflows
@example([0.0, 0.0, 0.0, 1.0, 1.0, 2.225073858507203e-309], 1.0, 0.0, 0)
def test_a_corner_moved_toward_its_opposite_edge_is_finite_or_named(xy, s, share, corner):
    a, b, c = (complex(x, y) for x, y in zip(xy[::2], xy[1::2]))
    target = b + s * (c - b)
    moved = target + share * (a - target)
    # face 0 is a healthy triangle; face 1 holds the moved corner at `corner`
    surface = SimpleNamespace(n_vertices=6, faces=np.array(
        [[3, 4, 5], np.roll([0, 1, 2], corner)]))
    h = np.array([moved, b, c, 5.0, 6.0, 5.0 + 1j])
    try:
        lap = assemble_mean_value(surface, h)
    except DegenerateFaceError as exc:
        assert exc.face_index == 1
        assert re.fullmatch(r"degenerate planar corner [0-2] of face 1: straight or coincident",
                            str(exc))
    else:
        assert np.isfinite(lap.data).all()
        assert moved not in (b, c)


def sweep_holding_boundary(surface, f):
    """One sweep of mean-value solves, run directly: a pass projected from
    the north pole, then one from the south pole, each lifting only its
    disk; each solve must return every vertex outside its disk bitwise
    unchanged."""
    for pole in (1.0, -1.0):
        h = stereographic(f, pole)
        interior = disk_interior(h)
        out = dirichlet_solve(surface, assemble_mean_value(surface, h), h, interior)
        assert np.array_equal(out[~interior], h[~interior])
        assert np.array_equal(np.isinf(out), np.isinf(h))
        f = np.where(interior[:, None], inverse_stereographic(out, pole), f)
    return f


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


def test_a_nan_image_face_is_a_fold_and_degenerate(icosphere2):
    # NaN compares false with every bound, so each rule reads "not
    # positive", not "negative or zero": the five faces around vertex 5
    # are folds, no energy or gradient is computed, and the correction
    # fails with a typed error instead of returning the map as fold-free
    f = icosphere2.vertices.copy()
    f[5] = np.nan
    assert count_folds(icosphere2, f) == 5
    with pytest.raises(DegenerateFaceError, match="area nan"):
        euclidean_gradient(icosphere2, f)
    with pytest.raises(DegenerateFaceError, match="total image area nan is not positive"):
        face_geometry(icosphere2, f).stretch
    with pytest.raises(DegenerateFaceError):
        correct_bijectivity(icosphere2, f)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_correction_names_the_first_non_finite_row(icosphere2, value):
    # checked before any projection: no division warns and no solve runs
    f = icosphere2.vertices.copy()
    f[[5, 9], 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFaceError, match="row 5 of the mapping is not finite"):
            correct_bijectivity(icosphere2, f)


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


@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_a_pass_returns_the_rows_outside_its_disk_unchanged(icosphere2, pole):
    f = inverted_vertex_map(icosphere2)
    interior = disk_interior(stereographic(f, pole))
    out = _solve_pass(icosphere2, f, pole)
    assert interior.any() and not interior.all()
    # bitwise on the sphere: those rows are never projected and lifted back
    assert np.array_equal(out[~interior], f[~interior])
    assert not np.array_equal(out[interior], f[interior])


def test_correction_preserves_quality_when_clean(ellipsoid3):
    f = conformal_start(ellipsoid3)
    before = face_geometry(ellipsoid3, f).authalic
    result = correct_bijectivity(ellipsoid3, f)
    after = face_geometry(ellipsoid3, result.mapping).authalic
    assert after == pytest.approx(before, abs=1e-6 * max(1.0, abs(before)))

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from authalic.errors import MeshTopologyError
from authalic.fpi import disk_interior
from authalic.mesh import build_surface
from authalic.sphere import (count_folds, inverse_stereographic, project_tangent,
                             project_to_manifold, retract, stereographic)

finite_rows = arrays(np.float64, (6, 3),
                     elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False))


def unit_rows(rows):
    norms = np.linalg.norm(rows, axis=1)
    return norms.min() > 1e-3


def test_project_tangent_examples():
    f = np.array([[0.0, 0.0, 1.0]] * 3)
    g = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 5.0], [1.0, 2.0, 3.0]])
    out = project_tangent(f, g)
    assert np.allclose(out, [[1, 0, 0], [0, 0, 0], [1, 2, 0]], atol=1e-15)


def test_project_tangent_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        project_tangent(np.zeros((2, 3)), np.zeros((3, 3)))


@settings(max_examples=50)
@given(finite_rows, finite_rows)
def test_project_tangent_idempotent_and_orthogonal(raw_f, g):
    if not unit_rows(raw_f):
        return
    f = project_to_manifold(raw_f)
    once = project_tangent(f, g)
    twice = project_tangent(f, once)
    assert np.abs(once - twice).max() <= 1e-12 * max(1.0, np.abs(g).max())
    assert np.abs(np.sum(f * once, axis=1)).max() <= 1e-10 * max(1.0, np.abs(g).max())


def test_retract_examples():
    f = np.array([[1.0, 0.0, 0.0]])
    assert np.array_equal(retract(f, np.zeros((1, 3))), f)
    out = retract(f, np.array([[0.0, 1.0, 0.0]]))
    assert np.allclose(out, [[1 / np.sqrt(2), 1 / np.sqrt(2), 0]], atol=1e-15)


def test_retract_antipodal_error():
    f = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="retraction undefined"):
        retract(f, -f)


@settings(max_examples=50)
@given(finite_rows, finite_rows)
def test_retract_rows_unit(raw_f, xi):
    if not unit_rows(raw_f):
        return
    f = project_to_manifold(raw_f)
    step = project_tangent(f, xi)
    if np.linalg.norm(f + step, axis=1).min() < 1e-6:
        return
    out = retract(f, step)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12


def test_project_to_manifold_examples():
    out = project_to_manifold(np.array([[0.0, 0.0, 2.0], [3.0, 4.0, 0.0]]))
    assert np.allclose(out, [[0, 0, 1], [0.6, 0.8, 0]], atol=1e-15)
    again = project_to_manifold(out)
    assert np.abs(again - out).max() <= 1e-15
    with pytest.raises(ValueError, match="zero row"):
        project_to_manifold(np.zeros((1, 3)))


def test_stereographic_examples():
    f = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    h = stereographic(f)
    assert h[0] == 0
    assert h[1] == 1
    assert np.isinf(h).tolist() == [False, False, True]


def test_inverse_stereographic_examples():
    out = inverse_stereographic(np.array([0.0, 1.0], dtype=np.complex128))
    assert np.allclose(out, [[0, 0, -1], [1, 0, 0]], atol=1e-15)
    infinity = np.array([np.inf + 0j])
    assert np.array_equal(inverse_stereographic(infinity), [[0.0, 0.0, 1.0]])
    # huge magnitudes approach the north pole without overflowing
    out = inverse_stereographic(np.array([1e200 + 0j]))
    assert np.allclose(out, [[0, 0, 1]], atol=1e-15)


@settings(max_examples=50)
@given(finite_rows)
def test_stereographic_round_trip(raw_f):
    if not unit_rows(raw_f):
        return
    f = project_to_manifold(raw_f)
    if (f[:, 2] > 1.0 - 1e-6).any():
        return
    back = inverse_stereographic(stereographic(f))
    assert np.abs(back - f).max() <= 1e-12


def test_south_pole_stereographic_examples():
    f = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    h = stereographic(f, -1.0)
    assert np.isinf(h).tolist() == [True, False, False, False]
    assert h[1] == 0
    # the equator stays on the unit circle
    assert h[2] == 1 and h[3] == -1j
    out = inverse_stereographic(h, -1.0)
    assert np.array_equal(out[0], [0.0, 0.0, -1.0])
    assert np.allclose(out[1:], f[1:], atol=1e-15)


@settings(max_examples=50)
@given(finite_rows)
def test_south_pole_plane_is_the_inverted_north_plane(raw_f):
    if not unit_rows(raw_f):
        return
    f = project_to_manifold(raw_f)
    f = f[np.abs(f[:, 2]) <= 1.0 - 1e-6]
    if not f.size:
        return
    north, south = stereographic(f), stereographic(f, -1.0)
    inverted = 1.0 / np.conj(north)
    # a row is unit only to rounding, and the identity amplifies its norm
    # error by 1 / (1 - z^2), which reaches 5e5 at the rows' limit
    tol = 1e-12 + 1e-15 / (1.0 - f[:, 2] ** 2)
    assert (np.abs(south - inverted) / np.abs(inverted) <= tol).all()
    for pole in (1.0, -1.0):
        back = inverse_stereographic(stereographic(f, pole), pole)
        assert np.abs(back - f).max() <= 1e-12


near_pole = st.tuples(st.floats(-1e-7, 1e-7), st.floats(-1e-7, 1e-7), st.floats(0.0, 3e-15))


@settings(max_examples=50)
@given(finite_rows, st.lists(near_pole, min_size=1, max_size=6), st.sampled_from([1.0, -1.0]))
def test_pole_rows_go_to_infinity_and_back(raw_f, near, pole):
    # the rows on both poles, rows within a few 1e-15 of the projection's
    # pole, on either side of the threshold, and generic rows
    f = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    f += [[x, y, pole * (1.0 - d)] for x, y, d in near]
    if unit_rows(raw_f):
        f += project_to_manifold(raw_f).tolist()
    f = np.array(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = stereographic(f, pole)
        interior = disk_interior(h)
        back = inverse_stereographic(h, pole)
    at_pole = 1.0 - pole * f[:, 2] < 1e-15
    assert np.array_equal(np.isinf(h), at_pole)
    assert np.isfinite(h[~at_pole]).all()
    assert not interior[at_pole].any()
    assert (back[at_pole] == (0.0, 0.0, pole)).all()


def test_count_folds(icosphere2):
    f = icosphere2.vertices
    assert count_folds(icosphere2, f) == 0
    flipped = icosphere2.faces.copy()
    flipped[5] = flipped[5, [0, 2, 1]]
    # build_surface rejects the inconsistently oriented list
    with pytest.raises(MeshTopologyError, match="inconsistently oriented"):
        build_surface(icosphere2.vertices, flipped)
    surf = dataclasses.replace(icosphere2, faces=flipped)
    assert count_folds(surf, f) == 1


def test_degenerate_face_is_a_fold(icosphere2):
    f = icosphere2.vertices.copy()
    i, j, k = icosphere2.faces[0]
    f[k] = f[j]  # collapses edge jk: both faces on it get det exactly 0
    assert count_folds(icosphere2, f) == 2

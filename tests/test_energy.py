import numpy as np
import pytest

from authalic.energy import (area_gradient, assemble_global_hessian, assemble_laplacian,
                             energy_report_per_face, euclidean_gradient,
                             face_geometry, face_hessian, image_area_gradient,
                             image_area_gradient_via_laplacian, _corner_weights)
from authalic.errors import DegenerateFaceError
from authalic.mesh import build_surface
from authalic.sphere import project_tangent, project_to_manifold, retract

from helpers import (central_difference_gradient, dense_stretch_laplacian,
                     inverted_vertex_map, laplacian_stretch, random_tetrahedron,
                     regular_tetrahedron)


def perturbed_mapping(surface, seed, amplitude=0.05):
    rng = np.random.default_rng(seed)
    return project_to_manifold(surface.vertices
                               + amplitude * rng.normal(size=surface.vertices.shape))


# ---------------------------------------------------------------------------
# Laplacian assembly
# ---------------------------------------------------------------------------

def test_equilateral_corner_weight():
    # identity mapping of a regular tetrahedron: every image angle is 60
    # degrees, so each corner weight is cot(60)/2 = 1/(2 sqrt 3) and each
    # off-diagonal accumulates two such faces
    tetra = regular_tetrahedron()
    lap = assemble_laplacian(tetra, face_geometry(tetra, tetra.vertices)).toarray()
    expected = -2.0 / (2.0 * np.sqrt(3.0))
    off = lap[~np.eye(4, dtype=bool)]
    assert off == pytest.approx(expected, rel=1e-12)


def test_laplacian_rows_sum_to_zero(icosphere2):
    f = perturbed_mapping(icosphere2, 0)
    lap = assemble_laplacian(icosphere2, face_geometry(icosphere2, f))
    scale = np.abs(lap.data).max()
    assert np.abs(np.asarray(lap.sum(axis=1))).max() <= 1e-10 * scale


def test_laplacian_matches_dense_oracle(icosphere1):
    f = perturbed_mapping(icosphere1, 1)
    ours = assemble_laplacian(icosphere1, face_geometry(icosphere1, f)).toarray()
    oracle = dense_stretch_laplacian(icosphere1, f)
    assert np.abs(ours - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_laplacian_symmetric(icosphere1):
    f = perturbed_mapping(icosphere1, 2)
    lap = assemble_laplacian(icosphere1, face_geometry(icosphere1, f))
    assert np.abs((lap - lap.T).toarray()).max() <= 1e-14 * np.abs(lap.data).max()


def test_laplacian_invariant_under_face_relabeling(icosphere1):
    f = perturbed_mapping(icosphere1, 3)
    perm = np.random.default_rng(0).permutation(icosphere1.n_faces)
    shuffled = build_surface(icosphere1.vertices, icosphere1.faces[perm])
    a = assemble_laplacian(icosphere1, face_geometry(icosphere1, f)).sorted_indices()
    b = assemble_laplacian(shuffled, face_geometry(shuffled, f)).sorted_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_face_geometry_bitwise_matches_row_gather(icosphere2):
    # the flat corner gather returns the same bits as gathering f[faces]
    f = perturbed_mapping(icosphere2, seed=5, amplitude=0.3)
    geom = face_geometry(icosphere2, f, check=False)
    p = f[icosphere2.faces]
    e_ij, e_ik, e_jk = p[:, 0] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]
    a12 = e_ij[:, 0] * e_ik[:, 1] - e_ij[:, 1] * e_ik[:, 0]
    a13 = e_ij[:, 0] * e_ik[:, 2] - e_ij[:, 2] * e_ik[:, 0]
    a23 = e_ij[:, 1] * e_ik[:, 2] - e_ij[:, 2] * e_ik[:, 1]
    reference = {
        "e_ij": e_ij, "e_ik": e_ik, "e_jk": e_jk, "a12": a12, "a13": a13, "a23": a23,
        "image_areas": 0.5 * np.sqrt(a12 * a12 + a13 * a13 + a23 * a23),
        "ref_areas": icosphere2.face_areas,
        "orientation": p[:, 0, 0] * a23 - p[:, 0, 1] * a13 + p[:, 0, 2] * a12,
    }
    for name, want in reference.items():
        assert np.array_equal(getattr(geom, name), want), name


def test_corner_weights_bitwise_match_row_gather(icosphere2):
    # einsum sums a strided row in another order; the Laplacian weights
    # must not depend on the geometry's memory layout
    f = perturbed_mapping(icosphere2, seed=6, amplitude=0.3)
    p = f[icosphere2.faces]
    e_ij, e_ik, e_jk = p[:, 0] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]
    inv4a = 1.0 / (4.0 * icosphere2.face_areas)
    reference = (np.einsum("ij,ij->i", e_ij, e_ik) * inv4a,
                 np.einsum("ij,ij->i", e_ij, -e_jk) * inv4a,
                 np.einsum("ij,ij->i", e_ik, e_jk) * inv4a)
    for got, want in zip(_corner_weights(icosphere2, face_geometry(icosphere2, f)), reference):
        assert np.array_equal(got, want)


def test_orientation_sign_matches_determinant(icosphere2):
    rng = np.random.default_rng(3)
    maps = [project_to_manifold(rng.normal(size=(icosphere2.n_vertices, 3)))
            for _ in range(5)]
    maps.append(inverted_vertex_map(icosphere2))
    for f in maps:
        geom = face_geometry(icosphere2, f, check=False)
        # independent oracle: det [f_i; f_j; f_k] of the stacked corner rows
        det = np.linalg.det(f[icosphere2.faces])
        assert np.array_equal(np.sign(geom.orientation), np.sign(det))
        assert geom.folds == int((det < 0).sum()) > 0


def test_degenerate_image_face_rejected(icosphere1):
    f = icosphere1.vertices.copy()
    i, j, k = icosphere1.faces[4]
    f[k] = f[j]
    with pytest.raises(DegenerateFaceError) as err:
        assemble_laplacian(icosphere1, face_geometry(icosphere1, f, check=False))
    assert err.value.face_index is not None


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def test_identity_on_unit_sphere_mesh_is_area_preserving(icosphere2):
    rep = energy_report_per_face(icosphere2, icosphere2.vertices)
    quadratic = laplacian_stretch(icosphere2, icosphere2.vertices)
    assert abs(rep.authalic) <= 1e-10
    assert abs(quadratic - rep.image_area) <= 1e-10
    assert quadratic == pytest.approx(icosphere2.total_area, rel=1e-12)
    assert rep.stretch == pytest.approx(icosphere2.total_area, rel=1e-12)
    assert rep.image_area == pytest.approx(icosphere2.total_area, rel=1e-12)
    assert rep.normalized == pytest.approx(icosphere2.total_area, rel=1e-12)


def test_uniform_scale_per_face_energy():
    tetra = regular_tetrahedron()
    s = 1.7
    geom = face_geometry(tetra, s * tetra.vertices, check=False)
    per_face = geom.image_areas**2 / geom.ref_areas
    assert per_face == pytest.approx(s**4 * tetra.face_areas, rel=1e-12)
    rep = energy_report_per_face(tetra, s * tetra.vertices)
    quadratic = laplacian_stretch(tetra, s * tetra.vertices)
    total = tetra.total_area
    for stretch in (rep.stretch, quadratic):
        assert stretch == pytest.approx(s**4 * total, rel=1e-12)
        assert stretch - rep.image_area == pytest.approx(s**4 * total - s**2 * total,
                                                         rel=1e-12)


def test_matrix_and_per_face_energy_agree(icosphere2):
    f = perturbed_mapping(icosphere2, 4)
    quadratic = laplacian_stretch(icosphere2, f)
    rep = energy_report_per_face(icosphere2, f)
    assert abs(quadratic - rep.stretch) <= 1e-10 * rep.stretch
    assert rep.normalized == pytest.approx(icosphere2.total_area / rep.image_area * quadratic,
                                           rel=1e-12)


def test_authalic_identity_and_nonnegativity(icosphere2):
    # identity is area preserving; modest on-sphere perturbations only
    # increase the energy above the image area
    f0 = icosphere2.vertices
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for amplitude in (1e-3, 1e-2, 0.1):
            xi = project_tangent(f0, amplitude * rng.normal(size=f0.shape))
            rep = energy_report_per_face(icosphere2, retract(f0, xi))
            assert rep.authalic >= -1e-10
            assert rep.authalic == pytest.approx(rep.stretch - rep.image_area, abs=1e-14)


# ---------------------------------------------------------------------------
# Image-area gradient
# ---------------------------------------------------------------------------

def test_single_face_partial_hand_value():
    # face image (1,0,0), (0,1,0), (0,0,1): projected doubled areas are
    # a12 = 1, a13 = -1, a23 = 1, area sqrt(3)/2, and dA/df_i^1 = 1/sqrt(3)
    tetra = regular_tetrahedron()
    f = tetra.vertices.copy()
    i, j, k = tetra.faces[0]
    f[i], f[j], f[k] = np.eye(3)
    geom = face_geometry(tetra, f)
    assert geom.a12[0] == pytest.approx(1.0)
    assert geom.a13[0] == pytest.approx(-1.0)
    assert geom.a23[0] == pytest.approx(1.0)
    assert geom.image_areas[0] == pytest.approx(np.sqrt(3.0) / 2.0)
    # image_area_gradient sums every face at f_i; weighting face 0 alone
    # leaves its own partial, and unit weights give image_area_gradient
    face0 = np.eye(tetra.n_faces)[0]
    assert area_gradient(tetra, geom, face0)[i, 0] == pytest.approx(1.0 / np.sqrt(3.0),
                                                                    rel=1e-14)
    per_face = sum(area_gradient(tetra, geom, w) for w in np.eye(tetra.n_faces))
    np.testing.assert_allclose(image_area_gradient(tetra, f), per_face, rtol=1e-14,
                               atol=1e-15)


def test_area_gradient_dual_routes_on_random_faces():
    # 25 random tetrahedra x 4 faces = 100 random face geometries
    rng = np.random.default_rng(42)
    for _ in range(25):
        surf = random_tetrahedron(rng)
        f = rng.normal(size=(4, 3))
        while face_geometry(surf, f, check=False).image_areas.min() < 1e-3:
            f = rng.normal(size=(4, 3))
        a = image_area_gradient(surf, f)
        b = image_area_gradient_via_laplacian(surf, f)
        assert np.abs(a - b).max() <= 1e-10 * max(np.abs(a).max(), 1.0)


def test_area_gradient_matches_finite_differences(icosphere1):
    f = perturbed_mapping(icosphere1, 2)
    grad = image_area_gradient(icosphere1, f)
    fd = central_difference_gradient(
        lambda g: energy_report_per_face(icosphere1, g).image_area, f)
    mask = np.abs(grad) > 1e-8
    rel = np.abs(fd - grad)[mask] / np.abs(grad)[mask]
    assert rel.max() <= 1e-6


# ---------------------------------------------------------------------------
# Objective gradient
# ---------------------------------------------------------------------------

def test_euclidean_gradient_matches_finite_differences(icosphere2):
    f = perturbed_mapping(icosphere2, 12)
    grad = euclidean_gradient(icosphere2, f)
    fd = central_difference_gradient(
        lambda g: energy_report_per_face(icosphere2, g).normalized, f)
    mask = np.abs(grad) > 1e-8
    rel = np.abs(fd - grad)[mask] / np.abs(grad)[mask]
    assert rel.max() <= 1e-6


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def stretch_gradient_vec(surface, f):
    lap = assemble_laplacian(surface, face_geometry(surface, f))
    return (2.0 * (lap @ f)).T.ravel()


def test_face_hessian_properties(icosphere1):
    f = perturbed_mapping(icosphere1, 5)
    block = face_hessian(icosphere1, f, 7)
    assert np.abs(block - block.T).max() <= 1e-12 * np.abs(block).max()
    for s in range(3):
        translation = np.tile(np.eye(3)[s], 3)
        assert np.abs(block @ translation).max() <= 1e-12 * np.abs(block).max()


def test_face_hessian_matches_finite_differences(icosphere1):
    f = perturbed_mapping(icosphere1, 5)
    fi = 7
    idx = icosphere1.faces[fi]
    block = face_hessian(icosphere1, f, fi)
    eps = 1e-5
    fd = np.zeros((9, 9))
    for a in range(9):
        ca, sa = divmod(a, 3)
        for b in range(9):
            cb, sb = divmod(b, 3)

            def at(da, db):
                g = f.copy()
                g[idx[ca], sa] += da
                g[idx[cb], sb] += db
                geom = face_geometry(icosphere1, g, check=False)
                return geom.image_areas[fi]**2 / geom.ref_areas[fi]

            fd[a, b] = (at(eps, eps) - at(eps, -eps)
                        - at(-eps, eps) + at(-eps, -eps)) / (4 * eps * eps)
    assert np.abs(block - fd).max() <= 1e-5 * np.abs(block).max()


def test_global_hessian_matches_finite_differences(icosphere1):
    f = perturbed_mapping(icosphere1, 6)
    n = icosphere1.n_vertices
    hess = assemble_global_hessian(icosphere1, f).toarray()
    vec = f.T.ravel()
    eps = 1e-6
    fd = np.zeros((3 * n, 3 * n))
    for col in range(3 * n):
        bump = np.zeros(3 * n)
        bump[col] = eps
        plus = stretch_gradient_vec(icosphere1, (vec + bump).reshape(3, n).T)
        minus = stretch_gradient_vec(icosphere1, (vec - bump).reshape(3, n).T)
        fd[:, col] = (plus - minus) / (2 * eps)
    scale = np.abs(hess).max()
    assert np.abs(hess - fd).max() <= 1e-5 * scale
    assert np.abs(hess - hess.T).max() <= 1e-10 * scale
    for s in range(3):
        translation = np.zeros(3 * n)
        translation[s * n:(s + 1) * n] = 1.0
        assert np.abs(hess @ translation).max() <= 1e-10 * scale

from dataclasses import fields

import numpy as np
import pytest

from authalic import energy as en
from authalic.energy import (FaceGeometry, area_gradient, assemble_global_hessian,
                             assemble_laplacian, euclidean_gradient, face_geometry,
                             image_area_gradient, normalized_gradient, spherical_gradient,
                             _corner_blocks, _corner_weights, _cross, _edges)
from authalic.errors import DegenerateFaceError
from authalic.mesh import build_surface, make_icosphere
from authalic.sphere import (count_folds, inverse_stereographic, project_tangent,
                             project_to_manifold, retract, stereographic)

from helpers import (central_difference_gradient, dense_stretch_laplacian,
                     image_area_gradient_via_laplacian, inverted_vertex_map, laplacian_stretch,
                     random_tetrahedron, regular_tetrahedron, rotation_matrix)


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
    # the flat corner gather returns the same bits as gathering f[faces],
    # and so do the edges the kernels regather from the geometry's mapping
    # and the doubled-area normal they form from those edges
    f = perturbed_mapping(icosphere2, seed=5, amplitude=0.3)
    geom = face_geometry(icosphere2, f)
    p = f[icosphere2.faces]
    e_ij, e_ik, e_jk = p[:, 0] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]
    a12 = e_ij[:, 0] * e_ik[:, 1] - e_ij[:, 1] * e_ik[:, 0]
    a13 = e_ij[:, 0] * e_ik[:, 2] - e_ij[:, 2] * e_ik[:, 0]
    a23 = e_ij[:, 1] * e_ik[:, 2] - e_ij[:, 2] * e_ik[:, 1]
    squared = [e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1] + e[:, 2] * e[:, 2]
               for e in (e_ij, e_ik, e_jk)]
    reference = {
        "image_areas": 0.5 * np.sqrt(a12 * a12 + a13 * a13 + a23 * a23),
        "ref_areas": icosphere2.face_areas,
        "orientation": p[:, 0, 0] * a23 - p[:, 0, 1] * a13 + p[:, 0, 2] * a12,
        "spherical_d": 4.0 - 0.5 * (squared[0] + squared[1] + squared[2]),
    }
    for name, want in reference.items():
        assert np.array_equal(getattr(geom, name), want), name
    assert geom.mapping is f
    (_, _, corners), = _corner_blocks(icosphere2, geom.mapping)
    edges = _edges(corners)
    for got, want in zip(edges, (e_ij, e_ik, e_jk)):
        assert np.array_equal(got.T, want)
    normal = _cross(edges[0], edges[1], np.empty_like(edges[0]), np.empty_like(a12))
    for got, want in zip(normal, (a23, -a13, a12)):
        assert np.array_equal(got, want)


def test_face_geometry_keeps_three_rows_of_its_own(icosphere2):
    # the mapping and the reference areas are held by reference; what a
    # measurement adds is three (m,) float rows, whatever the readers need
    f = perturbed_mapping(icosphere2, seed=5, amplitude=0.3)
    geom = face_geometry(icosphere2, f)
    own = [getattr(geom, field.name) for field in fields(FaceGeometry)
           if field.name not in ("mapping", "ref_areas")]
    assert geom.ref_areas is icosphere2.face_areas
    rows = [a for a in own if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in rows) == 3 * 8 * icosphere2.n_faces


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
        geom = face_geometry(icosphere2, f)
        # independent oracle: det [f_i; f_j; f_k] of the stacked corner rows
        det = np.linalg.det(f[icosphere2.faces])
        assert np.array_equal(np.sign(geom.orientation), np.sign(det))
        assert geom.folds == int((det < 0).sum()) > 0


def test_degenerate_image_face_rejected(icosphere1):
    f = icosphere1.vertices.copy()
    i, j, k = icosphere1.faces[4]
    f[k] = f[j]
    with pytest.raises(DegenerateFaceError) as err:
        assemble_laplacian(icosphere1, face_geometry(icosphere1, f))
    assert err.value.face_index is not None


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def test_identity_on_unit_sphere_mesh_is_area_preserving(icosphere2):
    rep = face_geometry(icosphere2, icosphere2.vertices)
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
    geom = face_geometry(tetra, s * tetra.vertices)
    per_face = geom.image_areas**2 / geom.ref_areas
    assert per_face == pytest.approx(s**4 * tetra.face_areas, rel=1e-12)
    rep = face_geometry(tetra, s * tetra.vertices)
    quadratic = laplacian_stretch(tetra, s * tetra.vertices)
    total = tetra.total_area
    for stretch in (rep.stretch, quadratic):
        assert stretch == pytest.approx(s**4 * total, rel=1e-12)
        assert stretch - rep.image_area == pytest.approx(s**4 * total - s**2 * total,
                                                         rel=1e-12)


def test_matrix_and_per_face_energy_agree(icosphere2):
    f = perturbed_mapping(icosphere2, 4)
    quadratic = laplacian_stretch(icosphere2, f)
    rep = face_geometry(icosphere2, f)
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
            rep = face_geometry(icosphere2, retract(f0, xi))
            assert rep.authalic >= -1e-10
            assert rep.authalic == pytest.approx(rep.stretch - rep.image_area, abs=1e-14)


# ---------------------------------------------------------------------------
# Image-area gradient
# ---------------------------------------------------------------------------

def test_single_face_partial_hand_value():
    # face image (1,0,0), (0,1,0), (0,0,1): projected doubled areas are
    # a12 = 1, a13 = -1, a23 = 1, read off the edge cross product
    # e_ij x e_ik = (a23, -a13, a12) the kernels form; area sqrt(3)/2, and
    # dA/df_i^1 = 1/sqrt(3)
    tetra = regular_tetrahedron()
    f = tetra.vertices.copy()
    i, j, k = tetra.faces[0]
    f[i], f[j], f[k] = np.eye(3)
    geom = face_geometry(tetra, f)
    (_, _, corners), = _corner_blocks(tetra, geom.mapping)
    e_ij, e_ik, _ = _edges(corners)
    a23, minus_a13, a12 = _cross(e_ij, e_ik, np.empty_like(e_ij), np.empty_like(e_ij[0]))[:, 0]
    assert (a12, -minus_a13, a23) == pytest.approx((1.0, -1.0, 1.0))
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
        while face_geometry(surf, f).image_areas.min() < 1e-3:
            f = rng.normal(size=(4, 3))
        a = image_area_gradient(surf, f)
        b = image_area_gradient_via_laplacian(surf, f)
        assert np.abs(a - b).max() <= 1e-10 * max(np.abs(a).max(), 1.0)


def test_area_gradient_matches_finite_differences(icosphere1):
    f = perturbed_mapping(icosphere1, 2)
    grad = image_area_gradient(icosphere1, f)
    fd = central_difference_gradient(
        lambda g: face_geometry(icosphere1, g).image_area, f)
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
        lambda g: face_geometry(icosphere2, g).normalized, f)
    mask = np.abs(grad) > 1e-8
    rel = np.abs(fd - grad)[mask] / np.abs(grad)[mask]
    assert rel.max() <= 1e-6


# ---------------------------------------------------------------------------
# Spherical-area energy
# ---------------------------------------------------------------------------

def test_spherical_gradient_matches_finite_differences(icosphere2):
    # criterion 2's mesh, mapping and bound.  The step is 1e-5: at 1e-6
    # the quotient's roundoff (about 3e-9 on an energy of 12.6) is above
    # 1e-6 of the smallest entries checked (2e-4); the gradient agrees
    # with the 1e-5 quotient to 6e-8
    f = perturbed_mapping(icosphere2, 12)
    grad = spherical_gradient(icosphere2, face_geometry(icosphere2, f))
    fd = central_difference_gradient(
        lambda g: face_geometry(icosphere2, g).spherical_normalized, f, eps=1e-5)
    mask = np.abs(grad) > 1e-8
    rel = np.abs(fd - grad)[mask] / np.abs(grad)[mask]
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# Face blocks
# ---------------------------------------------------------------------------

BLOCK = 300
"""A block size that splits the sub-3 and sub-4 meshes into several blocks,
the last one partial: every tier-1 mesh fits one block of the default size."""


@pytest.fixture(params=["ellipsoid3", "ellipsoid4"])
def blocked(request):
    surface = request.getfixturevalue(request.param)
    assert surface.n_faces % BLOCK and surface.n_faces > 2 * BLOCK
    return surface


def test_face_blocks_cover_every_corner_once(blocked):
    blocks = blocked.corner_blocks(BLOCK)
    m = blocked.n_faces
    assert [(b.start, b.stop) for b, _ in blocks] == [(lo, min(lo + BLOCK, m))
                                                      for lo in range(0, m, BLOCK)]
    # stitched block by block, the corner indices give corner c of face t
    # once each
    stitched = np.concatenate([index.reshape(3, -1) for _, index in blocks], axis=1)
    assert np.array_equal(stitched, blocked.faces.T)
    assert blocked.corner_blocks(BLOCK) is blocks
    (whole, index), = blocked.corner_blocks(m)
    assert (whole.start, whole.stop) == (0, m) and np.array_equal(index, blocked.faces.T.ravel())


def test_face_blocks_keep_geometry_and_laplacian_bitwise(blocked, monkeypatch):
    f = perturbed_mapping(blocked, seed=7, amplitude=0.3)

    def measure():
        geom = face_geometry(blocked, f)
        return geom, assemble_laplacian(blocked, geom)

    one, lap_one = measure()
    monkeypatch.setattr(en, "FACE_BLOCK", BLOCK)
    many, lap_many = measure()
    for field in fields(FaceGeometry):
        assert np.array_equal(getattr(one, field.name), getattr(many, field.name)), field.name
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(lap_one, part), getattr(lap_many, part)), part


def test_face_blocks_keep_gradients_to_roundoff(blocked, monkeypatch):
    # the blocks' scatters add the vertex sums in another order
    f = perturbed_mapping(blocked, seed=8, amplitude=0.1)

    def gradients():
        geom = face_geometry(blocked, f)
        return spherical_gradient(blocked, geom), normalized_gradient(blocked, geom)

    one = gradients()
    monkeypatch.setattr(en, "FACE_BLOCK", BLOCK)
    for want, got in zip(one, gradients()):
        assert got.shape == want.shape and got.flags.f_contiguous
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_finite_difference_checks_hold_on_face_blocks(icosphere1, icosphere2, monkeypatch):
    monkeypatch.setattr(en, "FACE_BLOCK", 32)
    assert len(icosphere1.corner_blocks(32)) > 1
    test_area_gradient_matches_finite_differences(icosphere1)
    test_euclidean_gradient_matches_finite_differences(icosphere2)
    test_spherical_gradient_matches_finite_differences(icosphere2)


def test_spherical_areas_sum_to_four_pi_at_the_identity(icosphere2):
    geom = face_geometry(icosphere2, icosphere2.vertices)
    assert abs(geom.spherical_area - 4.0 * np.pi) <= 1e-12
    # and at any other degree-1 map
    f = perturbed_mapping(icosphere2, 3)
    assert abs(face_geometry(icosphere2, f).spherical_area - 4.0 * np.pi) <= 1e-12


def test_spherical_areas_of_the_octahedron_are_octants():
    # Girard: the geodesic triangle of three orthogonal unit vectors has
    # area pi / 2
    v = np.concatenate([np.eye(3), -np.eye(3)])
    faces = np.array([[0, 1, 2], [1, 3, 2], [3, 4, 2], [4, 0, 2],
                      [1, 0, 5], [3, 1, 5], [4, 3, 5], [0, 4, 5]])
    octahedron = build_surface(v, faces)
    areas = face_geometry(octahedron, v).spherical_areas
    assert np.abs(areas - np.pi / 2).max() <= 1e-15


def test_mirrored_map_has_no_positive_spherical_area(icosphere2):
    mirrored = icosphere2.vertices * np.array([-1.0, 1.0, 1.0])
    geom = face_geometry(icosphere2, mirrored)
    assert abs(geom.spherical_areas.sum() + 4.0 * np.pi) <= 1e-12
    with pytest.raises(DegenerateFaceError, match="total spherical image area"):
        geom.spherical_normalized


def test_degree_tells_a_fold_free_double_cover_from_a_bijection():
    # vertex 0 on the north pole and its antipode, also a vertex, on the
    # south pole: h -> h^2 in the stereographic plane branches at these
    # two vertices only, so every image face keeps its orientation while
    # the map covers the sphere twice
    base = make_icosphere(3)
    v0 = base.vertices[0]
    to_pole = rotation_matrix(np.cross(v0, [0.0, 0.0, 1.0]), np.arccos(v0[2]))
    surface = build_surface(base.vertices @ to_pole.T, base.faces)
    h = stereographic(surface.vertices)
    with np.errstate(invalid="ignore"):  # inf**2 is inf + nan j, lifted to the pole
        squared = h**2
    double = inverse_stereographic(squared)
    geom = face_geometry(surface, double)
    assert count_folds(surface, double) == geom.folds == 0
    assert geom.image_areas.min() > 0
    assert geom.degree == 2
    assert face_geometry(surface, surface.vertices).degree == 1
    assert face_geometry(surface, surface.vertices * [-1.0, 1.0, 1.0]).degree == -1


def test_degree_of_a_map_with_a_nan_row_raises(icosphere2):
    f = icosphere2.vertices.copy()
    f[0] = np.nan
    with pytest.raises(DegenerateFaceError, match="not finite"):
        face_geometry(icosphere2, f).degree


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def stretch_gradient_vec(surface, f):
    lap = assemble_laplacian(surface, face_geometry(surface, f))
    return (2.0 * (lap @ f)).T.ravel()


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

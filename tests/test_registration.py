import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from authalic import mesh, registration
from authalic.energy import face_geometry, spherical_gradient
from authalic.mesh import build_surface, make_icosphere, normalize_area
from authalic.pipeline import parameterize
from authalic.registration import (RegistrationObjective, compose_registration,
                                   geodesic_mismatch, homotopy_frame, landmark_rotation,
                                   locate_on_sphere, midpoint_targets, register,
                                   solve_alignment)
from authalic.sphere import count_folds, project_tangent, project_to_manifold

from helpers import (central_difference_gradient, inverted_vertex_map, locate_one_by_one,
                     regular_tetrahedron, rotation_matrix)

PAIRS = np.array([[3, 3], [40, 40], [77, 77], [120, 120], [150, 150]])


@pytest.fixture(scope="module")
def sphere_pair():
    m0 = make_icosphere(2)
    m1 = build_surface(m0.vertices @ rotation_matrix([1.0, 2.0, 3.0], 0.5).T, m0.faces)
    return m0, m1


@pytest.fixture(scope="module")
def landmark_maps():
    """Two unit maps in different frames whose landmarks still differ
    after the best rotation: a sphere mesh, and a perturbed copy of it
    turned by 2 rad."""
    f0 = make_icosphere(2).vertices
    noise = 0.05 * np.random.default_rng(4).normal(size=f0.shape)
    f1 = project_to_manifold(f0 + noise) @ rotation_matrix([1.0, 2.0, 3.0], 2.0).T
    return f0, f1


def test_landmark_rotation_is_proper_and_recovers_a_rotation(landmark_maps):
    f0, _ = landmark_maps
    q = rotation_matrix([-2.0, 0.5, 1.0], 2.5)
    r = landmark_rotation(f0, f0 @ q.T, 1.0)
    assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(r - q.T).max() <= 1e-12


def test_landmark_rotation_is_proper_for_a_mirrored_set(landmark_maps):
    # the best orthogonal map onto a mirror image is the mirror; the
    # helper returns the best proper rotation instead
    f0, _ = landmark_maps
    rows = PAIRS[:, 0]
    mirrored = f0[rows] * np.array([-1.0, 1.0, 1.0])
    r = landmark_rotation(f0[rows], mirrored, 1.0)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    pull = lambda m: np.sum((f0[rows] - mirrored @ m.T) ** 2)
    turns = [rotation_matrix(axis, angle) for axis in np.eye(3)
             for angle in np.linspace(0.0, 2.0 * np.pi, 24)]
    assert pull(r) <= min(pull(t) for t in turns) + 1e-12


def test_midpoints_unit_and_on_minor_arc(landmark_maps):
    f0, f1 = landmark_maps
    c = midpoint_targets(f0, f1, PAIRS)
    assert np.abs(np.linalg.norm(c, axis=1) - 1.0).max() <= 1e-12
    a, b = f0[PAIRS[:, 0]], f1[PAIRS[:, 1]]
    b = b @ landmark_rotation(a, b, 1.0).T
    # equidistant from f0[p] and R f1[q] and strictly inside their arc
    assert np.sum(c * a, axis=1) == pytest.approx(np.sum(c * b, axis=1), abs=1e-12)
    assert (np.sum(c * a, axis=1) > np.sum(a * b, axis=1)).all()


def test_midpoints_are_renormalized_chord_midpoints(landmark_maps):
    f0, f1 = landmark_maps
    c = midpoint_targets(f0, f1, PAIRS)
    a, b = f0[PAIRS[:, 0]], f1[PAIRS[:, 1]]
    chord = 0.5 * (a + b @ landmark_rotation(a, b, 1.0).T)
    assert np.array_equal(c, chord / np.linalg.norm(chord, axis=1)[:, None])


def test_midpoints_do_not_depend_on_the_second_maps_frame(landmark_maps):
    f0, f1 = landmark_maps
    q = rotation_matrix(np.random.default_rng(7).normal(size=3), 1.9)
    turned = midpoint_targets(f0, f1 @ q.T, PAIRS)
    assert np.abs(turned - midpoint_targets(f0, f1, PAIRS)).max() <= 1e-12


def test_antipodal_midpoint_rejected():
    # six pairs on the axes fix R = q^T; the seventh pair is antipodal
    # after it, though not before
    q = rotation_matrix([1.0, 1.0, 0.0], 0.7)
    p = project_to_manifold(np.array([[1.0, 2.0, 2.0]]))
    f0 = np.vstack([np.eye(3), -np.eye(3), p])
    f1 = np.vstack([np.eye(3), -np.eye(3), -p]) @ q.T
    pairs = np.stack([np.arange(7), np.arange(7)], axis=1)
    assert np.linalg.norm(f0[6] + f1[6]) > 0.1
    with pytest.raises(ValueError, match="antipodal"):
        midpoint_targets(f0, f1, pairs)


def registration_gradient(sphere, h, rows, targets, lambdas):
    return RegistrationObjective(sphere, rows, targets, lambdas).value_and_gradient(h)[1]


def test_gradient_without_landmarks_is_stretch_gradient(icosphere1):
    sphere = build_surface(icosphere1.vertices, icosphere1.faces)
    h = icosphere1.vertices
    rows = np.array([], dtype=np.int64)
    grad = registration_gradient(sphere, h, rows, np.zeros((0, 3)), np.zeros(0))
    stretch = spherical_gradient(sphere, face_geometry(sphere, h), h)
    assert np.abs(grad - stretch).max() <= 1e-14


def test_gradient_zero_residual_row(icosphere1):
    sphere = build_surface(icosphere1.vertices, icosphere1.faces)
    h = icosphere1.vertices
    rows = np.array([4])
    targets = h[rows].copy()
    with_lm = registration_gradient(sphere, h, rows, targets, np.array([10.0]))
    without = registration_gradient(sphere, h, np.array([], dtype=int),
                                    np.zeros((0, 3)), np.zeros(0))
    assert np.abs(with_lm - without).max() <= 1e-14


def test_vanishing_weight_recovers_stretch_descent(icosphere1):
    sphere = build_surface(icosphere1.vertices, icosphere1.faces)
    h = project_to_manifold(icosphere1.vertices + 0.01)
    rows = np.array([2, 9])
    targets = project_to_manifold(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    # a weight must be positive, so "vanishing" is the limit from above
    lam0 = registration_gradient(sphere, h, rows, targets, np.array([1e-14, 1e-14]))
    plain = registration_gradient(sphere, h, np.array([], dtype=int),
                                  np.zeros((0, 3)), np.zeros(0))
    assert np.abs(lam0 - plain).max() <= 1e-12


@pytest.mark.parametrize("lam", [0.0, -10.0, np.nan, np.inf, [1.0, 0.0]])
def test_nonpositive_or_nonfinite_weight_rejected(icosphere1, lam):
    sphere = build_surface(icosphere1.vertices, icosphere1.faces)
    rows = np.array([2, 9])
    with pytest.raises(ValueError, match="finite and positive"):
        RegistrationObjective(sphere, rows, sphere.vertices[rows], lam)


def assert_gradient_matches_finite_differences(rows, targets, lam):
    base = make_icosphere(0)
    sphere = build_surface(base.vertices, base.faces)
    rng = np.random.default_rng(0)
    h = project_to_manifold(base.vertices + 0.02 * rng.normal(size=(12, 3)))
    objective = RegistrationObjective(sphere, rows, targets, lam)
    grad = objective.value_and_gradient(h)[1]
    fd = central_difference_gradient(objective.value, h)
    mask = np.abs(grad) > 1e-8
    assert (np.abs(fd - grad)[mask] / np.abs(grad)[mask]).max() <= 1e-6


def test_gradient_matches_finite_differences():
    targets = project_to_manifold(np.array([[0.1, 0.9, 0.2], [-0.5, 0.3, 0.8]]))
    assert_gradient_matches_finite_differences(np.array([2, 7]), targets,
                                               np.array([1.0, 1.0]))


def test_gradient_with_two_landmarks_on_one_vertex():
    # a landmark file may pair one source vertex with two target vertices;
    # both pulls act on that row
    targets = project_to_manifold(np.array([[0.1, 0.9, 0.2], [-0.5, 0.3, 0.8],
                                            [0.7, -0.2, 0.4]]))
    assert_gradient_matches_finite_differences(np.array([2, 2, 7]), targets,
                                               np.array([1.0, 2.0, 1.0]))


def test_gradient_row_out_of_range(icosphere1):
    sphere = build_surface(icosphere1.vertices, icosphere1.faces)
    # a negative row must not wrap around to the last vertices
    for row in (999, -1):
        with pytest.raises(IndexError):
            RegistrationObjective(sphere, np.array([row]), np.zeros((1, 3)), np.array([1.0]))


def test_alignment_with_targets_at_landmarks_keeps_energy_nonincreasing(icosphere2):
    # zero landmark residual: the pull term vanishes but the stretch term
    # may still move vertices, so assert the registration energy itself
    # never increases and the landmarks stay close
    sphere = build_surface(icosphere2.vertices, icosphere2.faces)
    f = icosphere2.vertices
    rows = PAIRS[:, 0]
    targets = f[rows].copy()
    lam = np.full(len(rows), 10.0)
    energy = RegistrationObjective(sphere, rows, targets, lam).value
    before = energy(f)
    result = solve_alignment(sphere, f, rows, targets, lambdas=10.0, iters=20)
    after = energy(result.mapping)
    assert after <= before + 1e-12 * abs(before)
    assert geodesic_mismatch(result.mapping[rows], targets) <= 1e-4


@pytest.fixture(scope="module")
def registered_pair(sphere_pair):
    m0, m1 = sphere_pair
    return register(m0, m1, m0.vertices.copy(), m1.vertices.copy(), PAIRS,
                    lam=10.0, iters=200)


def test_alignment_reduces_mismatch(landmark_maps):
    # a rigidly turned copy keeps no mismatch after the rotation, only
    # roundoff; the perturbed copy keeps about 0.04 rad
    f0, f1 = landmark_maps
    m0 = make_icosphere(2)
    reg = register(m0, build_surface(f1, m0.faces), f0, f1, PAIRS, lam=10.0, iters=200)
    assert reg.mismatch_before >= 0.01
    assert reg.mismatch_after <= 0.1 * reg.mismatch_before
    assert np.abs(np.linalg.norm(reg.h0.mapping, axis=1) - 1.0).max() <= 1e-12


def test_identity_composition(icosphere2):
    f = icosphere2.vertices
    composed = compose_registration(icosphere2, icosphere2, f, f, f, f)
    assert np.abs(composed.points - icosphere2.vertices).max() <= 1e-10
    assert composed.fallback_count == 0
    assert (composed.weights >= 0).all() and (composed.weights <= 1.0 + 1e-12).all()
    assert np.abs(composed.weights.sum(axis=1) - 1.0).max() <= 1e-10


def test_registered_landmarks_land_near_targets(sphere_pair, registered_pair):
    m0, m1 = sphere_pair
    composed = registered_pair.composed
    # each mapped landmark lies in the neighborhood of its partner vertex
    gap = np.linalg.norm(composed.points[PAIRS[:, 0]] - m1.vertices[PAIRS[:, 1]], axis=1)
    edge = np.linalg.norm(m1.vertices[m1.edges[:, 0]] - m1.vertices[m1.edges[:, 1]],
                          axis=1).mean()
    assert (gap <= edge).all()
    assert np.abs(composed.weights.sum(axis=1) - 1.0).max() <= 1e-10


def test_homotopy_endpoints_and_affinity(icosphere2):
    f = icosphere2.vertices
    composed = compose_registration(icosphere2, icosphere2, f, f, f, f)
    assert np.array_equal(homotopy_frame(icosphere2, composed, 0.0), icosphere2.vertices)
    assert np.array_equal(homotopy_frame(icosphere2, composed, 1.0), composed.points)
    mid = homotopy_frame(icosphere2, composed, 0.5)
    expected = 0.5 * (icosphere2.vertices + composed.points)
    assert np.abs(mid - expected).max() <= 1e-15
    # affine in t: interpolating endpoint frames reproduces interior frames
    t = 0.3
    blend = (1 - t) * homotopy_frame(icosphere2, composed, 0.0) \
        + t * homotopy_frame(icosphere2, composed, 1.0)
    assert np.abs(homotopy_frame(icosphere2, composed, t) - blend).max() <= 1e-15


def test_homotopy_parameter_validated(icosphere2):
    f = icosphere2.vertices
    composed = compose_registration(icosphere2, icosphere2, f, f, f, f)
    with pytest.raises(ValueError, match="homotopy"):
        homotopy_frame(icosphere2, composed, 1.5)


def assert_located_as_one_by_one(points, sphere_vertices, faces):
    batched = locate_on_sphere(points, sphere_vertices, faces)
    loop = locate_one_by_one(points, sphere_vertices, faces)
    assert np.array_equal(batched[0], loop[0])
    assert np.array_equal(batched[1], loop[1])
    assert batched[2] == loop[2]
    return batched


def nearest_faces(points, sphere_vertices, faces, k=8):
    tree = cKDTree(project_to_manifold(sphere_vertices[faces].mean(axis=1)))
    return tree.query(points, k=k)[1]


def random_unit_vectors(n, seed=3):
    return project_to_manifold(np.random.default_rng(seed).normal(size=(n, 3)))


def test_locate_identity_breaks_ties_as_one_by_one(icosphere2):
    # every query is a vertex, on the boundary of several faces
    f = icosphere2.vertices
    assert_located_as_one_by_one(f, f, icosphere2.faces)


def test_locate_aligned_pair_as_one_by_one():
    rot = rotation_matrix([1.0, 2.0, 3.0], 0.4)
    m0 = make_icosphere(3, (1.0, 0.75, 0.9))
    m1 = build_surface(make_icosphere(3, (0.7, 1.0, 0.8)).vertices @ rot.T, m0.faces)
    f0, f1 = project_to_manifold(m0.vertices), project_to_manifold(m1.vertices)
    pairs = np.array([[5, 300], [80, 41], [200, 610], [444, 17], [600, 123]])
    reg = register(m0, m1, f0, f1, pairs, iters=20)
    located = assert_located_as_one_by_one(reg.h0.mapping, reg.h1.mapping, m1.faces)
    assert np.array_equal(located[0], reg.composed.face_indices)
    assert np.array_equal(located[1], reg.composed.weights)


def test_locate_in_a_folded_target_widens_and_falls_back(icosphere1):
    f = inverted_vertex_map(icosphere1, vertex=5)
    points = random_unit_vectors(3000)
    faces, _, fallbacks = assert_located_as_one_by_one(points, f, icosphere1.faces)
    # some query is found only beyond its 8 nearest faces
    assert not (nearest_faces(points, f, icosphere1.faces) == faces[:, None]).any(axis=1).all()
    assert fallbacks == 0
    # with one face left out, the queries in its hole take the least-negative face
    assert assert_located_as_one_by_one(points, f, icosphere1.faces[1:])[2] > 0


def test_locate_falls_back_to_the_first_of_equal_candidates(icosphere1):
    # one face left out and a neighbor listed 12 times: queries in the
    # hole next to their shared edge fall back to that neighbor, whose
    # copies give bitwise equal weights and fill the first widening
    # round and part of the second; the copy first in candidate order
    # must win
    f, all_faces = icosphere1.vertices, icosphere1.faces
    a, b, c = all_faces[0]
    twin = next(i for i, face in enumerate(all_faces) if i and a in face and b in face)
    faces = np.vstack([all_faces[1:]] + [all_faces[twin]] * 11)
    rng = np.random.default_rng(0)
    t, u = rng.uniform(0.02, 0.2, size=(50, 1)), rng.uniform(0.3, 0.7, size=(50, 1))
    points = project_to_manifold((1 - t) * (u * f[a] + (1 - u) * f[b]) + t * f[c])
    located, _, fallbacks = assert_located_as_one_by_one(points, f, faces)
    assert fallbacks == len(points)
    assert (faces[located] == all_faces[twin]).all()
    assert len(set(located)) > 1


def test_locate_on_the_tetrahedron_with_fewer_faces_than_candidates():
    t = regular_tetrahedron()
    f = project_to_manifold(t.vertices)
    assert_located_as_one_by_one(random_unit_vectors(200), f, t.faces)
    assert_located_as_one_by_one(f, f, t.faces)


def test_locate_with_a_small_systems_cap_as_one_by_one(icosphere1, monkeypatch):
    # 64 systems per stacked solve: 8 queries in the first round, 2 or 1
    # in the wider ones, so every round takes several solves
    monkeypatch.setattr(registration, "LOCATE_SYSTEMS", 64)
    f = inverted_vertex_map(icosphere1, vertex=5)
    points = random_unit_vectors(3000)
    assert assert_located_as_one_by_one(points, f, icosphere1.faces)[2] == 0
    assert assert_located_as_one_by_one(points, f, icosphere1.faces[1:])[2] > 0
    t = regular_tetrahedron()
    tf = project_to_manifold(t.vertices)
    assert_located_as_one_by_one(random_unit_vectors(200), tf, t.faces)
    assert_located_as_one_by_one(tf, tf, t.faces)


def test_locate_raises_when_no_candidate_is_usable():
    # with one face of the tetrahedron left out, the direction antipodal
    # to the opposite vertex gives every other face a negative weight sum
    t = regular_tetrahedron()
    f = project_to_manifold(t.vertices)
    opposite = (set(range(4)) - set(t.faces[0])).pop()
    points = np.stack([f[opposite], -f[opposite]])
    with pytest.raises(ValueError, match="point location failed for query 1"):
        locate_on_sphere(points, f, t.faces[1:])
    with pytest.raises(ValueError, match="point location failed for query 1"):
        locate_one_by_one(points, f, t.faces[1:])


def test_locate_skips_a_singular_candidate(icosphere2):
    f = icosphere2.vertices.copy()
    centroids = project_to_manifold(f[icosphere2.faces].mean(axis=1))
    top = int(np.argmax(centroids[:, 2]))
    f[icosphere2.faces[top]] = (0.0, 0.0, 1.0)   # collapse the face to the pole
    points = random_unit_vectors(3000)
    points = points[points[:, 2] > 0.9]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(f[icosphere2.faces[top]].T, points[0])
    assert (nearest_faces(points, f, icosphere2.faces) == top).any()
    faces, _, _ = assert_located_as_one_by_one(points, f, icosphere2.faces)
    assert (faces != top).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.floats(0.0, 0.45), st.integers(0, 2**32 - 1))
def test_locate_in_a_fold_free_triangulation(subdivisions, jitter, seed):
    # a turned sphere mesh with its vertices moved along the sphere by up
    # to about `jitter` edge lengths; queries are random directions and
    # the vertices themselves, each on the boundary of several faces
    sphere = make_icosphere(subdivisions)
    rng = np.random.default_rng(seed)
    v = sphere.vertices @ rotation_matrix(rng.normal(size=3), rng.uniform(0, 2 * np.pi)).T
    edge = np.linalg.norm(v[sphere.edges[:, 0]] - v[sphere.edges[:, 1]], axis=1).min()
    f = project_to_manifold(v + project_tangent(v, jitter * edge * rng.uniform(-1, 1, v.shape)))
    assume(count_folds(sphere, f) == 0)
    points = np.vstack([random_unit_vectors(500, seed), f])
    faces, weights, fallbacks = locate_on_sphere(points, f, sphere.faces)
    assert fallbacks == 0
    assert (weights >= 0).all() and np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
    image = np.einsum("nk,nkd->nd", weights, f[sphere.faces[faces]])
    assert np.abs(project_to_manifold(image) - points).max() <= 1e-12


def ellipsoid_pair(subdivisions, landmarks):
    """The benchmark's register-pair shapes, unrotated, their default
    parameterizations, and `landmarks` pairs of one vertex id on both."""
    m0 = normalize_area(make_icosphere(subdivisions, (1.0, 0.75, 0.9)))
    m1 = normalize_area(make_icosphere(subdivisions, (0.7, 1.0, 0.8)))
    ids = np.random.default_rng(0).choice(m0.n_vertices, size=landmarks, replace=False)
    return m0, m1, parameterize(m0).mapping, parameterize(m1).mapping, np.stack([ids, ids], 1)


def assert_aligned(m0, m1, reg):
    assert count_folds(m0, reg.h0.mapping) == 0 and count_folds(m1, reg.h1.mapping) == 0
    assert reg.mismatch_after <= 0.1 * reg.mismatch_before


@pytest.fixture(scope="module")
def registered_ellipsoids():
    m0, m1, f0, f1, pairs = ellipsoid_pair(4, 8)
    return m0, m1, register(m0, m1, f0, f1, pairs, iters=200)


def test_alignments_stop_by_the_relative_gradient_test(registered_ellipsoids):
    m0, m1, reg = registered_ellipsoids
    for aligned in (reg.h0, reg.h1):
        assert aligned.status == "grad_converged"
        assert len(aligned.records) < registration.DEFAULT_ALIGN_ITERS
    assert_aligned(m0, m1, reg)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_located_weights_match_an_extended_precision_evaluation(registered_ellipsoids):
    # Cramer's rule on the raw corners in 80-bit arithmetic, clipped and
    # renormalized as the library does: its 11 extra bits absorb the
    # cancellation of b x c.  Stacked LU solves of [a b c] w = p read
    # 9.9e-16 off it on this pair; the triple products of the corners
    # relative to p read 1.8e-16, and those of the raw corners 1.3e-14
    _, m1, reg = registered_ellipsoids
    composed = reg.composed
    p = reg.h0.mapping.astype(np.longdouble)
    a, b, c = reg.h1.mapping.astype(np.longdouble)[m1.faces[composed.face_indices]].swapaxes(0, 1)
    det = lambda x, y, z: np.sum(x * np.cross(y, z), axis=1)
    w = np.stack([det(p, b, c), det(a, p, c), det(a, b, p)], axis=1)
    w = np.clip(w / w.sum(axis=1, keepdims=True), 0, None)
    w /= w.sum(axis=1, keepdims=True)
    assert composed.fallback_count == 0
    assert np.abs(composed.weights - w).max() <= 4e-16


def test_many_landmarks_align_within_the_default_cap():
    m0, m1, f0, f1, pairs = ellipsoid_pair(3, 64)
    assert_aligned(m0, m1, register(m0, m1, f0, f1, pairs))


def test_register_aligns_on_its_meshes_face_lists(monkeypatch):
    # each alignment's sphere mesh is its mesh's face list on the map:
    # the list is neither validated nor ordered again
    m0, m1, f0, f1, pairs = ellipsoid_pair(3, 8)
    calls, surfaces = [], []
    for name in ("build_surface", "nested_dissection"):
        original = getattr(mesh, name)
        monkeypatch.setattr(mesh, name, lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    align = registration.solve_alignment

    def spy(surface, *args, **kwargs):
        surfaces.append(surface)
        return align(surface, *args, **kwargs)

    monkeypatch.setattr(registration, "solve_alignment", spy)
    register(m0, m1, f0, f1, pairs, iters=5)
    assert calls == []
    for surface, m, f in zip(surfaces, (m0, m1), (f0, f1)):
        assert surface.edges is m.edges and np.array_equal(surface.vertices, f)
        assert surface.dissection_order is m.dissection_order


def test_the_alignment_starts_from_the_best_rotation(monkeypatch):
    # a map turned away from its targets: the descent starts from it
    # turned back, with a lower pull and the same stretch energy
    m = normalize_area(make_icosphere(3, (1.0, 0.75, 0.9)))
    f = parameterize(m).mapping
    sphere = build_surface(f, m.faces)
    rows = PAIRS[:, 0]
    targets = project_to_manifold(f[rows] @ rotation_matrix([0.2, 1.0, -0.4], 1.3).T + 0.05)
    starts = []
    descent = registration.minimize

    def spy(surface, start, **kwargs):
        starts.append(start)
        return descent(surface, start, **kwargs)

    monkeypatch.setattr(registration, "minimize", spy)
    solve_alignment(sphere, f, rows, targets, lambdas=10.0, iters=1)
    start, = starts
    pull = lambda h: np.sum((h[rows] - targets) ** 2)
    assert pull(start) < 0.1 * pull(f)
    assert face_geometry(sphere, start).spherical_normalized == pytest.approx(
        face_geometry(sphere, f).spherical_normalized, rel=1e-12, abs=0)


def test_differently_posed_maps_register_from_radial_starts():
    # the default starts follow their inputs' frames, so the two maps'
    # landmarks begin radians apart; the rigid steps remove that
    # difference before the warp
    rot0 = rotation_matrix([1.0, -2.0, 0.5], 2.2)
    rot1 = rotation_matrix([0.3, 1.0, 2.0], -1.4)
    m0 = normalize_area(build_surface(make_icosphere(3, (1.0, 0.75, 0.9)).vertices @ rot0.T,
                                      make_icosphere(3).faces))
    m1 = normalize_area(build_surface(make_icosphere(3, (0.7, 1.0, 0.8)).vertices @ rot1.T,
                                      make_icosphere(3).faces))
    p0, p1 = parameterize(m0), parameterize(m1)
    assert p0.start == p1.start == "radial"
    f0, f1 = p0.mapping, p1.mapping
    ids = np.random.default_rng(0).choice(m0.n_vertices, size=8, replace=False)
    pairs = np.stack([ids, ids], axis=1)
    assert geodesic_mismatch(f0[ids], f1[ids]) > 1.0
    reg = register(m0, m1, f0, f1, pairs)
    # the recorded rotation is nearly the one between the two poses
    assert np.abs(reg.rotation - rot0 @ rot1.T).max() < 0.1
    assert reg.rotation_deg > 90.0
    assert reg.mismatch_before < 0.1
    assert_aligned(m0, m1, reg)

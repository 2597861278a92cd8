import numpy as np
import pytest

from authalic.energy import assemble_laplacian
from authalic.mesh import build_surface, make_icosphere
from authalic.registration import (RegistrationObjective, compose_registration,
                                   geodesic_mismatch, homotopy_frame, midpoint_targets,
                                   solve_alignment)
from authalic.sphere import project_to_manifold

from helpers import central_difference_gradient, rotation_matrix

PAIRS = np.array([[3, 3], [40, 40], [77, 77], [120, 120], [150, 150]])


@pytest.fixture(scope="module")
def sphere_pair():
    m0 = make_icosphere(2)
    m1 = build_surface(m0.vertices @ rotation_matrix([1.0, 2.0, 3.0], 0.5).T, m0.faces)
    return m0, m1


def test_midpoints_unit_and_on_minor_arc(sphere_pair):
    m0, m1 = sphere_pair
    f0, f1 = m0.vertices, m1.vertices
    c = midpoint_targets(f0, f1, PAIRS)
    assert np.abs(np.linalg.norm(c, axis=1) - 1.0).max() <= 1e-12
    a, b = f0[PAIRS[:, 0]], f1[PAIRS[:, 1]]
    # equidistant from both landmark images and strictly inside the arc
    assert np.sum(c * a, axis=1) == pytest.approx(np.sum(c * b, axis=1), abs=1e-12)
    assert (np.sum(c * a, axis=1) > np.sum(a * b, axis=1)).all()


def test_raw_midpoints_are_chord_midpoints(sphere_pair):
    m0, m1 = sphere_pair
    c = midpoint_targets(m0.vertices, m1.vertices, PAIRS, normalize=False)
    expected = 0.5 * (m0.vertices[PAIRS[:, 0]] + m1.vertices[PAIRS[:, 1]])
    assert np.array_equal(c, expected)


def test_antipodal_midpoint_rejected():
    f0 = np.array([[0.0, 0.0, 1.0]])
    f1 = np.array([[0.0, 0.0, -1.0]])
    with pytest.raises(ValueError, match="antipodal"):
        midpoint_targets(f0, f1, np.array([[0, 0]]))


def registration_gradient(sphere, h, rows, targets, lambdas):
    return RegistrationObjective(sphere, rows, targets, lambdas).value_and_gradient(h)[1]


def test_gradient_without_landmarks_is_stretch_gradient(icosphere1):
    sphere = build_surface(icosphere1.vertices, icosphere1.faces)
    h = icosphere1.vertices
    rows = np.array([], dtype=np.int64)
    grad = registration_gradient(sphere, h, rows, np.zeros((0, 3)), np.zeros(0))
    lap = assemble_laplacian(sphere, h)
    assert np.abs(grad - 2.0 * (lap @ h)).max() <= 1e-14


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
    lam0 = registration_gradient(sphere, h, rows, targets, np.array([0.0, 0.0]))
    plain = registration_gradient(sphere, h, np.array([], dtype=int),
                                  np.zeros((0, 3)), np.zeros(0))
    assert np.abs(lam0 - plain).max() <= 1e-12


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
    assert result.final_mismatch <= 1e-4


def test_alignment_reduces_mismatch(sphere_pair):
    m0, m1 = sphere_pair
    f0, f1 = m0.vertices.copy(), m1.vertices.copy()
    targets = midpoint_targets(f0, f1, PAIRS)
    s0 = build_surface(f0, m0.faces)
    s1 = build_surface(f1, m1.faces)
    a0 = solve_alignment(s0, f0, PAIRS[:, 0], targets, lambdas=10.0, iters=200)
    a1 = solve_alignment(s1, f1, PAIRS[:, 1], targets, lambdas=10.0, iters=200)
    before = geodesic_mismatch(f0[PAIRS[:, 0]], f1[PAIRS[:, 1]])
    after = geodesic_mismatch(a0.mapping[PAIRS[:, 0]], a1.mapping[PAIRS[:, 1]])
    assert after <= 0.1 * before
    assert np.abs(np.linalg.norm(a0.mapping, axis=1) - 1.0).max() <= 1e-12


def test_identity_composition(icosphere2):
    f = icosphere2.vertices
    composed = compose_registration(icosphere2, icosphere2, f, f, f, f)
    assert np.abs(composed.points - icosphere2.vertices).max() <= 1e-10
    assert composed.fallback_count == 0
    assert (composed.weights >= 0).all() and (composed.weights <= 1.0 + 1e-12).all()
    assert np.abs(composed.weights.sum(axis=1) - 1.0).max() <= 1e-10


def test_registered_landmarks_land_near_targets(sphere_pair):
    m0, m1 = sphere_pair
    f0, f1 = m0.vertices.copy(), m1.vertices.copy()
    targets = midpoint_targets(f0, f1, PAIRS)
    s0 = build_surface(f0, m0.faces)
    s1 = build_surface(f1, m1.faces)
    a0 = solve_alignment(s0, f0, PAIRS[:, 0], targets, lambdas=10.0, iters=200)
    a1 = solve_alignment(s1, f1, PAIRS[:, 1], targets, lambdas=10.0, iters=200)
    composed = compose_registration(m0, m1, f0, f1, a0.mapping, a1.mapping)
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

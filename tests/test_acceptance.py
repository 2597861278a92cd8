"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines.  The benchmark-model reproduction runs only when a benchmark
directory is supplied through AUTHALIC_BENCHMARK_DIR.
"""

import glob
import os
import time

import numpy as np
import pytest

from authalic.diagnostics import area_ratio_stats
from authalic.energy import (assemble_laplacian, energy_report_per_face,
                             euclidean_gradient, face_geometry, image_area_gradient,
                             image_area_gradient_via_laplacian, assemble_global_hessian)
from authalic.fpi import _interior_mask, conformal_initial_map, dirichlet_solve, fpi_minimize
from authalic.linesearch import cubic_fit, quadratic_backtrack_step
from authalic.mesh import build_surface, load_mesh, make_icosphere, normalize_area
from authalic.pipeline import ParameterizeConfig, parameterize
from authalic.registration import compose_registration, homotopy_frame, register
from authalic.rgd import minimize
from authalic.sphere import (PlanarPoints, inverse_stereographic, invert_plane,
                             project_tangent, project_to_manifold, retract,
                             stereographic)
from authalic.unfold import assemble_mean_value, correct_bijectivity

from helpers import (bumpy_sphere, central_difference_gradient, laplacian_stretch,
                     random_tetrahedron)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def matched_authalic(report_):
    # stretch-minus-area with the reference rescaled to the image area:
    # nonnegative, zero exactly at constant area ratios
    return report_.normalized - report_.image_area


def test_criterion_1_exact_at_area_preservation():
    start = time.perf_counter()
    surf = make_icosphere(3)
    rep = energy_report_per_face(surf, surf.vertices)
    # the Laplacian quadratic form must vanish there too
    quadratic = laplacian_stretch(surf, surf.vertices) - rep.image_area
    stats = area_ratio_stats(surf, surf.vertices)
    elapsed = time.perf_counter() - start
    ok = (abs(rep.authalic) <= 1e-10 and abs(quadratic) <= 1e-10
          and stats.sd_over_mean <= 1e-12 and elapsed < 1.0)
    report("criterion 1 (exactness at area preservation)", ok,
           f"E_A {rep.authalic:.2e} (Laplacian form {quadratic:.2e}), "
           f"SD/Mean {stats.sd_over_mean:.2e}, {elapsed:.2f} s")


def test_criterion_2_gradient_matches_finite_differences():
    start = time.perf_counter()
    surf = make_icosphere(2)
    rng = np.random.default_rng(12)
    f = project_to_manifold(surf.vertices + 0.05 * rng.normal(size=surf.vertices.shape))
    grad = euclidean_gradient(surf, f)
    fd = central_difference_gradient(lambda g: energy_report_per_face(surf, g).normalized,
                                     f, eps=1e-6)
    mask = np.abs(grad) > 1e-8
    rel = (np.abs(fd - grad)[mask] / np.abs(grad)[mask]).max()
    elapsed = time.perf_counter() - start
    ok = rel < 1e-6 and elapsed < 5.0
    report("criterion 2 (gradient correctness)", ok,
           f"max rel err {rel:.2e}, {elapsed:.2f} s")


def test_criterion_3_hessian_matches_finite_differences():
    surf = make_icosphere(1)
    n = surf.n_vertices
    rng = np.random.default_rng(5)
    f = project_to_manifold(surf.vertices + 0.05 * rng.normal(size=(n, 3)))
    hessian = assemble_global_hessian(surf, f).toarray()

    def stretch_grad_vec(mapping):
        lap = assemble_laplacian(surf, face_geometry(surf, mapping))
        return (2.0 * (lap @ mapping)).T.ravel()

    vec = f.T.ravel()
    eps = 1e-6
    fd = np.zeros_like(hessian)
    for col in range(3 * n):
        bump = np.zeros(3 * n)
        bump[col] = eps
        plus = stretch_grad_vec((vec + bump).reshape(3, n).T)
        minus = stretch_grad_vec((vec - bump).reshape(3, n).T)
        fd[:, col] = (plus - minus) / (2 * eps)
    scale = np.abs(hessian).max()
    rel = np.abs(hessian - fd).max() / scale
    tr_resid = max(
        np.abs(hessian @ np.concatenate([np.ones(n) * (s == t) for t in range(3)])).max()
        for s in range(3))
    ok = rel <= 1e-5 and tr_resid <= 1e-10 * scale
    report("criterion 3 (hessian correctness)", ok,
           f"FD rel {rel:.2e}, translation residual {tr_resid:.2e}")


def test_criterion_4_area_gradient_duality():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):  # 25 random tetrahedra -> 100 random faces
        surf = random_tetrahedron(rng)
        f = rng.normal(size=(4, 3))
        while face_geometry(surf, f, check=False).image_areas.min() < 1e-3:
            f = rng.normal(size=(4, 3))
        a = image_area_gradient(surf, f)
        b = image_area_gradient_via_laplacian(surf, f)
        worst = max(worst, np.abs(a - b).max() / max(np.abs(a).max(), 1.0))
    ok = worst <= 1e-10
    report("criterion 4 (area-gradient duality)", ok, f"max rel diff {worst:.2e}")


def test_criterion_5_descent_contract():
    start = time.perf_counter()
    surf = normalize_area(make_icosphere(3, (1.0, 0.8, 0.6)))
    f0 = project_to_manifold(surf.vertices)
    rep0 = energy_report_per_face(surf, f0)
    result = minimize(surf, f0, max_iters=100, strategy="interpolant")
    elapsed = time.perf_counter() - start

    values = [rep0.normalized] + [r.normalized for r in result.records]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    armijo = all(
        values[k + 1] <= values[k] - 1e-4 * r.alpha * r.grad_norm**2
        + 1e-10 * abs(values[k])
        for k, r in enumerate(result.records))
    rep1 = energy_report_per_face(surf, result.mapping)
    halved = (rep1.authalic < 0.5 * rep0.authalic
              and matched_authalic(rep1) < 0.5 * matched_authalic(rep0))
    corrected = correct_bijectivity(surf, result.mapping)
    ok = (len(result.records) == 100 and decreasing and armijo and halved
          and corrected.folds_after == 0 and elapsed < 10.0)
    report("criterion 5 (descent contract)", ok,
           f"iters {len(result.records)}, decreasing {decreasing}, armijo {armijo}, "
           f"E_A {rep0.authalic:.3f} -> {rep1.authalic:.3f}, folds "
           f"{corrected.folds_after}, {elapsed:.2f} s")


def test_criterion_6_line_search_algebra():
    quad = quadratic_backtrack_step(1.0, -1.0, 1.0, 1.0)
    a, b, raw = cubic_fit(1.0, -2.0, (1.0, 0.0), (2.0, 5.0))
    ok = (abs(quad - 0.5) <= 1e-15 and abs(a - 1.0) <= 1e-10
          and abs(b) <= 1e-10 and abs(raw - np.sqrt(2.0 / 3.0)) <= 1e-10)
    report("criterion 6 (line-search algebra)", ok,
           f"quadratic step {quad}, cubic fit (a, b) = ({a:g}, {b:g}), "
           f"minimizer {raw:.10f}")


def test_criterion_7_geometry_round_trips():
    rng = np.random.default_rng(0)
    f = project_to_manifold(rng.normal(size=(500, 3)))
    f = f[f[:, 2] < 0.99]
    round_trip = np.abs(inverse_stereographic(stereographic(f)) - f).max()
    xi = project_tangent(f, rng.normal(size=f.shape))
    unit_err = np.abs(np.linalg.norm(retract(f, xi), axis=1) - 1.0).max()
    g = rng.normal(size=f.shape)
    once = project_tangent(f, g)
    idem = np.abs(project_tangent(f, once) - once).max()
    z = PlanarPoints.finite(rng.normal(size=50) + 1j * rng.normal(size=50))
    invol = np.abs(invert_plane(invert_plane(z)).values - z.values).max()
    ok = round_trip <= 1e-12 and unit_err <= 1e-12 and idem <= 1e-12 and invol <= 1e-12
    report("criterion 7 (geometry round trips)", ok,
           f"stereo {round_trip:.1e}, retract {unit_err:.1e}, projector {idem:.1e}, "
           f"inversion {invol:.1e}")


def boundary_held(surface, lap, h):
    """A direct disk solve of the plane `h`, and whether it returned every
    vertex outside the disk bitwise unchanged."""
    interior = _interior_mask(h)
    out = dirichlet_solve(surface, lap, h, interior)
    return out, bool(np.array_equal(out.values[~interior], h.values[~interior]))


def test_criterion_8_fpi_monitor_and_pipeline():
    surf = normalize_area(bumpy_sphere())
    f0 = conformal_initial_map(surf)

    fpi_only = fpi_minimize(surf, f0, max_iters=60, stop_on_increase=False)
    fpi_min = min(r.authalic for r in fpi_only.records)

    monitored = fpi_minimize(surf, f0, max_iters=60, stop_on_increase=True)
    increase_found = monitored.status == "authalic_increased"
    # FPI's solve on the inverted plane of the start and of the result
    boundary_ok = all(
        boundary_held(surf, assemble_laplacian(surf, face_geometry(surf, f)),
                      invert_plane(stereographic(f)))[1]
        for f in (f0, monitored.mapping, fpi_only.mapping))

    warm = fpi_minimize(surf, f0, max_iters=10, stop_on_increase=True)
    refined = minimize(surf, warm.mapping, max_iters=100)
    final = energy_report_per_face(surf, refined.mapping).authalic
    ok = increase_found and boundary_ok and final <= fpi_min
    report("criterion 8 (FPI behavior)", ok,
           f"first increase at {len(monitored.records)}, boundary fixed "
           f"{boundary_ok}, E_A {final:.4f} <= FPI min {fpi_min:.4f}")


def test_criterion_9_bijectivity_correction():
    surf = make_icosphere(2)
    f = surf.vertices.copy()
    vertex = 17
    star = np.unique(surf.faces[(surf.faces == vertex).any(axis=1)])
    neighbors = star[star != vertex]
    f[vertex] = 2.0 * surf.vertices[neighbors[0]] - f[vertex]
    f = project_to_manifold(f)
    result = correct_bijectivity(surf, f)
    # the correction's first sweep, solved directly: a southern and a
    # northern pass
    h = stereographic(f)
    h, south_ok = boundary_held(surf, assemble_mean_value(surf, h), h)
    h = invert_plane(h)
    _, north_ok = boundary_held(surf, assemble_mean_value(surf, h), h)
    boundary_ok = south_ok and north_ok
    ok = result.folds_before >= 1 and result.folds_after == 0 and boundary_ok
    report("criterion 9 (bijectivity correction)", ok,
           f"folds {result.folds_before} -> {result.folds_after}, "
           f"boundary exact {boundary_ok}")


def test_criterion_10_registration():
    from helpers import rotation_matrix
    m0 = make_icosphere(2)
    m1 = build_surface(m0.vertices @ rotation_matrix([1, 2, 3], 0.5).T, m0.faces)
    pairs = np.array([[3, 3], [40, 40], [77, 77], [120, 120], [150, 150]])
    f0, f1 = m0.vertices.copy(), m1.vertices.copy()
    reg = register(m0, m1, f0, f1, pairs, lam=10.0, iters=200)
    reduction = 1.0 - reg.mismatch_after / reg.mismatch_before

    composed = compose_registration(m0, m0, f0, f0, f0, f0)
    identity_err = np.abs(composed.points - m0.vertices).max()
    endpoints = (np.array_equal(homotopy_frame(m0, composed, 0.0), m0.vertices)
                 and np.array_equal(homotopy_frame(m0, composed, 1.0), composed.points))
    ok = reduction >= 0.9 and identity_err <= 1e-10 and endpoints
    report("criterion 10 (registration)", ok,
           f"mismatch reduction {reduction:.1%}, identity error {identity_err:.1e}, "
           f"endpoints exact {endpoints}")


def _find_benchmark(patterns):
    root = os.environ.get("AUTHALIC_BENCHMARK_DIR", "")
    if not root:
        return None
    for pattern in patterns:
        hits = sorted(glob.glob(os.path.join(root, "**", pattern), recursive=True))
        if hits:
            return hits[0]
    return None


@pytest.mark.skipif(_find_benchmark(["*[Dd]avid*"]) is None,
                    reason="benchmark meshes not supplied (set AUTHALIC_BENCHMARK_DIR)")
def test_criterion_11_benchmark_reproduction():
    path = _find_benchmark(["*[Dd]avid*"])
    surf = normalize_area(load_mesh(path))
    start = time.perf_counter()
    result = parameterize(surf, ParameterizeConfig(fpi_iters=10, max_iters=100,
                                                   strategy="interpolant"))
    elapsed = time.perf_counter() - start
    stats = area_ratio_stats(result.surface, result.mapping)
    rep = energy_report_per_face(result.surface, result.mapping)
    matched = matched_authalic(rep)

    fpi_only = fpi_minimize(surf, conformal_initial_map(surf), max_iters=60,
                            stop_on_increase=True)
    sd_ok = abs(stats.sd_over_mean - 0.0156) <= 0.25 * 0.0156
    ea_ok = abs(matched - 3.04e-3) <= 0.5 * 3.04e-3
    its_ok = (fpi_only.status == "authalic_increased"
              and abs(len(fpi_only.records) - 8) <= 3)
    time_ok = elapsed < 92.0  # same order of magnitude as the reference run
    ok = sd_ok and ea_ok and its_ok and time_ok
    report("criterion 11 (benchmark reproduction)", ok,
           f"SD/Mean {stats.sd_over_mean:.4f}, E-A {matched:.2e}, "
           f"first increase {len(fpi_only.records)}, {elapsed:.1f} s")

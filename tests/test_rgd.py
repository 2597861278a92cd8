
import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import authalic.energy as en
from authalic.energy import euclidean_gradient, face_geometry
from authalic.errors import SolveError
from authalic.fpi import radial_initial_map, reference_laplacian
from authalic.linesearch import ALPHA_MAX, phi_derivative_at_zero, search
from authalic.linsolve import RESIDUAL_RTOL
from authalic.mesh import make_icosphere, normalize_area
from authalic.registration import RegistrationObjective, solve_alignment
import authalic.rgd as rgd
from authalic.rgd import LBFGS, GeometryMemo, NormalizedStretchObjective, minimize
from authalic.sphere import project_tangent, project_to_manifold, retract, row_dots


def riemannian_gradient(surface, f):
    return project_tangent(f, euclidean_gradient(surface, f))


def test_riemannian_gradient_rows_tangent(ellipsoid3):
    f = project_to_manifold(ellipsoid3.vertices)
    rgrad = riemannian_gradient(ellipsoid3, f)
    radial = np.abs(np.sum(f * rgrad, axis=1)).max()
    assert radial <= 1e-10 * max(1.0, np.abs(rgrad).max())


def test_radial_ambient_gradient_projects_to_zero(ellipsoid3):
    # stub: if the ambient gradient is radial everywhere the Riemannian
    # gradient vanishes
    f = project_to_manifold(ellipsoid3.vertices)
    assert np.abs(project_tangent(f, 3.0 * f)).max() <= 1e-12


def test_directional_derivative_first_order(ellipsoid3):
    rng = np.random.default_rng(8)
    f = project_to_manifold(ellipsoid3.vertices)
    rgrad = riemannian_gradient(ellipsoid3, f)
    xi = project_tangent(f, rng.normal(size=f.shape))
    xi /= np.linalg.norm(xi)
    eps = 1e-7
    fd = (face_geometry(ellipsoid3, retract(f, eps * xi)).normalized
          - face_geometry(ellipsoid3, retract(f, -eps * xi)).normalized) / (2 * eps)
    inner = float(np.sum(rgrad * xi))
    assert fd == pytest.approx(inner, rel=1e-5)


def test_immediate_convergence_at_critical_point(icosphere2, monkeypatch):
    class Flat(GeometryMemo):
        def value(self, f):
            return 1.0

        def value_and_gradient(self, f):
            return 1.0, 2.0 * f

    monkeypatch.setattr(rgd, "GRAD_TOL", 1e-8 / np.sqrt(icosphere2.n_vertices))
    result = minimize(Flat(icosphere2), icosphere2.vertices, max_iters=100, precondition=None)
    assert result.status == "grad_converged"
    assert result.records == []
    assert np.array_equal(result.mapping, icosphere2.vertices)


def test_line_search_failure_returns_best_iterate(icosphere2):
    class Stubborn(GeometryMemo):
        def value(self, f):
            return 1.0

        def value_and_gradient(self, f):
            g = project_tangent(f, np.roll(f, 1, axis=1))
            return 1.0, g + f

    result = minimize(Stubborn(icosphere2), icosphere2.vertices, max_iters=5, precondition=None)
    assert result.status == "line_search_failed"
    assert np.array_equal(result.mapping, icosphere2.vertices)


def test_descent_run_on_ellipsoid(ellipsoid3):
    f0 = project_to_manifold(ellipsoid3.vertices)
    result = minimize(NormalizedStretchObjective(ellipsoid3), f0, max_iters=50, precondition=None)
    assert result.status in ("max_iters", "grad_converged")
    values = [r.normalized for r in result.records]
    assert len(values) >= 10
    assert all(b < a for a, b in zip(values, values[1:]))
    # iterates stay on the manifold
    assert np.abs(np.linalg.norm(result.mapping, axis=1) - 1.0).max() <= 1e-12
    # the recorded triple satisfies E_A = E_S - A with A recovered from E
    total = ellipsoid3.total_area
    for r in result.records:
        area = total * r.stretch / r.normalized
        assert r.authalic == pytest.approx(r.stretch - area, abs=1e-10 * max(1.0, r.stretch))
    rep0 = face_geometry(ellipsoid3, f0)
    rep1 = face_geometry(ellipsoid3, result.mapping)
    assert rep1.authalic < rep0.authalic


def test_alpha_and_grad_norm_recorded(ellipsoid3):
    f0 = project_to_manifold(ellipsoid3.vertices)
    result = minimize(NormalizedStretchObjective(ellipsoid3), f0, max_iters=5, precondition=None)
    for r in result.records:
        assert r.alpha is not None and 0 < r.alpha <= 1.0
        assert r.grad_norm is not None and r.grad_norm > 0
        assert r.folds >= 0 and r.elapsed_s >= 0


def test_descent_without_gradient_tests_ends_in_a_failed_search(icosphere2, monkeypatch):
    # identity on the unit icosphere is already area distortion minimizing:
    # with both gradient tests off, the descent runs until the line search
    # finds no decrease left, well inside the cap
    monkeypatch.setattr(rgd, "GRAD_TOL", 0.0)
    monkeypatch.setattr(rgd, "GRAD_RTOL", 0.0)
    result = minimize(NormalizedStretchObjective(icosphere2), icosphere2.vertices,
                      max_iters=4000, precondition=None)
    assert result.status == "line_search_failed"
    assert len(result.records) < 4000


def test_gradient_falls_with_generous_budget(monkeypatch):
    # accumulation at critical points: on a small mesh the gradient norm
    # drops below 1e-4 well within a generous iteration budget
    surf = normalize_area(make_icosphere(1, (1.0, 0.9, 0.8)))
    f0 = project_to_manifold(surf.vertices)
    monkeypatch.setattr(rgd, "GRAD_TOL", 1e-4 / np.sqrt(surf.n_vertices))
    monkeypatch.setattr(rgd, "GRAD_RTOL", 0.0)
    result = minimize(NormalizedStretchObjective(surf), f0, max_iters=5000, precondition=None)
    assert result.status == "grad_converged"
    assert np.linalg.norm(riemannian_gradient(surf, result.mapping)) <= 1e-4


def test_area_ratio_cv_zero_at_identity(icosphere2):
    assert face_geometry(icosphere2, icosphere2.vertices).sd_over_mean <= 1e-12


# ---------------------------------------------------------------------------
# Preconditioned L-BFGS
# ---------------------------------------------------------------------------

def shifted_laplacian(surface):
    """K = L_cot + PRECONDITIONER_SHIFT (|M| / n) I, in vertex order."""
    n = surface.n_vertices
    shift = rgd.PRECONDITIONER_SHIFT * surface.total_area / n
    return reference_laplacian(surface) + shift * sp.eye(n)


def test_preconditioner_solves_meet_the_residual_contract(ellipsoid3, monkeypatch):
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(1) or splu(*a, **k))
    apply = rgd.preconditioner(ellipsoid3, reference_laplacian(ellipsoid3))
    k = shifted_laplacian(ellipsoid3).tocsr()
    k_norm = abs(k).sum(axis=1).max()
    rng = np.random.default_rng(3)
    for _ in range(3):
        g = rng.normal(size=(ellipsoid3.n_vertices, 3))
        x = apply(g)
        residual = np.linalg.norm(k @ x - g, axis=0)
        bound = RESIDUAL_RTOL * (k_norm * np.linalg.norm(x, axis=0)
                                 + np.linalg.norm(g, axis=0))
        assert (residual <= bound).all()
    # one factorization for every application
    assert len(factors) == 1


def test_preconditioner_rejects_a_matrix_that_is_not_positive_definite(ellipsoid3):
    # -K passes the residual contract but not <g, K^-1 g> > 0
    n = ellipsoid3.n_vertices
    shift = 2.0 * rgd.PRECONDITIONER_SHIFT * ellipsoid3.total_area / n
    negated = -reference_laplacian(ellipsoid3) - shift * sp.eye(n)
    apply = rgd.preconditioner(ellipsoid3, negated)
    with pytest.raises(SolveError, match="not positive definite"):
        apply(np.ones((n, 3)))


def lbfgs_run(surface, steps):
    """`steps` L-BFGS iterations on the spherical objective from the radial
    start; returns the L-BFGS state, the last mapping and its
    Riemannian gradient."""
    objective = NormalizedStretchObjective(surface, spherical=True)
    f = project_to_manifold(surface.vertices - surface.vertices.mean(axis=0))
    lbfgs = LBFGS(rgd.preconditioner(surface, reference_laplacian(surface)))
    for _ in range(steps):
        value, egrad = objective.value_and_gradient(f)
        g = project_tangent(f, egrad)
        d = lbfgs.direction(f, g)
        assert np.abs(row_dots(f, d)).max() <= 1e-12 * np.abs(d).max()
        assert np.sum(d * g) < 0
        dphi0 = phi_derivative_at_zero(f, d, egrad)
        f = search(f, d, energy=objective.value, phi0=value, dphi0=dphi0).mapping
    value, egrad = objective.value_and_gradient(f)
    return lbfgs, f, project_tangent(f, egrad)


def test_lbfgs_directions_are_tangent_descent_directions(ellipsoid3):
    lbfgs, _, _ = lbfgs_run(ellipsoid3, 8)
    assert len(lbfgs.pairs) == rgd.LBFGS_MEMORY


def test_a_full_memory_drops_its_oldest_pair(ellipsoid3):
    # eight steps form seven pairs, so the memory is full before the call
    lbfgs, f, g = lbfgs_run(ellipsoid3, 8)
    held = [s for s, _, _ in lbfgs.pairs]
    lbfgs.direction(f, g)
    now = [s for s, _, _ in lbfgs.pairs]
    assert len(now) == rgd.LBFGS_MEMORY
    # the rest keep their order and the new pair comes last
    assert all(a is b for a, b in zip(now[:-1], held[1:]))
    assert all(now[-1] is not s for s in held)


def test_a_non_descent_direction_falls_back_and_clears_the_memory(ellipsoid3):
    _, f, g = lbfgs_run(ellipsoid3, 0)
    precondition = rgd.preconditioner(ellipsoid3, reference_laplacian(ellipsoid3))
    lbfgs = LBFGS(precondition)
    # one held pair (s, y) = (g, 0) with a negative weight: then
    # H = H_0 + rho g g^T and <g, H g> = <g, H_0 g> + rho |g|^4 < 0
    h0g = project_tangent(f, precondition(g))
    rho = -2.0 * np.sum(g * h0g) / np.sum(g * g) ** 2
    lbfgs.pairs.append((g.copy(), np.zeros_like(g), rho))
    d = lbfgs.direction(f, g)
    assert not lbfgs.pairs
    assert np.array_equal(d, -h0g)
    assert np.sum(d * g) < 0


def test_a_rejected_pair_keeps_every_held_pair(ellipsoid3, monkeypatch):
    lbfgs, f, g = lbfgs_run(ellipsoid3, 8)
    assert len(lbfgs.pairs) == rgd.LBFGS_MEMORY
    held = [(s, s.copy(), y.copy(), rho) for s, y, rho in lbfgs.pairs]
    monkeypatch.setattr(rgd, "CURVATURE_TOL", np.inf)  # every new pair fails
    f_new = project_to_manifold(f + 1e-3)
    lbfgs.direction(f_new, g)
    assert len(lbfgs.pairs) == rgd.LBFGS_MEMORY
    for (s_now, y_now, rho_now), (s_held, s, y, rho) in zip(lbfgs.pairs, held):
        # the held pairs, in their order, are only re-projected onto the
        # new tangent space
        assert s_now is s_held
        assert np.array_equal(s_now, s - row_dots(f_new, s)[:, None] * f_new)
        assert np.array_equal(y_now, y - row_dots(f_new, y)[:, None] * f_new)
        assert rho_now == rho


def test_lbfgs_descent_decreases_the_spherical_energy(ellipsoid3, monkeypatch):
    trials = []
    search_ = rgd.search
    monkeypatch.setattr(rgd, "search",
                        lambda *a, **k: trials.append(k["alpha0"]) or search_(*a, **k))
    f0 = project_to_manifold(ellipsoid3.vertices)
    objective = NormalizedStretchObjective(ellipsoid3, spherical=True)
    start = objective.value(f0)
    result = minimize(objective, f0, max_iters=20,
                      precondition=rgd.preconditioner(ellipsoid3,
                                                      reference_laplacian(ellipsoid3)))
    assert len(result.records) == 20 and result.status == "max_iters"
    assert objective.value(result.mapping) < start
    assert result.records[-1].sd_over_mean < 0.01 * result.records[0].sd_over_mean
    # once the memory holds a pair (from the second iteration on, here),
    # the first trial is the full step, not the interpolated one
    assert trials[1:] == [ALPHA_MAX] * 19


class Counting(GeometryMemo):
    """The normalized stretch energy, counting its evaluations."""

    calls = 0

    def value(self, f):
        self.calls += 1
        return self.geometry(f).normalized

    def value_and_gradient(self, f):
        self.calls += 1
        return self.geometry(f).normalized, en.normalized_gradient(self.surface,
                                                                   self.geometry(f))


@pytest.mark.parametrize("cap", [-1, 2.5, np.float64(3.0), "3", None])
def test_a_cap_that_is_no_count_is_rejected_before_any_evaluation(icosphere2, cap):
    objective = Counting(icosphere2)
    with pytest.raises(ValueError, match=r"max_iters must be an integer >= 0, got "):
        minimize(objective, icosphere2.vertices, max_iters=cap, precondition=None)
    assert objective.calls == 0


def test_an_integral_cap_of_any_type_is_taken(ellipsoid3):
    f0 = radial_initial_map(ellipsoid3)
    objective = Counting(ellipsoid3)
    result = minimize(objective, f0, max_iters=0, precondition=None)
    assert objective.calls == 0 and result.records == [] and result.status == "max_iters"
    assert np.array_equal(result.mapping, f0)
    result = minimize(objective, f0, max_iters=np.int64(2), precondition=None)
    assert len(result.records) == 2 and objective.calls > 2


def test_an_alignment_cap_below_zero_is_rejected(icosphere2):
    rows = np.array([0, 5])
    with pytest.raises(ValueError, match="max_iters must be an integer >= 0, got -1"):
        solve_alignment(icosphere2, icosphere2.vertices, rows, icosphere2.vertices[rows],
                        iters=-1)


def test_minimize_runs_what_its_caller_hands_it():
    # the caller picks the objective and factors K, so one module states
    # each method: minimize takes no surface and no default objective,
    # cap or preconditioner, and names no objective class and no
    # factorization
    params = inspect.signature(minimize).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("objective", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("f0", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("max_iters", inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty),
        ("precondition", inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty),
    ]
    tree = ast.parse(Path(rgd.__file__).read_text())
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "minimize"]
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert not named & {"NormalizedStretchObjective", "preconditioner", "factorize"}


class SpiedLU:
    """A SuperLU factor that keeps every right-hand side it is given."""

    def __init__(self, lu, seen):
        self.lu, self.seen = lu, seen

    def solve(self, rhs, trans="N"):
        self.seen.append(rhs)
        return self.lu.solve(rhs, trans)


@pytest.mark.parametrize("registration", [False, True], ids=["stretch", "registration"])
def test_the_descent_keeps_its_arrays_coordinate_major(ellipsoid3, monkeypatch, registration):
    # minimize copies a row-major f0 to coordinate-major memory once, and
    # every (n, 3) array of the loop keeps that layout: the row dots and
    # the preconditioner's permutations then run on contiguous coordinates
    seen = {key: [] for key in ("iterate", "gradient", "direction", "scatter",
                                "preconditioner", "rhs")}

    def spy(owner, name, keep):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            for key, array in keep(args, out):
                seen[key].append(array)
            return out

        monkeypatch.setattr(owner, name, wrapped)

    f0 = project_to_manifold(ellipsoid3.vertices)
    assert f0.flags.c_contiguous
    if registration:
        rows = np.array([0, 200, 400])
        objective = RegistrationObjective(ellipsoid3, rows,
                                          project_to_manifold(f0[rows] + 0.1), 10.0)
    else:
        objective = NormalizedStretchObjective(ellipsoid3, spherical=True)
    spy(type(objective), "value", lambda args, out: [("iterate", args[1])])
    spy(type(objective), "value_and_gradient",
        lambda args, out: [("iterate", args[1]), ("gradient", out[1])])
    spy(LBFGS, "direction", lambda args, out: [("direction", out)])
    spy(en, "scatter_corners", lambda args, out: [("scatter", out)])
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: SpiedLU(splu(*a, **k), seen["rhs"]))
    solve_k = rgd.preconditioner(ellipsoid3, reference_laplacian(ellipsoid3))

    def precondition(g):
        x = solve_k(g)
        seen["preconditioner"] += [g, x]
        return x

    result = minimize(objective, f0, max_iters=5, precondition=precondition)
    assert len(result.records) == 5
    for key, arrays in seen.items():
        assert arrays, key
        assert all(a.shape == f0.shape and a.flags.f_contiguous for a in arrays), key
    assert result.mapping.flags.f_contiguous


def test_descent_memory_peak_stays_under_a_per_vertex_bound(monkeypatch):
    # the descent holds the iterate, gradient, direction and trial, five
    # curvature pairs (240 bytes a vertex) and one face geometry of three
    # (m,) rows, whose kernels gather and scatter block by block: 497.6
    # bytes a vertex traced at 2,048 faces a block.  A geometry of six
    # rows takes 545.6, over the bound, and whole-mesh corner and edge
    # arrays with two geometries alive take 969
    monkeypatch.setattr(en, "FACE_BLOCK", 2048)
    surface = normalize_area(make_icosphere(5, (1.0, 0.8, 0.6)))
    assert surface.n_faces > 4 * en.FACE_BLOCK
    precondition = rgd.preconditioner(surface, reference_laplacian(surface))
    objective = NormalizedStretchObjective(surface, spherical=True)
    f0 = radial_initial_map(surface)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = minimize(objective, f0, max_iters=5, precondition=precondition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.records) == 5
    assert (peak - start) / surface.n_vertices < 520

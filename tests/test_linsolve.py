import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from authalic.energy import assemble_laplacian, face_geometry
from authalic.errors import SolveError
from authalic.fpi import _interior_mask, conformal_initial_map, dirichlet_solve
from authalic.linsolve import _condition_estimate, solve
from authalic.mesh import make_icosphere, normalize_area
from authalic.sphere import invert_plane, stereographic


def test_identity_system():
    x = solve(sp.eye(3, format="csc"), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1, 2, 3], atol=1e-14)


def test_two_by_two_hand_check():
    a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_restricted_laplacian_matches_dense_oracle(icosphere1):
    f = icosphere1.vertices
    lap = assemble_laplacian(icosphere1, face_geometry(icosphere1, f)).tocsr()
    h = invert_plane(stereographic(f))
    interior = np.abs(h.values) < 1.2
    boundary = ~interior
    assert interior.any() and boundary.any()
    a = lap[interior][:, interior]
    rhs = -lap[interior][:, boundary] @ h.values[boundary]
    x = solve(a.tocsc(), rhs)
    dense = np.linalg.solve(a.toarray(), rhs)
    assert np.abs(x - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    n = 40
    a = sp.random(n, n, density=0.2, random_state=rng) + sp.eye(n) * 10.0
    b = rng.normal(size=n)
    x = solve(a.tocsc(), b)
    perm = rng.permutation(n)
    p = sp.eye(n).tocsr()[perm]
    x_perm = solve((p @ a @ p.T).tocsc(), p @ b)
    assert np.abs(x_perm - p @ x).max() <= 1e-10 * max(1.0, np.abs(x).max())


def test_multiple_columns_and_complex():
    a = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = solve(a, rhs)
    assert np.abs(a @ x - rhs).max() <= 1e-12
    z = np.array([1.0 + 2.0j, -3.0j])
    xz = solve(a, z)
    assert np.abs(a @ xz - z).max() <= 1e-12


def count_factorizations(monkeypatch):
    """Record the size of L + U of every `splu` call that `solve` makes."""
    calls = []
    splu = spla.splu

    def counted(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        calls.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def test_complex_rhs_factorizes_once(monkeypatch):
    calls = count_factorizations(monkeypatch)
    a = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, 2.0, 5.0]]))
    z = np.array([[1.0 + 2.0j, 0.5], [-3.0j, 1.0j], [2.0, -1.0 - 1.0j]])
    x = solve(a, z)
    assert len(calls) == 1
    assert x.shape == z.shape and np.iscomplexobj(x)
    assert np.abs(a @ x - z).max() <= 1e-12


def dissection_ranks(surface, interior):
    """Positions among the interior vertices, in vertex order, that list
    them in the surface's dissection order."""
    order = surface.dissection_order
    return (np.cumsum(interior) - 1)[order[interior[order]]]


def restricted_fpi_system(surface):
    """The first FPI solve's system with its unknowns in vertex order, and
    their dissection ranks."""
    f = conformal_initial_map(surface)
    lap = assemble_laplacian(surface, face_geometry(surface, f)).tocsr()
    h = invert_plane(stereographic(f))
    interior = _interior_mask(h)
    rhs = -lap[interior][:, ~interior] @ h.values[~interior]
    return lap[interior][:, interior], rhs, dissection_ranks(surface, interior)


def colamd_solve(a, rhs):
    """Reference solve with SuperLU's own COLAMD column order."""
    lu = spla.splu(sp.csc_matrix(a))
    return lu.solve(rhs.real) + 1j * lu.solve(rhs.imag), lu.L.nnz + lu.U.nnz


def test_ordered_solve_matches_default_order(monkeypatch, ellipsoid3):
    a, rhs, ranked = restricted_fpi_system(ellipsoid3)
    assert np.iscomplexobj(rhs)
    plain = colamd_solve(a, rhs)[0]
    calls = count_factorizations(monkeypatch)
    ordered = solve(a[ranked][:, ranked], rhs[ranked])
    assert len(calls) == 1
    assert np.abs(ordered - plain[ranked]).max() <= 1e-12 * np.abs(plain).max()


def test_dissection_order_fills_less_than_colamd(monkeypatch):
    surface = normalize_area(make_icosphere(4, (1.0, 0.8, 0.6)))
    lap = assemble_laplacian(surface, face_geometry(surface, surface.vertices)).tocsr()
    interior = np.ones(surface.n_vertices, dtype=bool)
    interior[surface.faces[np.argmax(surface.face_areas)]] = False  # the conformal start's pins
    a = lap[interior][:, interior]
    rhs = -lap[interior][:, ~interior] @ np.ones(3)
    colamd = colamd_solve(a, rhs)[1]
    ranked = dissection_ranks(surface, interior)
    calls = count_factorizations(monkeypatch)
    solve(a[ranked][:, ranked], rhs[ranked])
    assert calls[0] < colamd


def test_dirichlet_solve_factors_the_dissection_ordered_system(monkeypatch, ellipsoid3):
    f = conformal_initial_map(ellipsoid3)
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, f)).tocsr()
    h = invert_plane(stereographic(f))
    interior = _interior_mask(h)
    seen = []
    splu = spla.splu

    def spy(matrix, *args, **kwargs):
        seen.append((matrix, kwargs))
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    dirichlet_solve(ellipsoid3, lap, h, interior)
    order = ellipsoid3.dissection_order
    idx = order[interior[order]]
    (matrix, kwargs), = seen
    assert kwargs == {"permc_spec": "NATURAL"}
    assert np.array_equal(matrix.toarray(), lap[idx][:, idx].toarray())


def test_singular_matrix_reported():
    a = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolveError):
        solve(a, np.array([1.0, 0.0]))


@pytest.mark.parametrize("permuted", [False, True])
def test_condition_estimate_is_the_one_norm_condition_number(permuted):
    rng = np.random.default_rng(4)
    dense = np.diag(rng.uniform(0.5, 2.0, 30)) + 0.2 * rng.normal(size=(30, 30))
    dense[0, 1:] *= 40.0  # unsymmetric and not too well conditioned
    a = sp.csc_matrix(dense)
    if permuted:
        order = rng.permutation(30)
        lu = spla.splu(a[order][:, order], permc_spec="NATURAL")
    else:
        lu = spla.splu(a)
    estimate = _condition_estimate(lu, a)
    exact = np.linalg.cond(dense, 1)
    assert np.isfinite(estimate)
    assert exact / 3.0 <= estimate <= 3.0 * exact


def test_shape_validation():
    with pytest.raises(ValueError, match="square"):
        solve(sp.csc_matrix(np.ones((2, 3))), np.ones(2))
    with pytest.raises(ValueError, match="rows"):
        solve(sp.eye(3, format="csc"), np.ones(2))

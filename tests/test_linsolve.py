import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from authalic.energy import assemble_laplacian
from authalic.errors import SolveError
from authalic.linsolve import SparseSystem, solve
from authalic.sphere import invert_plane, stereographic


def test_identity_system():
    x = solve(sp.eye(3, format="csc"), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1, 2, 3], atol=1e-14)


def test_two_by_two_hand_check():
    a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve(SparseSystem(matrix=a, rhs=np.array([3.0, 3.0])))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_restricted_laplacian_matches_dense_oracle(icosphere1):
    f = icosphere1.vertices
    lap = assemble_laplacian(icosphere1, f).tocsr()
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


def test_complex_rhs_factorizes_once(monkeypatch):
    calls = []
    splu = spla.splu

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    a = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, 2.0, 5.0]]))
    z = np.array([[1.0 + 2.0j, 0.5], [-3.0j, 1.0j], [2.0, -1.0 - 1.0j]])
    x = solve(a, z)
    assert len(calls) == 1
    assert x.shape == z.shape and np.iscomplexobj(x)
    assert np.abs(a @ x - z).max() <= 1e-12


def test_bicgstab_backend():
    rng = np.random.default_rng(1)
    n = 60
    a = sp.random(n, n, density=0.1, random_state=rng) + sp.eye(n) * 8.0
    b = rng.normal(size=n)
    x = solve(a.tocsc(), b, method="bicgstab")
    assert np.abs(a @ x - b).max() <= 1e-8 * max(1.0, np.abs(b).max())


def test_singular_matrix_reported():
    a = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolveError):
        solve(a, np.array([1.0, 0.0]))


def test_shape_validation():
    with pytest.raises(ValueError, match="square"):
        solve(sp.csc_matrix(np.ones((2, 3))), np.ones(2))
    with pytest.raises(ValueError, match="rows"):
        solve(sp.eye(3, format="csc"), np.ones(2))

import ast
import logging
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from authalic.energy import assemble_laplacian, face_geometry
from authalic.errors import SolveError
from authalic.fpi import dirichlet_solve, disk_interior
import authalic.linsolve as linsolve
from authalic.linsolve import _condition_estimate, factorize, solve
from authalic.mesh import make_icosphere, normalize_area
from authalic.rgd import PRECONDITIONER_SHIFT
from authalic.sphere import stereographic

from helpers import conformal_start, count_factorizations


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
    h = stereographic(f, -1.0)
    h[np.isinf(h)] = 0.0  # the south-pole vertex, solved at the origin
    interior = np.abs(h) < 1.2
    boundary = ~interior
    assert interior.any() and boundary.any()
    a = lap[interior][:, interior]
    rhs = -lap[interior][:, boundary] @ h[boundary]
    x = solve(a.tocsc(), np.column_stack([rhs.real, rhs.imag]))
    dense = np.linalg.solve(a.toarray(), rhs)
    assert np.abs(x[:, 0] + 1j * x[:, 1] - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


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
    # a complex plane is solved as its real and imaginary columns
    z = np.array([1.0 + 2.0j, -3.0j])
    xz = solve(a, np.column_stack([z.real, z.imag]))
    assert np.abs(a @ (xz[:, 0] + 1j * xz[:, 1]) - z).max() <= 1e-12


def test_complex_right_hand_side_is_a_type_error():
    a = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(TypeError, match="complex right-hand side"):
        solve(a, np.array([1.0 + 2.0j, -3.0j]))


def test_complex_rhs_factorizes_once(monkeypatch):
    calls = count_factorizations(monkeypatch)
    a = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, 2.0, 5.0]]))
    z = np.array([[1.0 + 2.0j, 0.5], [-3.0j, 1.0j], [2.0, -1.0 - 1.0j]])
    x = solve(a, np.concatenate([z.real, z.imag], axis=1))
    assert len(calls) == 1
    x = x[:, :2] + 1j * x[:, 2:]
    assert x.shape == z.shape
    assert np.abs(a @ x - z).max() <= 1e-12


def test_factorize_gives_a_checked_solve_for_many_right_hand_sides(monkeypatch):
    calls = count_factorizations(monkeypatch)
    rng = np.random.default_rng(1)
    a = sp.random(30, 30, density=0.2, random_state=rng) + sp.eye(30) * 10.0
    solve_a = factorize(a)
    for shape in ((30,), (30, 3)):
        b = rng.normal(size=shape)
        x = solve_a(b)
        assert x.shape == shape
        assert np.abs(a @ x - b).max() <= 1e-12
    assert len(calls) == 1
    # every solve is checked: a contract no roundoff meets raises
    monkeypatch.setattr(linsolve, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(SolveError, match="residual contract"):
        solve_a(rng.normal(size=(30, 3)))


def dissection_ranks(surface, interior):
    """Positions among the interior vertices, in vertex order, that list
    them in the surface's dissection order."""
    order = surface.dissection_order
    return (np.cumsum(interior) - 1)[order[interior[order]]]


def restricted_fpi_system(surface):
    """The first FPI solve's system with its unknowns in vertex order, and
    their dissection ranks."""
    f = conformal_start(surface)
    lap = assemble_laplacian(surface, face_geometry(surface, f)).tocsr()
    h = stereographic(f, -1.0)
    interior = disk_interior(h)
    rhs = -lap[interior][:, ~interior] @ h[~interior]
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
    ordered = solve(a[ranked][:, ranked], np.column_stack([rhs.real, rhs.imag])[ranked])
    ordered = ordered[:, 0] + 1j * ordered[:, 1]
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
    f = conformal_start(ellipsoid3)
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, f)).tocsr()
    h = stereographic(f, -1.0)
    interior = disk_interior(h)
    seen = []
    splu = spla.splu

    def spy(matrix, *args, **kwargs):
        seen.append((matrix, kwargs))
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    got = dirichlet_solve(ellipsoid3, lap, h, interior)
    order = ellipsoid3.dissection_order
    idx = order[interior[order]]
    (matrix, kwargs), = seen
    assert kwargs == {"permc_spec": "NATURAL"}
    assert np.array_equal(matrix.toarray(), lap[idx][:, idx].toarray())
    # the complex plane is solved by that one factorization, as two columns
    rhs = -lap[interior][:, ~interior] @ h[~interior]
    dense = np.linalg.solve(lap[interior][:, interior].toarray(), rhs)
    assert np.abs(got[interior] - dense).max() <= 1e-10 * np.abs(dense).max()
    assert np.array_equal(got[~interior], h[~interior])


def test_dirichlet_solve_hands_superlu_a_coordinate_major_block(monkeypatch, ellipsoid3):
    # the plane's real and imaginary columns reach SuperLU as the columns
    # it works in, and solve as a row-major block would
    f = conformal_start(ellipsoid3)
    lap = assemble_laplacian(ellipsoid3, face_geometry(ellipsoid3, f)).tocsr()
    h = stereographic(f, -1.0)
    interior = disk_interior(h)
    blocks = []
    splu = spla.splu

    class Factor:
        def __init__(self, matrix, **kwargs):
            self.lu = splu(matrix, **kwargs)

        def solve(self, rhs, *args, **kwargs):
            blocks.append(rhs)
            return self.lu.solve(rhs, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", Factor)
    got = dirichlet_solve(ellipsoid3, lap, h, interior)
    block, = blocks
    assert block.shape[1] == 2 and block.flags.f_contiguous
    order = ellipsoid3.dissection_order
    idx = order[interior[order]]
    x = solve(lap[idx][:, idx], np.ascontiguousarray(block))
    assert np.array_equal(got[idx], x[:, 0] + 1j * x[:, 1])


def test_every_factor_logs_its_size_fill_and_time(caplog):
    a = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, 2.0, 5.0]]))
    stored = spla.splu(a, permc_spec="NATURAL").nnz
    with caplog.at_level(logging.DEBUG, logger="authalic.linsolve"):
        factorize(a)
        solve(a, np.ones(3))
    lines = [r.getMessage() for r in caplog.records if r.name == "authalic.linsolve"]
    assert len(lines) == 2
    for line in lines:
        assert re.fullmatch(rf"factor: 3 unknowns, nnz\(A\) 7, factor nnz {stored}, "
                            rf"fill {stored / 7:.2f}x, \d+\.\d{{3}} s", line), line


def test_residual_contract_error_names_the_fill(monkeypatch):
    rng = np.random.default_rng(1)
    a = sp.csc_matrix(sp.random(30, 30, density=0.2, random_state=rng) + sp.eye(30) * 10.0)
    fill = spla.splu(a, permc_spec="NATURAL").nnz / a.nnz
    solve_a = factorize(a)
    monkeypatch.setattr(linsolve, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(SolveError, match=rf"residual contract .*, factor fill {fill:.2f}x\)"):
        solve_a(rng.normal(size=30))


def preconditioner_fill(radii):
    """Stored factor entries (``SuperLU.nnz``) per nonzero of K = L + 3
    (|M| / n) I, the descent's preconditioner on the sub-4 ellipsoid of
    `radii`, factored in its dissection order."""
    surface = make_icosphere(4, radii)
    n = surface.n_vertices
    lap = assemble_laplacian(surface, face_geometry(surface, surface.vertices))
    k = (lap + PRECONDITIONER_SHIFT * surface.total_area / n * sp.eye(n)).tocsr()
    order = surface.dissection_order
    k = sp.csc_matrix(k[order][:, order])
    return spla.splu(k, permc_spec="NATURAL").nnz / k.nnz


@pytest.mark.parametrize("radii, bound", [
    # 9.49 at leaf 8; the stack loop's order at leaf 64 filled 11.07
    ((1.0, 0.8, 0.6), 10.0),
    # 21.43 at leaf 8, 22.46 at leaf 64: splits along the long axis cut
    # full rings, whatever the leaf
    ((10.0, 1.0, 1.0), 22.0),
])
def test_the_dissection_order_bounds_the_preconditioners_fill(radii, bound):
    assert preconditioner_fill(radii) < bound


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


def factoring_calls(path):
    """(line, name) of every reference to a sparse factorization routine
    in a module's code; strings and comments do not count."""
    names = {"splu", "spilu", "spsolve", "factorized"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
    return found


def test_linsolve_is_the_only_module_that_factors():
    # one factorization route: every other module goes through factorize
    # or solve, so every solve meets the residual contract
    src = Path(__file__).resolve().parent.parent / "src" / "authalic"
    assert [name for _, name in factoring_calls(src / "linsolve.py")] == ["splu"]
    elsewhere = {p.name: calls for p in sorted(src.glob("*.py"))
                 if p.name != "linsolve.py" and (calls := factoring_calls(p))}
    assert not elsewhere

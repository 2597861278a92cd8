"""Sparse linear solves with a verified residual contract.

Direct sparse LU is the default; a diagonally preconditioned BiCGSTAB
fallback is available for very large systems (the Laplacians arising in
the unfolding passes are unsymmetric, so symmetric-only solvers are out).
Every solve is checked against the contract

    ||A x - b|| <= rtol * (||A||_inf ||x|| + ||b||)     per column,

and a violation raises :class:`SolveError` with a condition estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveError

RESIDUAL_RTOL = 1e-10
ITERATIVE_THRESHOLD = 500_000


@dataclass(frozen=True)
class SparseSystem:
    """A square sparse system with one or more right-hand-side columns."""

    matrix: sp.spmatrix
    rhs: np.ndarray


def _condition_estimate(lu, a_norm: float, n: int) -> float:
    try:
        inv_op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        return float(a_norm * spla.onenormest(inv_op))
    except Exception:
        return float("inf")


def solve(system: SparseSystem | sp.spmatrix, rhs=None, method: str = "auto",
          rtol: float = RESIDUAL_RTOL) -> np.ndarray:
    """Solve A x = b for each right-hand-side column.

    Parameters
    ----------
    system : SparseSystem or sparse matrix
        When a bare matrix is given, `rhs` supplies the right-hand side.
    method : {"auto", "direct", "bicgstab"}
        "auto" picks the direct factorization below
        :data:`ITERATIVE_THRESHOLD` unknowns and BiCGSTAB above.

    Returns
    -------
    x : array with the same shape as the right-hand side.
    """
    if isinstance(system, SparseSystem):
        matrix, rhs = system.matrix, system.rhs
    else:
        matrix = system
        if rhs is None:
            raise ValueError("rhs required when passing a bare matrix")
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    rhs = np.asarray(rhs)
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    if method == "auto":
        method = "direct" if n <= ITERATIVE_THRESHOLD else "bicgstab"

    b2 = rhs.reshape(n, -1)
    # a real matrix with a complex right-hand side: the real and imaginary
    # parts become extra real columns of the one factorization
    split = np.iscomplexobj(rhs) and not np.iscomplexobj(matrix.data)
    if split:
        b2 = np.concatenate([b2.real, b2.imag], axis=1)
    a_norm = float(abs(matrix).sum(axis=1).max()) if matrix.nnz else 0.0

    if method == "direct":
        try:
            lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SolveError(f"sparse LU factorization failed: {exc}") from exc
        x2 = lu.solve(b2)
        checker = lambda: _condition_estimate(lu, a_norm, n)
    elif method == "bicgstab":
        diag = matrix.diagonal()
        precond = None
        if (np.abs(diag) > 0).all():
            inv_diag = 1.0 / diag
            precond = spla.LinearOperator(matrix.shape, matvec=lambda v: inv_diag * v,
                                          dtype=matrix.dtype)
        cols = []
        for j in range(b2.shape[1]):
            xj, info = spla.bicgstab(matrix, b2[:, j], rtol=rtol, atol=0.0,
                                     maxiter=20 * n, M=precond)
            if info != 0:
                raise SolveError(f"BiCGSTAB did not converge (info={info}) on column {j}")
            cols.append(xj)
        x2 = np.stack(cols, axis=1)
        checker = lambda: float("nan")
    else:
        raise ValueError(f"unknown solve method {method!r}")

    residual = np.linalg.norm(matrix @ x2 - b2, axis=0)
    bound = rtol * (a_norm * np.linalg.norm(x2, axis=0) + np.linalg.norm(b2, axis=0))
    if not np.isfinite(x2).all() or (residual > np.maximum(bound, 1e-300)).any():
        raise SolveError(
            "solve failed the residual contract "
            f"(residual {residual.max():.3e}, bound {bound.max():.3e}, "
            f"condition estimate {checker():.3e}); matrix singular or ill-conditioned"
        )
    if split:
        half = b2.shape[1] // 2
        x2 = x2[:, :half] + 1j * x2[:, half:]
    return x2.reshape(rhs.shape)

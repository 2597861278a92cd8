"""Sparse linear solves with a verified residual contract.

Every system is solved by one direct sparse LU factorization (SuperLU with
its default threshold partial pivoting; the Laplacians of the unfolding
passes are unsymmetric, so symmetric-only factorizations are out).  The
system is factored in the order it is given, with no column reordering:
the callers' systems are restrictions of mesh-graph Laplacians whose
unknowns they list in the mesh's nested-dissection order
(:attr:`~authalic.mesh.SimplicialSurface.dissection_order`, computed once
per surface), which fills far less than SuperLU's own COLAMD order.
Every solve is checked against the contract

    ||A x - b|| <= RESIDUAL_RTOL * (||A||_inf ||x|| + ||b||)     per column,

and a violation raises :class:`SolveError` with a 1-norm condition
estimate.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveError

RESIDUAL_RTOL = 1e-10


def _condition_estimate(lu, matrix: sp.csc_matrix) -> float:
    """1-norm condition estimate ||A||_1 ||A^-1||_1 from the factors of A,
    inf when it cannot be formed."""
    # onenormest needs products with the transpose as well
    n = matrix.shape[0]
    try:
        inv_op = spla.LinearOperator((n, n), matvec=lu.solve,
                                     rmatvec=lambda v: lu.solve(v, trans="T"),
                                     dtype=np.float64)
        a_norm = float(abs(matrix).sum(axis=0).max()) if matrix.nnz else 0.0
        return float(a_norm * spla.onenormest(inv_op))
    except Exception:
        return float("inf")


def solve(matrix: sp.spmatrix, rhs) -> np.ndarray:
    """Solve A x = b for each right-hand-side column.

    The unknowns are eliminated in the order the rows and columns of A
    list them (SuperLU's ``NATURAL`` column order).

    Parameters
    ----------
    matrix : square sparse matrix A
    rhs : array whose first axis has one row per unknown

    Returns
    -------
    x : array with the same shape as the right-hand side.
    """
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    rhs = np.asarray(rhs)
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")

    b2 = rhs.reshape(n, -1)
    # a real matrix with a complex right-hand side: the real and imaginary
    # parts become extra real columns of the one factorization
    split = np.iscomplexobj(rhs) and not np.iscomplexobj(matrix.data)
    if split:
        b2 = np.concatenate([b2.real, b2.imag], axis=1)
    a_norm = float(abs(matrix).sum(axis=1).max()) if matrix.nnz else 0.0

    try:
        lu = spla.splu(matrix, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SolveError(f"sparse LU factorization failed: {exc}") from exc
    x2 = lu.solve(b2)

    residual = np.linalg.norm(matrix @ x2 - b2, axis=0)
    bound = RESIDUAL_RTOL * (a_norm * np.linalg.norm(x2, axis=0) + np.linalg.norm(b2, axis=0))
    if not np.isfinite(x2).all() or (residual > np.maximum(bound, 1e-300)).any():
        raise SolveError(
            "solve failed the residual contract "
            f"(residual {residual.max():.3e}, bound {bound.max():.3e}, "
            f"condition estimate {_condition_estimate(lu, matrix):.3e}); "
            "matrix singular or ill-conditioned"
        )
    if split:
        half = b2.shape[1] // 2
        x2 = x2[:, :half] + 1j * x2[:, half:]
    return x2.reshape(rhs.shape)

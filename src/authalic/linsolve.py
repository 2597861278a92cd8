"""Sparse linear solves with a verified residual contract.

Every system is solved by one direct sparse LU factorization (SuperLU with
its default threshold partial pivoting; the Laplacians of the unfolding
passes are unsymmetric, so symmetric-only factorizations are out).  The
system is factored in the order it is given, with no column reordering:
the callers list the unknowns of their mesh-graph systems (restricted
Laplacians, the stretch Hessian) in the mesh's nested-dissection order
(:attr:`~authalic.mesh.SimplicialSurface.dissection_order`, computed once
per surface).  It fills less than SuperLU's own orders: on the 10,242
vertices of ``make_icosphere(5, (1, .8, .6))``, the factor of the
descent's preconditioner K (:func:`~authalic.rgd.preconditioner`) holds
11.9 entries of L + U per nonzero of K in this order, against 13.1 in
``MMD_AT_PLUS_A``'s and 18.8 in COLAMD's; under ``MMD_AT_PLUS_A``
SuperLU's supernodes also store 105 entries per nonzero, and the factor
takes 1.4 s against 35 ms in this order.
:func:`factorize`, the library's only route to a factor, logs each
factor's size, fill and time at DEBUG level, and returns a solve
that can be applied many times (the descent's preconditioner and the
eigenvalue probe's shift-invert, see :mod:`authalic.rgd` and
:mod:`authalic.diagnostics`); :func:`solve` factors and solves once.
Systems are real: a complex plane is solved as two real columns.  Every
solve is checked against the contract

    ||A x - b|| <= RESIDUAL_RTOL * (||A||_inf ||x|| + ||b||)     per column,

and a violation raises :class:`SolveError` with a 1-norm condition
estimate and the factor's fill.
"""

from __future__ import annotations

import logging
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveError

RESIDUAL_RTOL = 1e-10

logger = logging.getLogger(__name__)


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


def _fill(lu, matrix: sp.csc_matrix) -> float:
    """The factors' stored entries per nonzero of A, from ``SuperLU.nnz``
    (``lu.L`` and ``lu.U`` would build copies of the factors)."""
    return lu.nnz / matrix.nnz if matrix.nnz else 0.0


def factorize(matrix: sp.spmatrix):
    """Factor A once; return its checked solve, ``x = solve(b)``.

    The unknowns are eliminated in the order the rows and columns of A
    list them (SuperLU's ``NATURAL`` column order).  Each call of the
    returned solve takes an array whose first axis has one row per
    unknown, checks every column against the residual contract and
    returns x with the shape of b; a complex b raises ``TypeError``.
    """
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    a_norm = float(abs(matrix).sum(axis=1).max()) if matrix.nnz else 0.0
    began = time.perf_counter()
    try:
        lu = spla.splu(matrix, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SolveError(f"sparse LU factorization failed: {exc}") from exc
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("factor: %d unknowns, nnz(A) %d, factor nnz %d, fill %.2fx, %.3f s",
                     n, matrix.nnz, lu.nnz, _fill(lu, matrix), time.perf_counter() - began)

    def solve_factored(rhs) -> np.ndarray:
        rhs = np.asarray(rhs)
        if np.iscomplexobj(rhs):
            raise TypeError("complex right-hand side: solve its real and imaginary columns")
        if rhs.shape[0] != n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
        b2 = rhs.reshape(n, -1)
        x2 = lu.solve(b2)

        # SuperLU returns x coordinate-major; a product with the whole
        # block would copy it to rows first, so each column goes alone
        ax = np.stack([matrix @ column for column in x2.T]).T
        residual = np.linalg.norm(ax - b2, axis=0)
        bound = RESIDUAL_RTOL * (a_norm * np.linalg.norm(x2, axis=0)
                                 + np.linalg.norm(b2, axis=0))
        if not np.isfinite(x2).all() or (residual > np.maximum(bound, 1e-300)).any():
            raise SolveError(
                "solve failed the residual contract "
                f"(residual {residual.max():.3e}, bound {bound.max():.3e}, "
                f"condition estimate {_condition_estimate(lu, matrix):.3e}, "
                f"factor fill {_fill(lu, matrix):.2f}x); "
                "matrix singular or ill-conditioned"
            )
        return x2.reshape(rhs.shape)

    return solve_factored


def solve(matrix: sp.spmatrix, rhs) -> np.ndarray:
    """Solve A x = b for each right-hand-side column: one factorization
    (:func:`factorize`) and one checked solve.

    Parameters
    ----------
    matrix : square sparse matrix A
    rhs : array whose first axis has one row per unknown

    Returns
    -------
    x : array with the same shape as the right-hand side.
    """
    return factorize(matrix)(rhs)

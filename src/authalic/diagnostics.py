"""Finite-difference verification, noise stability and an eigenvalue probe.

These are the measurement tools beyond the energies themselves: the
SD/Mean distortion score and every energy are read off
:class:`~authalic.energy.FaceGeometry`, and so is each finite-difference
value here.  The module adds the noise-stability error on the authalic
energy, a finite-difference harness certifying the analytic gradient,
and a sparse probe for the eigenvalue of the stretch-energy Hessian
closest to zero off the rigid translations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import energy as en
from .errors import SolveError
from .linsolve import factorize


def authalic_error(surface_noisy, surface_clean, ea_noisy: float, ea_clean: float) -> float:
    """Noise-stability score: n * |E_A(noisy) - E_A(clean)| / total vertex
    displacement.  Raises when the meshes coincide (zero displacement)."""
    if surface_noisy.n_vertices != surface_clean.n_vertices:
        raise ValueError("meshes must share topology")
    displacement = float(np.linalg.norm(surface_noisy.vertices - surface_clean.vertices,
                                        axis=1).sum())
    if displacement == 0.0:
        raise ZeroDivisionError("identical meshes: total vertex displacement is zero")
    return surface_clean.n_vertices * abs(ea_noisy - ea_clean) / displacement


def fd_gradient_norm_error(objective, f: np.ndarray, step: float = 1e-6, *,
                           max_coords: int) -> float:
    """Normwise error of an objective's analytic ambient gradient: max
    absolute deviation from central finite differences over the
    gradient's max magnitude.

    `objective` is anything with `value(f)` and `value_and_gradient(f)`
    -> (value, ambient gradient), as the descent runs it: a
    :class:`~authalic.rgd.NormalizedStretchObjective` (chordal or
    spherical) or a :class:`~authalic.registration.RegistrationObjective`.
    Every coordinate is probed, or, past `max_coords` of them, an even
    stride of at most that many, to keep large meshes affordable.  The
    error is normwise, not entrywise, because an entrywise comparison is
    dominated by the finite-difference roundoff floor (about
    eps * E / step) on entries much smaller than the gradient scale.
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValueError("step must lie in [1e-8, 1e-4]")
    f = np.asarray(f, dtype=np.float64)
    grad = objective.value_and_gradient(f)[1].ravel()
    flat = f.ravel()
    total = flat.size
    idx = np.arange(total)
    if total > max_coords:
        idx = idx[:: int(np.ceil(total / max_coords))]
    fd = np.empty(idx.size)
    for k, i in enumerate(idx):
        bump = np.zeros(total)
        bump[i] = step
        plus = objective.value((flat + bump).reshape(f.shape))
        minus = objective.value((flat - bump).reshape(f.shape))
        fd[k] = (plus - minus) / (2.0 * step)
    return max([0.0, *np.abs(fd - grad[idx])]) / max(np.abs(grad).max(), 1e-300)


# eigenpairs the probe computes near zero, and its residual contract
PROBE_EIGENPAIRS = 6
PROBE_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class HessianProbeResult:
    smallest_eigenvalue: float
    residual: float


def probe_smallest_eigenvalue(matrix, null_basis: np.ndarray) -> HessianProbeResult:
    """The eigenvalue of a symmetric sparse matrix closest to zero, off
    the span of the orthonormal columns `null_basis` (n x m, m >= 0),
    which the matrix annihilates (so their zero eigenvalues are skipped).

    Shift-invert at a tiny nonzero shift finds the :data:`PROBE_EIGENPAIRS`
    eigenpairs nearest it; each solve is one of
    :func:`~authalic.linsolve.factorize`'s, under its residual contract,
    and the start vector, right-hand sides and solutions are projected
    off `null_basis`.  The returned pair is certified against
    ||H v - t v|| <= :data:`PROBE_RESIDUAL_RTOL` ||H||_F.
    """
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]

    def deflate(v):
        return v - null_basis @ (null_basis.T @ v)

    scale = float(spla.norm(matrix, "fro"))
    sigma = 1e-9 * scale if scale > 0 else 1e-12
    solve = factorize(matrix - sigma * sp.eye(n))
    opinv = spla.LinearOperator(matrix.shape, matvec=lambda v: deflate(solve(deflate(v))),
                                dtype=np.float64)
    vals, vecs = spla.eigsh(matrix, k=min(PROBE_EIGENPAIRS, n - 1), sigma=sigma, which="LM",
                            v0=deflate(np.linspace(1.0, 2.0, n)), OPinv=opinv)
    pick = int(np.argmin(np.abs(vals)))
    lam = float(vals[pick])
    vec = vecs[:, pick]
    residual = float(np.linalg.norm(matrix @ vec - lam * vec))
    if residual > PROBE_RESIDUAL_RTOL * max(scale, 1e-300):
        raise SolveError(f"eigenvalue residual {residual:.3e} exceeds {PROBE_RESIDUAL_RTOL:.1e} "
                         f"* ||H|| = {PROBE_RESIDUAL_RTOL * scale:.3e}")
    return HessianProbeResult(smallest_eigenvalue=lam, residual=residual)


def smallest_hessian_eigenvalue(surface, f: np.ndarray) -> HessianProbeResult:
    """Probe the stretch-energy Hessian of a mapping (desk-scale meshes)
    for its eigenvalue closest to zero off the three rigid translations,
    which it always annihilates.  The Hessian is ordered vertex-major in
    the surface's dissection order to be factored: rows 3r, 3r + 1 and
    3r + 2 hold the coordinates of vertex ``dissection_order[r]``."""
    n = surface.n_vertices
    perm = (np.arange(3) * n + surface.dissection_order[:, None]).ravel()
    return probe_smallest_eigenvalue(en.assemble_global_hessian(surface, f)[perm][:, perm],
                                     np.tile(np.eye(3), (n, 1)) / np.sqrt(n))

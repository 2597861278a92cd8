"""Quality metrics, finite-difference verification, and an eigenvalue probe.

These are the measurement tools: area-ratio statistics (the SD/Mean
distortion score), the noise-stability error on the authalic energy, a
finite-difference harness certifying the analytic gradient, and a sparse
probe for the smallest eigenvalue of the stretch-energy Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import energy as en
from .errors import SolveError


@dataclass(frozen=True)
class AreaRatioStats:
    ratios: np.ndarray
    mean: float
    sd: float
    sd_over_mean: float


def area_ratio_stats(surface, f: np.ndarray) -> AreaRatioStats:
    """Population statistics of the per-face image/reference area ratios."""
    return geometry_ratio_stats(en.face_geometry(surface, f, check=False))


def geometry_ratio_stats(geom: en.FaceGeometry) -> AreaRatioStats:
    """:func:`area_ratio_stats` from a face geometry already computed."""
    ratios = geom.image_areas / geom.ref_areas
    mean = float(ratios.mean())
    sd = float(np.sqrt(np.mean((ratios - mean) ** 2)))
    return AreaRatioStats(ratios=ratios, mean=mean, sd=sd, sd_over_mean=sd / mean)


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


def _fd_probe(surface, f: np.ndarray, step: float, max_coords: int | None,
              min_abs: float | None = None):
    """The analytic ambient gradient of the normalized energy at f,
    flattened, the probed coordinates and their central differences.

    Every coordinate is probed, or an even stride of at most `max_coords`
    of them, skipping those whose gradient entry is at most `min_abs` in
    magnitude when it is given.
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValueError("step must lie in [1e-8, 1e-4]")
    f = np.asarray(f, dtype=np.float64)
    grad = en.euclidean_gradient(surface, f).ravel()
    flat = f.ravel()
    total = flat.size
    idx = np.arange(total)
    if max_coords is not None and total > max_coords:
        idx = idx[:: int(np.ceil(total / max_coords))]
    if min_abs is not None:
        idx = idx[np.abs(grad[idx]) > min_abs]
    fd = np.empty(idx.size)
    for k, i in enumerate(idx):
        bump = np.zeros(total)
        bump[i] = step
        plus = en.energy_report_per_face(surface, (flat + bump).reshape(f.shape)).normalized
        minus = en.energy_report_per_face(surface, (flat - bump).reshape(f.shape)).normalized
        fd[k] = (plus - minus) / (2.0 * step)
    return grad, idx, fd


def fd_check_gradient(surface, f: np.ndarray, step: float = 1e-6,
                      max_coords: int | None = None) -> float:
    """Max relative error of the analytic ambient gradient of the
    normalized energy against central finite differences.

    Entries below 1e-8 in magnitude are skipped in the relative
    comparison.  `max_coords` caps the number of coordinates probed
    (evenly strided) to keep large meshes affordable.
    """
    grad, idx, fd = _fd_probe(surface, f, step, max_coords, min_abs=1e-8)
    return max([0.0, *(np.abs(fd - grad[idx]) / np.abs(grad[idx]))])


def fd_gradient_norm_error(surface, f: np.ndarray, step: float = 1e-6,
                           max_coords: int | None = None) -> float:
    """Normwise variant of :func:`fd_check_gradient`: max absolute
    finite-difference deviation over the gradient's max magnitude.

    The entrywise harness is the sharper certificate but is dominated by
    the finite-difference roundoff floor (about eps * E / step) on
    entries much smaller than the gradient scale, so for arbitrary
    meshes a go/no-go check should use this one.
    """
    grad, idx, fd = _fd_probe(surface, f, step, max_coords)
    return max([0.0, *np.abs(fd - grad[idx])]) / max(np.abs(grad).max(), 1e-300)


@dataclass(frozen=True)
class HessianProbeResult:
    smallest_eigenvalue: float
    residual: float
    iterations: int


def probe_smallest_eigenvalue(matrix, mode: str = "magnitude", k: int = 6,
                              residual_rtol: float = 1e-8) -> HessianProbeResult:
    """Smallest eigenvalue of a symmetric sparse matrix.

    mode "magnitude" returns the eigenvalue closest to zero (via
    shift-invert at a tiny nonzero shift: the stretch Hessian annihilates
    rigid translations, so zero itself is an eigenvalue and cannot be
    factored at); mode "algebraic" returns the most negative eigenvalue.
    The returned pair is certified against ||H v - t v|| <= rtol ||H||_F.
    """
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]
    matvecs = [0]

    def counted(v):
        matvecs[0] += 1
        return matrix @ v

    op = spla.LinearOperator(matrix.shape, matvec=counted, dtype=np.float64)
    v0 = np.full(n, 1.0 / np.sqrt(n))
    k = min(k, n - 1)
    scale = float(spla.norm(matrix, "fro"))
    if mode == "magnitude":
        sigma = 1e-9 * scale if scale > 0 else 1e-12
        try:
            lu = spla.splu((matrix - sigma * sp.eye(n)).tocsc())
        except RuntimeError as exc:
            raise SolveError(f"shifted factorization failed: {exc}") from exc

        def counted_inv(v):
            matvecs[0] += 1
            return lu.solve(v)

        opinv = spla.LinearOperator(matrix.shape, matvec=counted_inv,
                                    dtype=np.float64)
        vals, vecs = spla.eigsh(matrix, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=opinv)
        pick = int(np.argmin(np.abs(vals)))
    elif mode == "algebraic":
        vals, vecs = spla.eigsh(op, k=1, which="SA", v0=v0, maxiter=100 * n)
        pick = 0
    else:
        raise ValueError(f"unknown probe mode {mode!r}")
    lam = float(vals[pick])
    vec = vecs[:, pick]
    residual = float(np.linalg.norm(matrix @ vec - lam * vec))
    if residual > residual_rtol * max(scale, 1e-300):
        raise SolveError(f"eigenvalue residual {residual:.3e} exceeds "
                         f"{residual_rtol:.1e} * ||H|| = {residual_rtol * scale:.3e}")
    return HessianProbeResult(smallest_eigenvalue=lam, residual=residual,
                              iterations=matvecs[0])


def smallest_hessian_eigenvalue(surface, f: np.ndarray, k: int = 6,
                                mode: str = "magnitude") -> HessianProbeResult:
    """Probe the stretch-energy Hessian of a mapping (desk-scale meshes)."""
    hessian = en.assemble_global_hessian(surface, f)
    return probe_smallest_eigenvalue(hessian, mode=mode, k=k)

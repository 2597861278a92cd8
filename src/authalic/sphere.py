"""Geometry of the unit sphere and its n-fold power.

A spherical mapping is an (n, 3) array whose rows are unit vectors (one
image point per mesh vertex); a tangent field is an (n, 3) array whose
rows are orthogonal to the corresponding mapping rows.  Planar images
live on the extended complex plane and carry an explicit point-at-
infinity mask rather than overflowing floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energy as en

UNIT_TOL = 1e-12
_MIN_NORM = 1e-14


@dataclass(frozen=True)
class PlanarPoints:
    """Points on the extended complex plane.

    `values[i]` is meaningful only where `at_infinity[i]` is False; at
    most a handful of vertices (typically the north-pole image) are
    flagged.
    """

    values: np.ndarray
    at_infinity: np.ndarray

    @classmethod
    def finite(cls, values) -> "PlanarPoints":
        values = np.asarray(values, dtype=np.complex128)
        return cls(values=values, at_infinity=np.zeros(values.shape, dtype=bool))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def assert_on_sphere(f: np.ndarray, tol: float = UNIT_TOL) -> None:
    err = np.abs(np.linalg.norm(f, axis=1) - 1.0).max()
    if err > tol:
        raise ValueError(f"mapping rows deviate from unit norm by {err:.3e}")


def project_tangent(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise tangent projection: g_l - (f_l . g_l) f_l."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {g.shape}")
    return g - row_dots(f, g)[:, None] * f


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n,) dot products of matching rows, without an (n, 3) temporary."""
    return np.einsum("ij,ij->i", a, b)


def retract(f: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Move along a tangent field and renormalize each row to the sphere."""
    if f.shape != xi.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {xi.shape}")
    s = f + xi
    norms = np.sqrt(row_dots(s, s))
    if (norms < _MIN_NORM).any():
        bad = int(np.flatnonzero(norms < _MIN_NORM)[0])
        raise ValueError(f"retraction undefined: row {bad} of f + xi is numerically zero")
    s /= norms[:, None]
    return s


def project_to_manifold(g: np.ndarray) -> np.ndarray:
    """Normalize every row to unit length."""
    g = np.asarray(g, dtype=np.float64)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    if (norms < _MIN_NORM).any():
        bad = int(np.flatnonzero(norms.ravel() < _MIN_NORM)[0])
        raise ValueError(f"cannot project zero row {bad} onto the sphere")
    return g / norms


def stereographic(f: np.ndarray) -> PlanarPoints:
    """North-pole stereographic projection (x, y, z) -> (x + iy)/(1 - z)."""
    f = np.asarray(f, dtype=np.float64)
    one_minus_z = 1.0 - f[:, 2]
    at_inf = one_minus_z < 1e-15
    values = np.zeros(f.shape[0], dtype=np.complex128)
    safe = ~at_inf
    values[safe] = (f[safe, 0] + 1j * f[safe, 1]) / one_minus_z[safe]
    return PlanarPoints(values=values, at_infinity=at_inf)


def inverse_stereographic(h: PlanarPoints) -> np.ndarray:
    """Lift extended-plane points back to the unit sphere.

    Infinity-flagged points map to the north pole.  The z coordinate is
    evaluated as 1 - 2/(|h|^2 + 1), which stays finite for huge |h|.
    """
    u, v = h.values.real, h.values.imag
    with np.errstate(over="ignore"):
        t1 = u * u + v * v + 1.0
        out = np.empty((h.n, 3), dtype=np.float64)
        out[:, 0] = 2.0 * u / t1
        out[:, 1] = 2.0 * v / t1
        out[:, 2] = 1.0 - 2.0 / t1
    out[~np.isfinite(out).all(axis=1)] = (0.0, 0.0, 1.0)
    out[h.at_infinity] = (0.0, 0.0, 1.0)
    return out


def invert_plane(h: PlanarPoints) -> PlanarPoints:
    """Inversion z -> 1/conj(z), swapping 0 and the point at infinity.

    Magnitudes below 1e-300 would overflow the quotient, so they are
    treated as the origin and sent to the infinity flag.
    """
    zero = (np.abs(h.values) <= 1e-300) & ~h.at_infinity
    values = np.zeros_like(h.values)
    safe = ~zero & ~h.at_infinity
    values[safe] = 1.0 / np.conj(h.values[safe])
    # previous infinities land at the origin, previous origins at infinity
    return PlanarPoints(values=values, at_infinity=zero)


def count_folds(surface, f: np.ndarray) -> int:
    """Number of faces whose spherical image is inverted: the count of
    :attr:`~authalic.energy.FaceGeometry.folds`, the one fold rule.

    Degenerate images (orientation exactly 0) are not counted as folds.
    """
    return en.face_geometry(surface, f, check=False).folds

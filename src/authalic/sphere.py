"""Geometry of the unit sphere and its n-fold power.

A spherical mapping is an (n, 3) array whose rows are unit vectors (one
image point per mesh vertex); a tangent field is an (n, 3) array whose
rows are orthogonal to the corresponding mapping rows.  Either may be
in either memory order: :func:`project_tangent`, :func:`retract` and
:func:`project_to_manifold` keep the order they are given, and the
descent's arrays are coordinate-major (:mod:`authalic.rgd`).  Planar
images are stereographic projections from the north or the south pole:
(n,) complex arrays on the extended plane, in which complex ``inf`` is the
point at infinity, the image of a row on the projection's pole.
"""

from __future__ import annotations

import numpy as np

from . import energy as en

UNIT_TOL = 1e-12
_MIN_NORM = 1e-14


def assert_on_sphere(f: np.ndarray) -> None:
    err = np.abs(np.linalg.norm(f, axis=1) - 1.0).max()
    if err > UNIT_TOL:
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


def stereographic(f: np.ndarray, pole: float = 1.0) -> np.ndarray:
    """Projection from the pole (0, 0, `pole`), `pole` = +-1: (x, y, z) ->
    (x + iy)/(1 - pole z), ``inf`` on a row within 1e-15 of the pole.  The
    south-pole plane is 1/conj of the north-pole plane."""
    f = np.asarray(f, dtype=np.float64)
    denominator = 1.0 - pole * f[:, 2]
    finite = ~(denominator < 1e-15)
    h = np.full(f.shape[0], np.inf, dtype=np.complex128)
    h[finite] = (f[finite, 0] + 1j * f[finite, 1]) / denominator[finite]
    return h


def inverse_stereographic(h: np.ndarray, pole: float = 1.0) -> np.ndarray:
    """Lift extended-plane points back to the unit sphere through the pole
    (0, 0, `pole`); ``inf`` and other non-finite points map to the pole.

    The z coordinate is evaluated as pole (1 - 2/(|h|^2 + 1)), which stays
    finite for huge |h|.
    """
    u, v = h.real, h.imag
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = u * u + v * v + 1.0
        out = np.empty((h.shape[0], 3), dtype=np.float64)
        out[:, 0] = 2.0 * u / t1
        out[:, 1] = 2.0 * v / t1
        out[:, 2] = pole * (1.0 - 2.0 / t1)
    out[~np.isfinite(out).all(axis=1)] = (0.0, 0.0, pole)
    return out


def count_folds(surface, f: np.ndarray) -> int:
    """Number of faces whose spherical image is inverted or degenerate:
    the count of :attr:`~authalic.energy.FaceGeometry.folds`, the one
    fold rule."""
    return en.face_geometry(surface, f).folds

"""Fold removal by mean-value-weighted re-solves in the plane.

A spherical mapping with inverted faces is projected to the extended
complex plane from the north pole, its disk {|h| < fpi.RADIUS} is
re-solved from a mean-value-weighted Laplacian (whose weights stay
positive even on flipped triangles, unlike cotangents) and lifted back,
and the pass is repeated from the south pole; other rows keep their value.
A degenerate planar corner raises by :func:`assemble_mean_value`'s divisor rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateFaceError
from .fpi import dirichlet_solve, disk_interior
# the passes solve through fpi.dirichlet_solve; solve stays importable here
# because perfbench/spans.py wraps it under this name
from .linsolve import solve  # noqa: F401
from .mesh import side_laplacian
from .sphere import count_folds, inverse_stereographic, stereographic

MAX_SWEEPS = 3
# least divisor ratio on a fold-free run: 4.5e-13 (sub-4 tube, k = 2; 1e-12 rejects it)
STRAIGHT_TOL = 1e-14


def assemble_mean_value(surface, h: np.ndarray) -> sp.csr_matrix:
    """Mean-value-weighted Laplacian of a planar mapping.

    The weight of directed edge (i, j) accumulates tan(angle at h_i / 2)
    divided by |h_i - h_j| over the faces containing the edge, so the
    matrix is generally unsymmetric; rows sum to zero.  The weights go to
    :func:`~authalic.mesh.side_laplacian` for the finite faces only: a
    face with an ``inf`` corner contributes nothing, and an edge with no
    finite face stores no entry.  A corner whose tan(angle / 2) =
    |u x v| / (|u||v| + u.v) has a divisor not above :data:`STRAIGHT_TOL`
    |u||v| (straight within about 1.4e-7, coincident, or NaN), or a weight
    that overflows, raises :class:`DegenerateFaceError` naming it and its face.
    """
    finite_faces = ~np.isinf(h)[surface.faces].any(axis=1)
    fidx = surface.faces[finite_faces]
    tri = h[fidx]
    weights = np.empty((3, 2, fidx.shape[0]))
    # corner c: angle between edges to the other two corners, feeding the
    # two directed edges that leave c
    for c in range(3):
        u = tri[:, (c + 1) % 3] - tri[:, c]
        v = tri[:, (c + 2) % 3] - tri[:, c]
        uv = np.conj(u) * v
        abs_u, abs_v = np.abs(u), np.abs(v)
        lengths = abs_u * abs_v
        divisor = lengths + uv.real
        with np.errstate(all="ignore"):
            half_tan = np.abs(uv.imag) / divisor
            weights[c] = half_tan / abs_u, half_tan / abs_v
        # a weight past a passing divisor overflows only on edges below ~1e-294
        ok = (divisor > STRAIGHT_TOL * lengths) & np.isfinite(weights[c]).all(axis=0)
        if not ok.all():
            face = int(np.flatnonzero(finite_faces)[np.argmin(ok)])
            raise DegenerateFaceError(f"degenerate planar corner {c} of face {face}: "
                                      "straight or coincident", face_index=face)
    return side_laplacian(surface.n_vertices, fidx, weights)


@dataclass(frozen=True)
class CorrectionResult:
    mapping: np.ndarray
    folds_before: int
    folds_after: int
    sweeps: int


def _solve_pass(surface, f: np.ndarray, pole: float) -> np.ndarray:
    # the disk of f's projection from the pole, re-solved; other rows copied
    h = stereographic(f, pole)
    interior = disk_interior(h)
    h = dirichlet_solve(surface, assemble_mean_value(surface, h), h, interior)
    out = f.copy()
    out[interior] = inverse_stereographic(h[interior], pole)
    return out


def correct_bijectivity(surface, f: np.ndarray) -> CorrectionResult:
    """Unfold inverted faces of a spherical mapping.

    Runs sweeps while folds remain, at most :data:`MAX_SWEEPS` of them; a
    sweep is a pass projected from the north pole, then one from the south
    pole.  Each pass re-solves the disk {|h| < :data:`~authalic.fpi.RADIUS`}
    of the opposite hemisphere and returns every other row unchanged.
    Folds are counted by :func:`~authalic.sphere.count_folds`, the
    face-geometry fold rule.  A fold-free mapping is returned as given,
    with no sweep: embedded configurations are fixed points of the
    mean-value solve, so a sweep could only add solver roundoff.  Folds
    may survive on hard inputs; the counts are reported rather than
    asserted away.  A mapping with a non-finite row raises
    :class:`DegenerateFaceError` naming the first such row.
    """
    mapping = np.asarray(f, dtype=np.float64)
    finite = np.isfinite(mapping).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DegenerateFaceError(f"row {bad} of the mapping is not finite")
    folds_before = count_folds(surface, mapping)
    sweeps = 0
    folds_after = folds_before
    while folds_after > 0 and sweeps < MAX_SWEEPS:
        mapping = _solve_pass(surface, _solve_pass(surface, mapping, 1.0), -1.0)
        sweeps += 1
        folds_after = count_folds(surface, mapping)
    return CorrectionResult(mapping=mapping, folds_before=folds_before,
                            folds_after=folds_after, sweeps=sweeps)

"""Fold removal by mean-value-weighted re-solves in the plane.

A spherical mapping with inverted faces is projected to the extended
complex plane, the disk-side vertices {|h| < fpi.RADIUS} are recomputed
from a mean-value-weighted Laplacian (whose weights stay positive even
on flipped triangles, unlike cotangents), the plane is inverted to swap
hemispheres, and the solve is repeated; the plane is inverted back
before lifting so the original orientation is preserved.
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
from .sphere import (PlanarPoints, count_folds, inverse_stereographic,
                     invert_plane, stereographic)

MAX_SWEEPS = 3


def assemble_mean_value(surface, h: PlanarPoints) -> sp.csr_matrix:
    """Mean-value-weighted Laplacian of a planar mapping.

    The weight of directed edge (i, j) accumulates tan(angle at h_i / 2)
    divided by |h_i - h_j| over the faces containing the edge, so the
    matrix is generally unsymmetric; rows sum to zero.  The weights go to
    :func:`~authalic.mesh.side_laplacian` for the finite faces only: a
    face touching an infinity-flagged vertex contributes nothing, and an
    edge with no finite face stores no entry.  Raises on coincident
    adjacent points and on angles degenerating to pi.
    """
    finite_faces = ~h.at_infinity[surface.faces].any(axis=1)
    fidx = surface.faces[finite_faces]
    tri = h.values[fidx]
    weights = np.empty((3, 2, fidx.shape[0]))
    # corner c: angle between edges to the other two corners, feeding the
    # two directed edges that leave c
    for c in range(3):
        u = tri[:, (c + 1) % 3] - tri[:, c]
        v = tri[:, (c + 2) % 3] - tri[:, c]
        # |u x v|, u . v and |u| |v|, for the angle and a stable tan(angle / 2)
        uv = np.conj(u) * v
        cross, dot, lengths = np.abs(uv.imag), uv.real, np.abs(u) * np.abs(v)
        if (lengths < 1e-14).any():
            bad = int(np.flatnonzero(lengths < 1e-14)[0])
            raise DegenerateFaceError("coincident planar points on a face",
                                      face_index=int(np.flatnonzero(finite_faces)[bad]))
        angle = np.arctan2(cross, dot)
        if (np.abs(angle - np.pi) < 1e-10).any():
            bad = int(np.flatnonzero(np.abs(angle - np.pi) < 1e-10)[0])
            raise DegenerateFaceError("degenerate (straight) planar angle",
                                      face_index=int(np.flatnonzero(finite_faces)[bad]))
        half_tan = cross / (lengths + dot)
        weights[c, 0] = half_tan / np.abs(u)
        weights[c, 1] = half_tan / np.abs(v)
    return side_laplacian(surface.n_vertices, fidx, weights)


@dataclass(frozen=True)
class CorrectionResult:
    mapping: np.ndarray
    folds_before: int
    folds_after: int
    sweeps: int


def _solve_pass(surface, h: PlanarPoints) -> PlanarPoints:
    return dirichlet_solve(surface, assemble_mean_value(surface, h), h, disk_interior(h))


def correct_bijectivity(surface, f: np.ndarray) -> CorrectionResult:
    """Unfold inverted faces of a spherical mapping.

    Runs southern+northern pass pairs while folds remain, at most
    :data:`MAX_SWEEPS` of them; each pass re-solves the disk
    {|h| < :data:`~authalic.fpi.RADIUS`} of its hemisphere and holds every
    other vertex.  Folds are counted by :func:`~authalic.sphere.count_folds`,
    the face-geometry fold rule.  A fold-free mapping is returned as
    given, with no sweep: embedded configurations are fixed points of the
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
        h = _solve_pass(surface, stereographic(mapping))
        h = _solve_pass(surface, invert_plane(h))
        # invert back so the lift restores the original hemispheres
        mapping = inverse_stereographic(invert_plane(h))
        sweeps += 1
        folds_after = count_folds(surface, mapping)
    return CorrectionResult(mapping=mapping, folds_before=folds_before,
                            folds_after=folds_after, sweeps=sweeps)

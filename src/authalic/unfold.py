"""Fold removal by mean-value-weighted re-solves in the plane.

A spherical mapping with inverted faces is projected to the extended
complex plane, the disk-side vertices {|h| < r} are recomputed from a
mean-value-weighted Laplacian (whose weights stay positive even on
flipped triangles, unlike cotangents), the plane is inverted to swap
hemispheres, and the solve is repeated; the plane is inverted back
before lifting so the original orientation is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateFaceError
from .fpi import DEFAULT_RADIUS, _interior_mask, dirichlet_solve
# the passes solve through fpi.dirichlet_solve; solve stays importable here
# because perfbench/spans.py wraps it under this name
from .linsolve import solve  # noqa: F401
from .sphere import (PlanarPoints, count_folds, inverse_stereographic,
                     invert_plane, stereographic)

MAX_SWEEPS = 3


def _corner_angles(u: np.ndarray, v: np.ndarray):
    """Angle between complex edge vectors u, v in (0, pi), plus the data
    needed for a stable tan(angle/2)."""
    cross = np.abs(np.imag(np.conj(u) * v))
    dot = np.real(np.conj(u) * v)
    lengths = np.abs(u) * np.abs(v)
    return cross, dot, lengths


def assemble_mean_value(surface, h: PlanarPoints | np.ndarray) -> sp.csr_matrix:
    """Mean-value-weighted Laplacian of a planar mapping.

    The weight of directed edge (i, j) accumulates tan(angle at h_i / 2)
    divided by |h_i - h_j| over the faces containing the edge, so the
    matrix is generally unsymmetric; rows sum to zero.  Faces touching an
    infinity-flagged vertex contribute nothing.  Raises on coincident
    adjacent points and on angles degenerating to pi.
    """
    if not isinstance(h, PlanarPoints):
        h = PlanarPoints.finite(h)
    faces = surface.faces
    finite_faces = ~h.at_infinity[faces].any(axis=1)
    tri = h.values[faces[finite_faces]]
    n = h.n

    rows_all, cols_all, vals_all = [], [], []
    fidx = faces[finite_faces]
    # corner c: angle between edges to the other two corners, feeding the
    # two directed edges that leave c
    for c in range(3):
        o1, o2 = (c + 1) % 3, (c + 2) % 3
        u = tri[:, o1] - tri[:, c]
        v = tri[:, o2] - tri[:, c]
        cross, dot, lengths = _corner_angles(u, v)
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
        for o, edge in ((o1, u), (o2, v)):
            w = half_tan / np.abs(edge)
            rows_all.append(fidx[:, c])
            cols_all.append(fidx[:, o])
            vals_all.append(-w)

    lap = sp.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(n, n),
    ).tocsr()
    diag = -np.asarray(lap.sum(axis=1)).ravel()
    return (lap + sp.diags(diag)).tocsr()


@dataclass(frozen=True)
class UnfoldPass:
    hemisphere: str
    n_interior: int
    boundary_fixed: bool


@dataclass(frozen=True)
class CorrectionResult:
    mapping: np.ndarray
    folds_before: int
    folds_after: int
    sweeps: int
    passes: list[UnfoldPass]


def _solve_pass(surface, h: PlanarPoints, r: float, label: str):
    interior = _interior_mask(h, r)
    h, fixed = dirichlet_solve(surface, assemble_mean_value(surface, h), h, interior)
    return h, UnfoldPass(hemisphere=label, n_interior=int(interior.sum()),
                         boundary_fixed=fixed)


def correct_bijectivity(surface, f: np.ndarray, r: float = DEFAULT_RADIUS,
                        max_sweeps: int = MAX_SWEEPS) -> CorrectionResult:
    """Unfold inverted faces of a spherical mapping.

    Runs southern+northern pass pairs while folds remain, at most
    `max_sweeps` of them.  A fold-free mapping is returned as given, with
    no sweep: embedded configurations are fixed points of the mean-value
    solve, so a sweep could only add solver roundoff.  Folds may survive
    on hard inputs; the counts are reported rather than asserted away.
    """
    if r <= 1.0:
        raise ValueError("radius must exceed 1")
    folds_before = count_folds(surface, f)
    mapping = np.asarray(f, dtype=np.float64)
    passes: list[UnfoldPass] = []
    sweeps = 0
    folds_after = folds_before
    while folds_after > 0 and sweeps < max_sweeps:
        h = stereographic(mapping)
        h, info_s = _solve_pass(surface, h, r, "south")
        passes.append(info_s)
        h = invert_plane(h)
        h, info_n = _solve_pass(surface, h, r, "north")
        passes.append(info_n)
        # invert back so the lift restores the original hemispheres
        h = invert_plane(h)
        mapping = inverse_stereographic(h)
        sweeps += 1
        folds_after = count_folds(surface, mapping)
    return CorrectionResult(mapping=mapping, folds_before=folds_before,
                            folds_after=folds_after, sweeps=sweeps, passes=passes)

"""Fixed-point iteration of stretch-energy minimization.

Produces the initial spherical mapping for gradient descent: the two
start maps, radial (each vertex's direction from the centroid) and
conformal (harmonic flattening of the once-punctured mesh, lifted to the
sphere, from the reference cotangent Laplacian), of which the pipeline
takes the first fold-free one in its method's order, then alternating
hemisphere solves of the image-weighted Laplacian in the stereographic
plane with median rescaling.  The iteration is cheap but not monotone;
the caller can stop as soon as the authalic energy first increases and
roll back one step.  The conformal start, these solves and fold correction
(:mod:`authalic.unfold`) share one restricted planar solve,
:func:`dirichlet_solve`.
"""

from __future__ import annotations

import time

import numpy as np

from . import energy as en
from .errors import DegenerateFaceError, SolveError
from .linsolve import solve
from .rgd import IterationRecord, MinimizeResult, make_record
from .sphere import (PlanarPoints, count_folds, inverse_stereographic,
                     invert_plane, row_dots, stereographic)

# disk radius of the hemisphere solves: each re-solves the finite points
# with |h| < RADIUS, so the two hemispheres' disks overlap
RADIUS = 1.2
# FPI stops once an iteration lowers the stretch energy by no more than this
STRETCH_DECREASE_TOL = 1e-6

# equilateral pinning targets for the punctured face, counterclockwise
_PIN = np.exp(1j * np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3]))


def conformal_initial_map(surface, rng=None, laplacian=None) -> np.ndarray:
    """Spherical conformal-ish starting map via harmonic flattening.

    One face is punctured and its three vertices pinned to an equilateral
    triangle; the cotangent-weighted Laplacian of the reference mesh is
    solved for all remaining planar positions, the plane is recentered
    (barycenter to origin, median magnitude to one), and the result is
    lifted through the inverse stereographic projection and mirrored
    (y -> -y) when more than half its faces fold, so meshes of either
    orientation get a mostly fold-free start.  The punctured face is
    drawn by `rng` when one is given, else it is the largest face.
    `laplacian` is the reference cotangent Laplacian, assembled here when
    not given.
    """
    if rng is not None:
        face_index = int(rng.integers(surface.n_faces))
    else:
        face_index = int(np.argmax(surface.face_areas))
    pinned = surface.faces[face_index]

    lap = reference_laplacian(surface) if laplacian is None else laplacian
    n = surface.n_vertices
    interior = np.ones(n, dtype=bool)
    interior[pinned] = False
    h = np.zeros(n, dtype=np.complex128)
    h[pinned] = _PIN
    h = dirichlet_solve(surface, lap, PlanarPoints.finite(h), interior).values

    h -= h.mean()
    mags = np.abs(h)
    if (mags < 1e-14).any():
        # nudge off an exact origin hit so the magnitudes stay positive
        h[mags < 1e-14] = 1e-12
        mags = np.abs(h)
    h /= np.median(mags)

    return _oriented(surface, inverse_stereographic(PlanarPoints.finite(h)))


def _oriented(surface, f: np.ndarray) -> np.ndarray:
    """`f`, mirrored in place (y -> -y) when more than half its faces
    fold: the orientation rule of both starts."""
    if count_folds(surface, f) > surface.n_faces // 2:
        f[:, 1] = -f[:, 1]
    return f


def reference_laplacian(surface):
    """The stretch Laplacian of the identity mapping, which is the
    classical half-cotangent Laplacian of the reference mesh."""
    return en.assemble_laplacian(surface, en.face_geometry(surface, surface.vertices))


def radial_initial_map(surface) -> np.ndarray:
    """The radial start (v - c) / |v - c|, c the vertex centroid, mirrored
    (y -> -y) when more than half its faces fold.

    It is fold-free on every mesh that is star-shaped about c.  A vertex
    at c has no direction: its row is NaN, and its faces count as folds.
    """
    d = surface.vertices - surface.vertices.mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = d / np.sqrt(row_dots(d, d))[:, None]
    return _oriented(surface, f)


def disk_interior(h: PlanarPoints) -> np.ndarray:
    """The vertices a hemisphere solve re-solves: the finite points of the
    disk |h| < :data:`RADIUS` (FPI and fold correction alike)."""
    with np.errstate(over="ignore"):
        mags = np.abs(h.values)
    mask = (mags < RADIUS) & ~h.at_infinity
    return mask


def dirichlet_solve(surface, lap, h: PlanarPoints, interior: np.ndarray):
    """Re-solve the `interior` vertices of the plane from `lap`, holding
    every other vertex at its current value.

    The unknowns are the interior vertices listed in the surface's
    dissection order, which is the order the system is factored in: the
    rows and columns of `lap` at those vertices, with the boundary
    columns moved to the right-hand side.  A vertex at infinity may only
    be boundary, and only where no interior row couples to it.  Returns
    the new points; only the interior entries are written.
    """
    if not interior.any():
        raise SolveError("empty interior vertex set")
    boundary = ~interior
    order = surface.dissection_order
    idx = order[interior[order]]
    rows = lap[idx]
    if h.at_infinity.any() and rows[:, h.at_infinity].nnz:
        raise SolveError("vertex at infinity is coupled to the interior system")
    rhs = -rows[:, boundary] @ np.where(h.at_infinity[boundary], 0.0, h.values[boundary])
    values = h.values.copy()
    values[idx] = solve(rows[:, idx], rhs)
    return PlanarPoints(values=values, at_infinity=h.at_infinity.copy())


def fpi_minimize(surface, f0: np.ndarray, max_iters: int,
                 stop_on_increase: bool = True) -> MinimizeResult:
    """Alternating hemisphere fixed-point iteration from `f0`.

    Each iteration: rebuild the image-weighted Laplacian from the face
    geometry of the current mapping (the one its record holds), invert the
    plane (swapping hemispheres), re-solve the interior {|h| < RADIUS}, rescale
    to unit median magnitude, and lift back to the sphere.  Stops at the
    first authalic-energy increase when `stop_on_increase`
    (``"authalic_increased"``), at the first stretch-energy increase
    (``"stretch_increased"``), once the stretch-energy decrease drops to
    :data:`STRETCH_DECREASE_TOL` (``"delta_converged"``), or after
    `max_iters` iterations.  On either increase the pre-increase mapping
    is returned and the last record is the rejected iterate, so the
    increase came at iteration ``len(records)``.  Raises
    :class:`DegenerateFaceError` when the rescale has no finite, positive
    median magnitude to divide by.
    """
    current = np.asarray(f0, dtype=np.float64).copy()
    # the working plane accumulates one inversion per iteration (that is
    # what alternates the hemispheres); an inversion is a reflection on
    # the sphere, so lifts at odd parity are inverted once more to keep
    # every reported mapping in the input orientation
    h = stereographic(current)
    flipped = False
    geom = en.face_geometry(surface, current)
    geom.stretch  # the start's energies; raises on a degenerate total area
    records: list[IterationRecord] = []
    start = time.perf_counter()

    for k in range(1, max_iters + 1):
        lap = en.assemble_laplacian(surface, geom)
        h = invert_plane(h)
        flipped = not flipped
        h = dirichlet_solve(surface, lap, h, disk_interior(h))
        with np.errstate(over="ignore"):
            mags = np.where(h.at_infinity, np.inf, np.abs(h.values))
        scale = np.median(mags)
        if not (np.isfinite(scale) and scale > 0):
            raise DegenerateFaceError(f"FPI iteration {k}: median planar magnitude {scale}")
        h = PlanarPoints(values=h.values / scale, at_infinity=h.at_infinity)
        f_new = inverse_stereographic(invert_plane(h) if flipped else h)
        geom_new = en.face_geometry(surface, f_new)
        records.append(make_record(geom_new, k, None, None, time.perf_counter() - start))
        if stop_on_increase and geom_new.authalic > geom.authalic:
            return MinimizeResult(current, records, "authalic_increased")
        delta = geom.stretch - geom_new.stretch
        if delta < 0:
            return MinimizeResult(current, records, "stretch_increased")
        current, geom = f_new, geom_new
        if delta <= STRETCH_DECREASE_TOL:
            return MinimizeResult(current, records, "delta_converged")

    return MinimizeResult(current, records, "max_iters")

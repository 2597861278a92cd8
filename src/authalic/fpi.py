"""Fixed-point iteration of stretch-energy minimization.

Produces the initial spherical mapping for gradient descent: a conformal
starting map (harmonic flattening of the once-punctured mesh, lifted to
the sphere), then alternating hemisphere solves of the image-weighted
Laplacian in the stereographic plane with median rescaling.  The
iteration is cheap but not monotone; the driver can stop as soon as the
authalic energy first increases and roll back one step.  The conformal
start, these solves and fold correction (:mod:`authalic.unfold`) share
one restricted planar solve, :func:`dirichlet_solve`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .errors import SolveError
from .linsolve import solve
from .rgd import IterationRecord, make_record
from .sphere import (PlanarPoints, count_folds, inverse_stereographic,
                     invert_plane, stereographic)

DEFAULT_RADIUS = 1.2
# FPI stops once an iteration lowers the stretch energy by no more than this
STRETCH_DECREASE_TOL = 1e-6

# equilateral pinning targets for the punctured face, counterclockwise
_PIN = np.exp(1j * np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3]))


def conformal_initial_map(surface, face_index: int | None = None, rng=None) -> np.ndarray:
    """Spherical conformal-ish starting map via harmonic flattening.

    One face is punctured and its three vertices pinned to an equilateral
    triangle; the cotangent-weighted Laplacian of the reference mesh is
    solved for all remaining planar positions, the plane is recentered
    (barycenter to origin, median magnitude to one), and the result is
    lifted through the inverse stereographic projection.  If the lift
    lands with inverted global orientation the plane is conjugated, so
    meshes of either orientation get a mostly fold-free start.
    """
    if face_index is None:
        if rng is not None:
            face_index = int(rng.integers(surface.n_faces))
        else:
            face_index = int(np.argmax(surface.face_areas))
    pinned = surface.faces[face_index]

    # stretch Laplacian of the identity mapping = classical half-cotangent
    # Laplacian of the reference mesh
    lap = en.assemble_laplacian(surface, en.face_geometry(surface, surface.vertices))
    n = surface.n_vertices
    interior = np.ones(n, dtype=bool)
    interior[pinned] = False
    h = np.zeros(n, dtype=np.complex128)
    h[pinned] = _PIN
    h = dirichlet_solve(surface, lap, PlanarPoints.finite(h), interior)[0].values

    h -= h.mean()
    mags = np.abs(h)
    if (mags < 1e-14).any():
        # nudge off an exact origin hit so the magnitudes stay positive
        h[mags < 1e-14] = 1e-12
        mags = np.abs(h)
    h /= np.median(mags)

    f = inverse_stereographic(PlanarPoints.finite(h))
    if count_folds(surface, f) > surface.n_faces // 2:
        f = inverse_stereographic(PlanarPoints.finite(np.conj(h)))
    return f


@dataclass(frozen=True)
class FPIResult:
    mapping: np.ndarray
    records: list[IterationRecord]
    first_increase: int | None
    status: str
    boundary_fixed: list[bool]


def _interior_mask(h: PlanarPoints, radius: float) -> np.ndarray:
    """The vertices a hemisphere solve re-solves: the finite points of the
    disk |h| < radius (FPI and fold correction alike)."""
    with np.errstate(over="ignore"):
        mags = np.abs(h.values)
    mask = (mags < radius) & ~h.at_infinity
    return mask


def dirichlet_solve(surface, lap, h: PlanarPoints, interior: np.ndarray):
    """Re-solve the `interior` vertices of the plane from `lap`, holding
    every other vertex at its current value.

    The system is `lap[interior]` restricted to the interior columns,
    factored in the surface's dissection order; the boundary columns move
    to the right-hand side.  A vertex at infinity may only be boundary,
    and only where no interior row couples to it.  Returns the new points
    and whether the boundary values came back bitwise unchanged.
    """
    if not interior.any():
        raise SolveError("empty interior vertex set")
    boundary = ~interior
    rows = lap[interior]
    if h.at_infinity.any() and rows[:, h.at_infinity].nnz:
        raise SolveError("vertex at infinity is coupled to the interior system")
    rhs = -rows[:, boundary] @ np.where(h.at_infinity[boundary], 0.0, h.values[boundary])
    values = h.values.copy()
    before = values[boundary].copy()
    values[interior] = solve(rows[:, interior], rhs, order=surface.subsystem_order(interior))
    fixed = bool(np.array_equal(values[boundary], before))
    return PlanarPoints(values=values, at_infinity=h.at_infinity.copy()), fixed


def fpi_minimize(surface, f0: np.ndarray, r: float = DEFAULT_RADIUS, max_iters: int = 10,
                 stop_on_increase: bool = True) -> FPIResult:
    """Alternating hemisphere fixed-point iteration from `f0`.

    Each iteration: rebuild the image-weighted Laplacian from the face
    geometry of the current mapping (the one its record holds), invert the
    plane (swapping hemispheres), re-solve the interior {|h| < r}, rescale
    to unit median magnitude, and lift back to the sphere.  Stops when
    the stretch-energy decrease drops to :data:`STRETCH_DECREASE_TOL` or
    (when `stop_on_increase`) at the first authalic-energy increase,
    returning the pre-increase mapping.
    """
    if r <= 1.0:
        raise ValueError("radius must exceed 1")
    current = np.asarray(f0, dtype=np.float64).copy()
    # the working plane accumulates one inversion per iteration (that is
    # what alternates the hemispheres); an inversion is a reflection on
    # the sphere, so lifts at odd parity are inverted once more to keep
    # every reported mapping in the input orientation
    h = stereographic(current)
    flipped = False
    geom = en.face_geometry(surface, current, check=False)
    report = en.geometry_report(surface, geom)
    records: list[IterationRecord] = []
    boundary_fixed: list[bool] = []
    start = time.perf_counter()

    for k in range(1, max_iters + 1):
        lap = en.assemble_laplacian(surface, geom)
        h = invert_plane(h)
        flipped = not flipped
        h, fixed = dirichlet_solve(surface, lap, h, _interior_mask(h, r))
        boundary_fixed.append(fixed)
        with np.errstate(over="ignore"):
            mags = np.where(h.at_infinity, np.inf, np.abs(h.values))
        h = PlanarPoints(values=h.values / np.median(mags), at_infinity=h.at_infinity)
        f_new = inverse_stereographic(invert_plane(h) if flipped else h)
        geom_new = en.face_geometry(surface, f_new, check=False)
        report_new = en.geometry_report(surface, geom_new)
        records.append(make_record(geom_new, report_new, k, None, None,
                                   time.perf_counter() - start))
        if stop_on_increase and report_new.authalic > report.authalic:
            return FPIResult(current, records, k, "authalic_increased", boundary_fixed)
        delta = report.stretch - report_new.stretch
        current, geom, report = f_new, geom_new, report_new
        if delta <= STRETCH_DECREASE_TOL:
            return FPIResult(current, records, None, "delta_converged", boundary_fixed)

    return FPIResult(current, records, None, "max_iters", boundary_fixed)

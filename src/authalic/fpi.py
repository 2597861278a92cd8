"""Fixed-point iteration of stretch-energy minimization.

Produces the initial spherical mapping for gradient descent: the two
start maps, radial (each vertex's direction from the centroid) and
conformal (harmonic flattening of the once-punctured mesh, lifted to the
sphere, from the reference cotangent Laplacian), of which the pipeline
takes the first fold-free one in its method's order, then hemisphere
solves of the image-weighted Laplacian in the stereographic plane of
alternating poles, with median rescaling.  The iteration is cheap but
not monotone; the caller can stop as soon as the authalic energy first
increases and roll back one step.  The conformal start, these solves and
fold correction (:mod:`authalic.unfold`) share one restricted planar
solve, :func:`dirichlet_solve`.
"""

from __future__ import annotations

import time

import numpy as np

from . import energy as en
from .errors import DegenerateFaceError, SolveError
from .linsolve import solve
from .rgd import IterationRecord, MinimizeResult, make_record
from .sphere import count_folds, inverse_stereographic, row_dots, stereographic

# disk radius of the hemisphere solves: each re-solves the points with
# |h| < RADIUS, never the pole's inf, and the two hemispheres' disks overlap
RADIUS = 1.2
# FPI stops once an iteration lowers the stretch energy by no more than this
STRETCH_DECREASE_TOL = 1e-6

# equilateral pinning targets for the punctured face, counterclockwise
_PIN = np.exp(1j * np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3]))


def conformal_initial_map(surface, rng, laplacian) -> np.ndarray:
    """Spherical conformal-ish starting map via harmonic flattening.

    One face, drawn by the generator `rng`, is punctured and its three
    vertices pinned to an equilateral triangle; `laplacian`, the
    reference cotangent Laplacian (:func:`reference_laplacian`), is
    solved for all remaining planar positions, the plane is recentered
    (barycenter to origin, median magnitude to one; a point at the origin
    lifts to the opposite pole), and the result is lifted through the
    inverse stereographic projection and mirrored (y -> -y) when more than
    half its faces fold, so meshes of either orientation get a mostly
    fold-free start.
    """
    pinned = surface.faces[int(rng.integers(surface.n_faces))]
    interior = np.ones(surface.n_vertices, dtype=bool)
    interior[pinned] = False
    h = np.zeros(surface.n_vertices, dtype=np.complex128)
    h[pinned] = _PIN
    h = dirichlet_solve(surface, laplacian, h, interior)

    h -= h.mean()
    h /= np.median(np.abs(h))

    return oriented(surface, inverse_stereographic(h))


def oriented(surface, f: np.ndarray) -> np.ndarray:
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
    return oriented(surface, f)


def disk_interior(h: np.ndarray) -> np.ndarray:
    """The vertices a hemisphere solve re-solves: the points of the plane
    `h` in the disk |h| < :data:`RADIUS`, never an ``inf`` (FPI and fold
    correction alike)."""
    with np.errstate(over="ignore"):
        return np.abs(h) < RADIUS


def dirichlet_solve(surface, lap, h: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Re-solve the `interior` vertices of the plane from `lap`, holding
    every other vertex at its current value.

    The unknowns are the interior vertices listed in the surface's
    dissection order, which is the order the system is factored in: the
    rows and columns of `lap` at those vertices, with the boundary columns
    moved to the right-hand side, whose real and imaginary parts are two
    coordinate-major columns of one solve, as SuperLU stores them.  A
    vertex at infinity (``inf`` in `h`) must be boundary: an entry of the
    rows in its column, even a zero, makes the right-hand side non-finite,
    which raises.  Returns a copy of `h` with the interior entries solved.
    """
    if not interior.any():
        raise SolveError("empty interior vertex set")
    order = surface.dissection_order
    idx = order[interior[order]]
    rows = lap[idx]
    rhs = -(rows @ np.where(interior, 0, h))
    if not np.isfinite(rhs).all():
        raise SolveError("vertex at infinity is coupled to the interior system")
    out = h.copy()
    x = solve(rows[:, idx], np.stack([rhs.real, rhs.imag]).T)
    out[idx] = x[:, 0] + 1j * x[:, 1]
    return out


def fpi_minimize(surface, f0: np.ndarray, max_iters: int,
                 stop_on_increase: bool = True) -> MinimizeResult:
    """Alternating hemisphere fixed-point iteration from `f0`.

    Iteration k rebuilds the image-weighted Laplacian from the face geometry
    of the current mapping (the one its record holds), projects that mapping
    from the pole (0, 0, (-1)^k) (south first, so the re-solved hemisphere
    alternates), re-solves the interior {|h| < RADIUS}, rescales to unit
    median magnitude and lifts back through the same pole.  Stops at the
    first authalic-energy increase when `stop_on_increase`
    (``"authalic_increased"``), at the first stretch-energy increase
    (``"stretch_increased"``), once the stretch-energy decrease drops to
    :data:`STRETCH_DECREASE_TOL` (``"delta_converged"``), or after `max_iters`
    iterations.  On either increase the pre-increase mapping is returned and
    the last record is the rejected iterate, so the increase came at iteration
    ``len(records)``.  A zero cap returns a copy of `f0` with no records and
    does no work.  Raises :class:`DegenerateFaceError` when the rescale has no
    finite, positive median magnitude to divide by.
    """
    current = np.asarray(f0, dtype=np.float64).copy()
    if max_iters == 0:
        return MinimizeResult(current, [], "max_iters")
    geom = en.face_geometry(surface, current)
    geom.stretch  # the start's energies; raises on a degenerate total area
    records: list[IterationRecord] = []
    start = time.perf_counter()

    for k in range(1, max_iters + 1):
        lap = en.assemble_laplacian(surface, geom)
        pole = (-1.0) ** k
        h = stereographic(current, pole)
        h = dirichlet_solve(surface, lap, h, disk_interior(h))
        scale = np.median(np.abs(h))
        if not (np.isfinite(scale) and scale > 0):
            raise DegenerateFaceError(f"FPI iteration {k}: median planar magnitude {scale}")
        with np.errstate(invalid="ignore"):  # inf / scale is inf + nan j
            f_new = inverse_stereographic(h / scale, pole)
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

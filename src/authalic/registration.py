"""Landmark-aligned registration of two spheres and surface morphing.

Two surfaces with spherical parameterizations are registered by warping
each parameterization on the sphere toward shared landmark targets (the
normalized chord midpoints of each landmark pair), minimizing the stretch
energy of the warp plus weighted squared landmark mismatch.  The final
vertex-to-surface map is evaluated by spherical point location plus
barycentric inversion, and a linear homotopy provides morph frames.
:func:`register` runs that sequence on two given spherical maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import energy as en
from .mesh import build_surface
from .rgd import GeometryMemo, MinimizeResult, minimize
from .sphere import project_to_manifold

DEFAULT_LAMBDA = 10.0


def midpoint_targets(f0: np.ndarray, f1: np.ndarray, pairs: np.ndarray,
                     normalize: bool = True) -> np.ndarray:
    """Per-pair targets c = (f0[p] + f1[q]) / 2, optionally renormalized
    onto the sphere (the attainable version; the raw chord midpoint lies
    strictly inside)."""
    c = 0.5 * (f0[pairs[:, 0]] + f1[pairs[:, 1]])
    if normalize:
        norms = np.linalg.norm(c, axis=1)
        if (norms < 1e-8).any():
            raise ValueError("landmark pair is (nearly) antipodal; midpoint undefined")
        c = c / norms[:, None]
    return c


class RegistrationObjective(GeometryMemo):
    """Stretch energy of the warp plus weighted squared landmark mismatch,
    as an objective for the shared descent driver.

    A vertex may carry several landmarks; each adds its own term.  Every
    weight must be finite and positive: at lambda <= 0 the pull pushes a
    landmark away from its target, toward the antipode.
    """

    def __init__(self, surface_sphere, landmark_rows, targets, lambdas):
        super().__init__(surface_sphere)
        self.rows = np.asarray(landmark_rows)
        if self.rows.size and (self.rows.min() < 0
                               or self.rows.max() >= surface_sphere.n_vertices):
            raise IndexError("landmark row out of range")
        self.targets = np.asarray(targets, dtype=np.float64)
        self.lambdas = np.broadcast_to(
            np.asarray(lambdas, dtype=np.float64), (self.rows.size,)
        )
        if not (np.isfinite(self.lambdas) & (self.lambdas > 0)).all():
            raise ValueError("landmark weights must be finite and positive")

    def _mismatch(self, h: np.ndarray) -> float:
        resid = h[self.rows] - self.targets
        return float(np.sum(self.lambdas * np.sum(resid**2, axis=1)))

    def value(self, h: np.ndarray) -> float:
        return self.report(h).stretch + self._mismatch(h)

    def value_and_gradient(self, h: np.ndarray):
        """Value and ambient gradient.  The gradient is 2 L(h) h through
        the per-face identity plus the landmark pull 2 lambda (h - target),
        summed per row."""
        geom = self.geometry(h)
        en.check_geometry(geom)
        grad = en.stretch_gradient(self.surface, geom)
        if self.rows.size:
            np.add.at(grad, self.rows,
                      2.0 * self.lambdas[:, None] * (h[self.rows] - self.targets))
        return self.report(h).stretch + self._mismatch(h), grad


def geodesic_mismatch(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Mean great-circle distance between paired unit vectors."""
    dots = np.clip(np.sum(points_a * points_b, axis=1), -1.0, 1.0)
    return float(np.mean(np.arccos(dots)))


def solve_alignment(sphere_surface, f_param: np.ndarray, landmark_rows,
                    targets, lambdas=DEFAULT_LAMBDA, iters: int = 200,
                    strategy: str = "interpolant") -> MinimizeResult:
    """Warp a spherical parameterization so landmarks approach targets.

    Gradient descent on the registration energy over the power manifold,
    starting from the parameterization itself.  It stops by the rules
    every descent stops by (:func:`~authalic.rgd.minimize`), the stall
    test reading the registration energy; `iters` is the iteration cap.
    Returns the descent's result, its stop `message` included.
    """
    objective = RegistrationObjective(sphere_surface, landmark_rows, targets, lambdas)
    return minimize(sphere_surface, f_param, objective=objective, max_iters=iters,
                    strategy=strategy)


# ---------------------------------------------------------------------------
# Point location and composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComposedMap:
    """Per-vertex barycentric record of a surface-to-surface map."""

    face_indices: np.ndarray
    weights: np.ndarray
    points: np.ndarray
    fallback_count: int


LOCATE_SYSTEMS = 4096 * 8
"""Most (query, candidate) 3x3 systems in one stacked solve of
:func:`locate_on_sphere`, about 2.4 MB of them."""
LOCATE_TOL = 1e-12
"""A candidate face contains a query when its least normalized
barycentric weight is at least ``-LOCATE_TOL``."""


def locate_on_sphere(points: np.ndarray, sphere_vertices: np.ndarray,
                     faces: np.ndarray):
    """Find, for each query unit vector, a containing spherical triangle.

    Candidate faces come in nearest-centroid order, in rounds that widen
    fourfold: round r tries each still-unplaced query's candidates
    [seen, k) for k = 8, 32, 128, ... up to all faces, with one tree
    query and one stacked 3x3 solve of the gnomonic barycentric systems
    [a b c] w = point per batch.  A query takes its first candidate whose
    normalized weights are all >= -:data:`LOCATE_TOL`; a singular system or a
    nonpositive weight sum skips the candidate.  Queries no face contains
    fall back to the least-negative candidate (the first of equals) and
    are counted.  Weights are clipped at zero and renormalized.  Returns
    (face_indices, weights, fallback_count).
    """
    centroids = project_to_manifold(sphere_vertices[faces].mean(axis=1))
    tree = cKDTree(centroids)
    m = faces.shape[0]
    n = points.shape[0]
    face_out = np.full(n, -1, dtype=np.int64)
    weights_out = np.zeros((n, 3))
    # least weight of each query's pick so far: >= -LOCATE_TOL once it is inside
    best = np.full(n, -np.inf)
    todo = np.arange(n)

    seen, k = 0, min(8, m)
    while todo.size and seen < m:
        batch = max(1, LOCATE_SYSTEMS // (k - seen))
        for lo in range(0, todo.size, batch):
            idx = todo[lo:lo + batch]
            p = points[idx]
            cand = tree.query(p, k=k)[1].reshape(len(p), k)[:, seen:]
            systems = sphere_vertices[faces[cand]].swapaxes(-1, -2)
            # slogdet's sign is 0 exactly when LU meets a zero pivot, the
            # one case in which gesv raises (det can also underflow to 0);
            # such a candidate is skipped instead of failing the stack
            singular = np.linalg.slogdet(systems)[0] == 0
            systems[singular] = np.eye(3)
            rhs = np.broadcast_to(p[:, None, :, None], (*cand.shape, 3, 1))
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.linalg.solve(systems, rhs)[..., 0]
                s = w.sum(axis=-1)
                w /= s[..., None]
                worst = w.min(axis=-1)
            # skipped candidates, and NaN weights, never become a pick
            worst[singular | ~(s > 0) | np.isnan(worst)] = -np.inf
            inside = worst >= -LOCATE_TOL
            # the first candidate inside, else the first least-negative one;
            # it replaces the pick of an earlier round only if it is better
            pick = np.where(inside.any(axis=1), inside.argmax(axis=1), worst.argmax(axis=1))
            rows = np.arange(len(idx))
            take = worst[rows, pick] > best[idx]
            idx, rows, pick = idx[take], rows[take], pick[take]
            face_out[idx] = cand[rows, pick]
            weights_out[idx] = w[rows, pick]
            best[idx] = worst[rows, pick]
        todo = todo[best[todo] < -LOCATE_TOL]
        seen, k = k, min(4 * k, m)

    if (face_out[todo] < 0).any():
        raise ValueError(f"point location failed for query {todo[face_out[todo] < 0][0]}")
    weights_out = np.clip(weights_out, 0.0, None)
    weights_out /= weights_out.sum(axis=1, keepdims=True)
    return face_out, weights_out, int(todo.size)


def composed_map(m1, face_indices: np.ndarray, weights: np.ndarray,
                 fallback_count: int) -> ComposedMap:
    """The map that sends each source vertex to its barycentric `weights`
    on the corners of target face `face_indices` of m1."""
    points = np.einsum("nk,nkd->nd", weights, m1.vertices[m1.faces[face_indices]])
    return ComposedMap(face_indices=face_indices, weights=weights, points=points,
                       fallback_count=fallback_count)


def compose_registration(m0, m1, f0: np.ndarray, f1: np.ndarray,
                         h0: np.ndarray, h1: np.ndarray) -> ComposedMap:
    """Map every vertex of the source surface onto the target surface.

    The aligned source images h0 are located in the aligned target sphere
    triangulation (h1 with the target faces); the barycentric weights are
    then evaluated on the target's original vertex positions.  Only m1,
    h0 and h1 are read: m0, f0 and f1 stay in the signature because the
    benchmark calls it positionally with all six.
    """
    faces, weights, fallbacks = locate_on_sphere(np.asarray(h0, dtype=np.float64),
                                                 np.asarray(h1, dtype=np.float64),
                                                 m1.faces)
    return composed_map(m1, faces, weights, fallbacks)


@dataclass(frozen=True)
class Registration:
    """Both alignments, the composed map, and the mean geodesic landmark
    mismatch of the parameterizations and of the aligned maps."""

    h0: MinimizeResult
    h1: MinimizeResult
    composed: ComposedMap
    mismatch_before: float
    mismatch_after: float


def register(m0, m1, f0: np.ndarray, f1: np.ndarray, pairs: np.ndarray,
             lam=DEFAULT_LAMBDA, iters: int = 200, strategy: str = "interpolant",
             normalize: bool = True) -> Registration:
    """Landmark-aligned registration of surface m0 onto m1.

    f0 and f1 are spherical maps of m0 and m1; row (p, q) of `pairs`
    pairs source vertex p with target vertex q.  Both maps are aligned
    to the pairs' midpoint targets (:func:`midpoint_targets`, renormalized
    unless `normalize` is false) by :func:`solve_alignment` with weight
    `lam`, at most `iters` iterations and line search `strategy`; the
    aligned source map is then located in the aligned target map
    (:func:`compose_registration`).
    """
    targets = midpoint_targets(f0, f1, pairs, normalize=normalize)
    h0 = solve_alignment(build_surface(f0, m0.faces), f0, pairs[:, 0], targets,
                         lambdas=lam, iters=iters, strategy=strategy)
    h1 = solve_alignment(build_surface(f1, m1.faces), f1, pairs[:, 1], targets,
                         lambdas=lam, iters=iters, strategy=strategy)
    composed = compose_registration(m0, m1, f0, f1, h0.mapping, h1.mapping)
    return Registration(
        h0=h0, h1=h1, composed=composed,
        mismatch_before=geodesic_mismatch(f0[pairs[:, 0]], f1[pairs[:, 1]]),
        mismatch_after=geodesic_mismatch(h0.mapping[pairs[:, 0]], h1.mapping[pairs[:, 1]]))


def homotopy_frame(m0, composed: ComposedMap, t: float) -> np.ndarray:
    """Linear morph position (1 - t) v + t g(v) at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter {t} outside [0, 1]")
    return (1.0 - t) * m0.vertices + t * composed.points

"""Landmark-aligned registration of two spheres and surface morphing.

Two surfaces with spherical parameterizations are registered by warping
each parameterization on the sphere toward shared landmark targets (the
normalized chord midpoints of each landmark pair, after the rigid
rotation of the second map's landmarks onto the first's), minimizing
the spherical-area stretch energy of the warp plus weighted squared
landmark mismatch by preconditioned Riemannian L-BFGS from the map's
best rigid rotation onto the targets.  The rigid steps matter because a
spherical map may follow its input's frame (the default radial start
does), so two maps of differently posed surfaces can start far apart
though each is fine; a rotation changes no face area.  The final
vertex-to-surface map is evaluated by spherical point location plus
barycentric inversion, and a linear homotopy provides morph frames.
:func:`register` runs that sequence on two given spherical maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import energy as en
from .fpi import reference_laplacian
from .mesh import with_vertices
from .rgd import GeometryMemo, MinimizeResult, minimize, preconditioner
from .sphere import project_to_manifold

# the landmark weight and the iteration cap of each alignment, for the
# library and the command line alike; the cap is a safety bound, and an
# alignment often stops before it, by the relative gradient test
DEFAULT_LAMBDA = 10.0
DEFAULT_ALIGN_ITERS = 40


def landmark_rotation(targets: np.ndarray, points: np.ndarray, weights) -> np.ndarray:
    """The rotation R (det R = +1) that minimizes the weighted pull
    sum_i w_i |R points_i - targets_i|^2 (Kabsch, Acta Cryst. A32, 1976).

    R comes from the SVD of the 3 x 3 weighted cross-covariance
    sum_i w_i targets_i points_i^T, with the sign of its last singular
    direction chosen so that R is proper.  Apply it to row vectors as
    ``points @ R.T``.
    """
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (len(points),))
    u, _, vt = np.linalg.svd((w[:, None] * targets).T @ points)
    d = np.sign(np.linalg.det(u @ vt))
    return (u * np.array([1.0, 1.0, d])) @ vt


def midpoint_targets(f0: np.ndarray, f1: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Per-pair targets c = (f0[p] + R f1[q]) / |f0[p] + R f1[q]|: the
    chord midpoints renormalized onto the sphere, where a landmark can
    reach them.  A pair that is (nearly) antipodal after R has no
    midpoint and raises ``ValueError``.

    R is the rotation of f1's landmarks onto f0's
    (:func:`landmark_rotation`, unweighted): two spherical maps may lie
    in different frames, and a rotation changes no face area, so the
    targets are taken in f0's frame and do not depend on f1's.
    """
    a, b = f0[pairs[:, 0]], f1[pairs[:, 1]]
    c = 0.5 * (a + b @ landmark_rotation(a, b, 1.0).T)
    norms = np.linalg.norm(c, axis=1)
    if (norms < 1e-8).any():
        raise ValueError("landmark pair is (nearly) antipodal; midpoint undefined")
    return c / norms[:, None]


class RegistrationObjective(GeometryMemo):
    """Normalized stretch energy of the warp, measured with spherical
    image areas, plus weighted squared landmark mismatch, as an objective
    of :func:`~authalic.rgd.minimize`.

    The stretch term is the default descent's energy
    (:attr:`~authalic.energy.FaceGeometry.spherical_normalized`), with
    the sphere mesh being warped as the reference.  A vertex may carry
    several landmarks; each adds its own term.  Every weight must be
    finite and positive: at lambda <= 0 the pull pushes a landmark away
    from its target, toward the antipode.
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
        return self.geometry(h).spherical_normalized + self._mismatch(h)

    def value_and_gradient(self, h: np.ndarray):
        """Value and ambient gradient: the spherical stretch gradient
        (:func:`~authalic.energy.spherical_gradient`) plus the landmark
        pull 2 lambda (h - target), summed per row."""
        geom = self.geometry(h)
        en.check_geometry(geom)
        grad = en.spherical_gradient(self.surface, geom, h)
        if self.rows.size:
            np.add.at(grad, self.rows,
                      2.0 * self.lambdas[:, None] * (h[self.rows] - self.targets))
        return geom.spherical_normalized + self._mismatch(h), grad


def geodesic_mismatch(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Mean great-circle distance between paired unit vectors, each
    atan2(|a x b|, a . b): exact to roundoff at every angle, where the
    arccos of the dot rounds an angle below about 1e-8 rad to 0 or 1e-8."""
    sines = np.linalg.norm(np.cross(points_a, points_b), axis=1)
    return float(np.mean(np.arctan2(sines, np.einsum("ij,ij->i", points_a, points_b))))


def solve_alignment(sphere_surface, f_param: np.ndarray, landmark_rows,
                    targets, lambdas=DEFAULT_LAMBDA,
                    iters: int = DEFAULT_ALIGN_ITERS) -> MinimizeResult:
    """Warp a spherical parameterization so landmarks approach targets.

    Preconditioned Riemannian L-BFGS on the registration energy
    (:class:`RegistrationObjective`) over the power manifold, starting
    from the rotation of the parameterization that minimizes the
    lambda-weighted landmark pull (:func:`landmark_rotation`).  The
    rotation changes no face area, so the stretch term starts where the
    parameterization's is, and the descent only has to warp, not to turn
    the map into the targets' frame.  The preconditioner's Laplacian
    (:func:`~authalic.rgd.preconditioner`) is half the Hessian of the
    energy's quadratic parts, K_L = L + diag(sum of lambda per landmark
    row): the stretch energy's is about 2 L, L the sphere mesh's
    cotangent Laplacian, and each landmark pull's 2 lambda.  It stops by
    the rules every descent stops by
    (:func:`~authalic.rgd.minimize`), often by the gradient test
    relative to the first gradient; `iters` is a safety cap.  Returns
    the descent's result, its stop `message` included.
    """
    objective = RegistrationObjective(sphere_surface, landmark_rows, targets, lambdas)
    pull = np.bincount(objective.rows, weights=objective.lambdas,
                       minlength=sphere_surface.n_vertices)
    precondition = preconditioner(sphere_surface,
                                  reference_laplacian(sphere_surface) + sp.diags(pull))
    rotation = landmark_rotation(objective.targets, f_param[objective.rows],
                                 objective.lambdas)
    return minimize(objective, f_param @ rotation.T, max_iters=iters,
                    precondition=precondition)


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
"""Most (query, candidate face) pairs weighed in one batch of :func:`locate_on_sphere`."""
LOCATE_TOL = 1e-12
"""A face contains a query when its least normalized weight is at least ``-LOCATE_TOL``."""


def gnomonic_weights(points, a, b, c):
    """Weights of `points` in the triangles a b c, (3, ...) like the inputs
    (coordinate-major), and whether each triangle is usable, (...).

    By Cramer's rule, w = (det[p b c], det[a p c], det[a b p]) over their
    sum S weigh p's central projection onto the triangle's plane.  Each det
    is p . (b' x c') of the corners relative to p, b' = b - p and so on, as
    b x c cancels for nearby unit vectors.  A triangle is usable when
    sum([a b c]^-1 p) = S / det[a b c] > 0, det[a b c] = det[a' b' c'] + S.
    """
    def triple(u, v, x):
        return (u[0] * (v[1] * x[2] - v[2] * x[1]) + u[1] * (v[2] * x[0] - v[0] * x[2])
                + u[2] * (v[0] * x[1] - v[1] * x[0]))

    a, b, c = a - points, b - points, c - points
    w = np.stack([triple(points, b, c), triple(points, c, a), triple(points, a, b)])
    s = w[0] + w[1] + w[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return w / s, np.sign(triple(a, b, c) + s) * s > 0


def locate_on_sphere(points: np.ndarray, sphere_vertices: np.ndarray,
                     faces: np.ndarray):
    """Find, for each query unit vector, a containing spherical triangle.

    Candidate faces come in nearest-centroid order, in rounds that widen
    fourfold: round r weighs each still-unplaced query's candidates
    [seen, k), k = 8, 32, 128, ... up to all faces, by
    :func:`gnomonic_weights`, in batches of at most :data:`LOCATE_SYSTEMS`
    pairs.  A query takes its first usable candidate whose weights are all
    >= -:data:`LOCATE_TOL`; one that no face contains falls back to the
    first least-negative usable candidate and is counted.  Weights are
    clipped at zero and renormalized.  Returns (face_indices, weights,
    fallback_count).
    """
    tree = cKDTree(project_to_manifold(sphere_vertices[faces].mean(axis=1)))
    m, n = faces.shape[0], points.shape[0]
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
            w, usable = gnomonic_weights(p.T[:, :, None], *(sphere_vertices.T[:, corner[cand]]
                                                            for corner in faces.T))
            worst = np.where(usable, w.min(axis=0), -np.inf)   # never a pick if unusable
            inside = worst >= -LOCATE_TOL
            # the first candidate inside, else the first least-negative one;
            # it replaces the pick of an earlier round only if it is better
            pick = np.where(inside.any(axis=1), inside.argmax(axis=1), worst.argmax(axis=1))
            rows = np.arange(len(idx))
            take = worst[rows, pick] > best[idx]
            idx, rows, pick = idx[take], rows[take], pick[take]
            face_out[idx] = cand[rows, pick]
            weights_out[idx] = w[:, rows, pick].T
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
    return composed_map(m1, *locate_on_sphere(np.asarray(h0, dtype=np.float64),
                                              np.asarray(h1, dtype=np.float64), m1.faces))


@dataclass(frozen=True)
class Registration:
    """Both alignments, the composed map, the rotation of the target
    map's landmarks onto the source map's, and the mean geodesic
    landmark mismatch of the parameterizations (after that rotation)
    and of the aligned maps."""

    h0: MinimizeResult
    h1: MinimizeResult
    composed: ComposedMap
    rotation: np.ndarray
    mismatch_before: float
    mismatch_after: float

    @property
    def rotation_deg(self) -> float:
        """The angle of :attr:`rotation`, in degrees."""
        cos = 0.5 * (np.trace(self.rotation) - 1.0)
        return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def register(m0, m1, f0: np.ndarray, f1: np.ndarray, pairs: np.ndarray,
             lam=DEFAULT_LAMBDA, iters: int = DEFAULT_ALIGN_ITERS) -> Registration:
    """Landmark-aligned registration of surface m0 onto m1.

    f0 and f1 are spherical maps of m0 and m1, in frames of their own;
    row (p, q) of `pairs` pairs source vertex p with target vertex q.
    Both maps are aligned to the pairs' renormalized midpoint targets
    (:func:`midpoint_targets`, in f0's frame) by :func:`solve_alignment`
    with weight `lam` and at most `iters` iterations, each from its own
    best rotation onto the targets; the aligned source map is then
    located in the aligned target map (:func:`compose_registration`).
    The rotation R of f1's landmarks onto f0's is recorded, and
    `mismatch_before` is measured after it, so that it holds no frame
    difference.  Each map is aligned on its mesh's face list, reused by
    :func:`~authalic.mesh.with_vertices` with its validation and order.
    """
    a, b = f0[pairs[:, 0]], f1[pairs[:, 1]]
    rotation = landmark_rotation(a, b, 1.0)
    targets = midpoint_targets(f0, f1, pairs)
    h0 = solve_alignment(with_vertices(m0, f0), f0, pairs[:, 0], targets,
                         lambdas=lam, iters=iters)
    h1 = solve_alignment(with_vertices(m1, f1), f1, pairs[:, 1], targets,
                         lambdas=lam, iters=iters)
    composed = compose_registration(m0, m1, f0, f1, h0.mapping, h1.mapping)
    return Registration(
        h0=h0, h1=h1, composed=composed, rotation=rotation,
        mismatch_before=geodesic_mismatch(a, b @ rotation.T),
        mismatch_after=geodesic_mismatch(h0.mapping[pairs[:, 0]], h1.mapping[pairs[:, 1]]))


def homotopy_frame(m0, composed: ComposedMap, t: float) -> np.ndarray:
    """Linear morph position (1 - t) v + t g(v) at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter {t} outside [0, 1]")
    return (1.0 - t) * m0.vertices + t * composed.points

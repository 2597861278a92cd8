"""Landmark-aligned registration of two spheres and surface morphing.

Two surfaces with spherical parameterizations are registered by warping
each parameterization on the sphere toward shared landmark targets (the
normalized chord midpoints of each landmark pair), minimizing the stretch
energy of the warp plus weighted squared landmark mismatch.  The final
vertex-to-surface map is evaluated by spherical point location plus
barycentric inversion, and a linear homotopy provides morph frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import energy as en
from .rgd import GeometryMemo, SolverConfig, minimize
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

    A vertex may carry several landmarks; each adds its own term.
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

    def _mismatch(self, h: np.ndarray) -> float:
        resid = h[self.rows] - self.targets
        return float(np.sum(self.lambdas * np.sum(resid**2, axis=1)))

    def value(self, h: np.ndarray) -> float:
        return self.report(h).stretch + self._mismatch(h)

    def value_and_gradient(self, h: np.ndarray):
        """Value, ambient gradient and stretch report.  The gradient is
        2 L(h) h through the per-face identity plus the landmark pull
        2 lambda (h - target), summed per row."""
        geom = self.geometry(h)
        en.check_geometry(geom)
        report = self.report(h)
        grad = en.stretch_gradient(self.surface, geom)
        if self.rows.size:
            np.add.at(grad, self.rows,
                      2.0 * self.lambdas[:, None] * (h[self.rows] - self.targets))
        return report.stretch + self._mismatch(h), grad, report


def geodesic_mismatch(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Mean great-circle distance between paired unit vectors."""
    dots = np.clip(np.sum(points_a * points_b, axis=1), -1.0, 1.0)
    return float(np.mean(np.arccos(dots)))


@dataclass(frozen=True)
class AlignmentResult:
    mapping: np.ndarray
    records: list
    status: str
    initial_mismatch: float
    final_mismatch: float


def solve_alignment(sphere_surface, f_param: np.ndarray, landmark_rows,
                    targets, lambdas=DEFAULT_LAMBDA, iters: int = 200,
                    mismatch_tol: float = 1e-6,
                    strategy: str = "interpolant") -> AlignmentResult:
    """Warp a spherical parameterization so landmarks approach targets.

    Gradient descent on the registration energy over the power manifold,
    starting from the parameterization itself; stops at `iters`
    iterations or when the mean geodesic landmark mismatch drops below
    `mismatch_tol`.
    """
    rows = np.asarray(landmark_rows)
    targets = np.asarray(targets, dtype=np.float64)
    objective = RegistrationObjective(sphere_surface, rows, targets, lambdas)

    def mismatch(h):
        return geodesic_mismatch(h[rows], targets)

    def stop(h, records):
        return "landmarks_aligned" if mismatch(h) < mismatch_tol else None

    initial = mismatch(f_param)
    # the stall rule watches the stretch authalic energy, which is not the
    # minimized quantity here; disable it and run on iterations/mismatch
    config = SolverConfig(max_iters=iters, strategy=strategy, grad_tol=1e-12,
                          energy_tol=-np.inf)
    result = minimize(sphere_surface, f_param, config, objective=objective,
                      extra_stop=stop)
    return AlignmentResult(mapping=result.mapping, records=result.records,
                           status=result.status, initial_mismatch=initial,
                           final_mismatch=mismatch(result.mapping))


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


def _barycentric_on_sphere(point: np.ndarray, triangle: np.ndarray):
    """Gnomonic barycentric coordinates of a unit vector with respect to a
    spherical triangle: solve the 3x3 system [a b c] w = point and
    normalize; `point` lies inside iff all components are nonnegative."""
    try:
        w = np.linalg.solve(triangle.T, point)
    except np.linalg.LinAlgError:
        return None
    s = w.sum()
    if s <= 0:
        return None
    return w / s


def locate_on_sphere(points: np.ndarray, sphere_vertices: np.ndarray,
                     faces: np.ndarray, tol: float = 1e-12):
    """Find, for each query unit vector, a containing spherical triangle.

    Candidate faces come from a nearest-centroid tree, expanded until a
    triangle with all barycentric weights >= -tol is found; queries that
    exhaust all faces fall back to the least-negative triangle and are
    counted.  Returns (face_indices, weights, fallback_count).
    """
    centroids = project_to_manifold(sphere_vertices[faces].mean(axis=1))
    tree = cKDTree(centroids)
    m = faces.shape[0]
    n = points.shape[0]
    face_out = np.full(n, -1, dtype=np.int64)
    weights_out = np.zeros((n, 3))
    fallbacks = 0

    for idx in range(n):
        p = points[idx]
        found = False
        best = (-np.inf, -1, None)
        k = 8
        seen = 0
        while not found and seen < m:
            k = min(k, m)
            _, cand = tree.query(p, k=k)
            cand = np.atleast_1d(cand)[seen:]
            for fi in cand:
                tri = sphere_vertices[faces[fi]]
                w = _barycentric_on_sphere(p, tri)
                if w is None:
                    continue
                worst = w.min()
                if worst >= -tol:
                    face_out[idx] = fi
                    weights_out[idx] = np.clip(w, 0.0, None)
                    weights_out[idx] /= weights_out[idx].sum()
                    found = True
                    break
                if worst > best[0]:
                    best = (worst, fi, w)
            seen = k
            k *= 4
        if not found:
            fallbacks += 1
            _, fi, w = best
            if fi < 0:
                raise ValueError(f"point location failed for query {idx}")
            w = np.clip(w, 0.0, None)
            face_out[idx] = fi
            weights_out[idx] = w / w.sum()
    return face_out, weights_out, fallbacks


def compose_registration(m0, m1, f0: np.ndarray, f1: np.ndarray,
                         h0: np.ndarray, h1: np.ndarray) -> ComposedMap:
    """Map every vertex of the source surface onto the target surface.

    The aligned source images h0 are located in the aligned target sphere
    triangulation (h1 with the target faces); the barycentric weights are
    then evaluated on the target's original vertex positions.
    """
    faces, weights, fallbacks = locate_on_sphere(np.asarray(h0, dtype=np.float64),
                                                 np.asarray(h1, dtype=np.float64),
                                                 m1.faces)
    tri_pts = m1.vertices[m1.faces[faces]]
    points = np.einsum("nk,nkd->nd", weights, tri_pts)
    return ComposedMap(face_indices=faces, weights=weights, points=points,
                       fallback_count=fallbacks)


def homotopy_frame(m0, composed: ComposedMap, t: float) -> np.ndarray:
    """Linear morph position (1 - t) v + t g(v) at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter {t} outside [0, 1]")
    return (1.0 - t) * m0.vertices + t * composed.points

"""Shared test fixtures: independent oracle implementations and mesh builders.

The oracles here deliberately take different code paths from the package
(trigonometric angle extraction, dense loops, generic finite differences)
so that agreement is meaningful.
"""

import numpy as np

from authalic.energy import assemble_laplacian
from authalic.mesh import build_surface, make_icosphere
from authalic.sphere import project_to_manifold


def laplacian_stretch(surface, f):
    """Stretch energy as the Laplacian quadratic form
    (1/2) sum_s (f^s)^T L f^s, the cross-check of the per-face sum."""
    f = np.asarray(f, dtype=np.float64)
    return 0.5 * float(np.sum(f * (assemble_laplacian(surface, f) @ f)))


def dense_stretch_laplacian(surface, f):
    """Brute-force dense assembly of the image-weighted Laplacian using
    explicit angle extraction (arccos + tan) per face corner."""
    n = surface.n_vertices
    lap = np.zeros((n, n))
    for tri in surface.faces:
        i, j, k = (int(v) for v in tri)
        pi, pj, pk = f[i], f[j], f[k]
        area_img = 0.5 * np.linalg.norm(np.cross(pj - pi, pk - pi))
        area_ref = 0.5 * np.linalg.norm(np.cross(
            surface.vertices[j] - surface.vertices[i],
            surface.vertices[k] - surface.vertices[i]))
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            # angle at corner c, opposite edge (a, b)
            u, v = f[a] - f[c], f[b] - f[c]
            theta = np.arccos(np.clip(
                np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1))
            w = (np.cos(theta) / np.sin(theta)) * area_img / (2.0 * area_ref)
            lap[a, b] -= w
            lap[b, a] -= w
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def dense_mean_value_laplacian(surface, h):
    """Brute-force dense mean-value-weighted Laplacian via np.tan."""
    n = len(h)
    lap = np.zeros((n, n))
    for tri in surface.faces:
        i, j, k = (int(v) for v in tri)
        for c, o1, o2 in ((i, j, k), (j, k, i), (k, i, j)):
            u, v = h[o1] - h[c], h[o2] - h[c]
            phi = abs(np.angle(v / u))
            t = np.tan(phi / 2.0)
            lap[c, o1] -= t / abs(h[c] - h[o1])
            lap[c, o2] -= t / abs(h[c] - h[o2])
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def central_difference_gradient(fun, x, eps=1e-6):
    """Generic dense central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel().copy()
    grad = np.zeros_like(flat)
    for idx in range(flat.size):
        bump = np.zeros_like(flat)
        bump[idx] = eps
        grad[idx] = (fun((flat + bump).reshape(x.shape))
                     - fun((flat - bump).reshape(x.shape))) / (2.0 * eps)
    return grad.reshape(x.shape)


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def bumpy_sphere(subdivisions=3, amplitude=0.15, frequency=3.0):
    """Radially bumped icosphere; rough enough that the fixed-point
    iteration's energy turns upward after a few steps."""
    base = make_icosphere(subdivisions)
    v = base.vertices
    radial = (1.0
              + amplitude * np.sin(frequency * v[:, 0]) * np.cos(frequency * v[:, 1])
              + 0.7 * amplitude * np.sin(1.3 * frequency * v[:, 2]))
    return build_surface(v * radial[:, None], base.faces)


def regular_tetrahedron():
    verts = np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                      (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)])
    faces = np.array([(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
    return build_surface(verts, faces)


def random_tetrahedron(rng):
    """Random valid tetrahedron surface (4 faces with random geometry)."""
    while True:
        verts = rng.normal(size=(4, 3))
        faces = np.array([(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
        areas = [0.5 * np.linalg.norm(np.cross(verts[b] - verts[a], verts[c] - verts[a]))
                 for a, b, c in faces]
        if min(areas) > 1e-3:
            return build_surface(verts, faces)


def inverted_vertex_map(surface, vertex=17):
    """The mesh's own vertices on the sphere with one vertex pushed through
    and past a neighbor, so the faces between its old and new position
    invert (reflecting through the neighbors' centroid would keep the
    vertex radially centered over its ring and produce no fold on a
    sphere mesh)."""
    f = surface.vertices.copy()
    star = np.unique(surface.faces[(surface.faces == vertex).any(axis=1)])
    neighbors = star[star != vertex]
    f[vertex] = 2.0 * surface.vertices[neighbors[0]] - f[vertex]
    return project_to_manifold(f)

"""Shared test fixtures: independent oracle implementations and mesh builders.

The oracles here deliberately take different code paths from the package
(trigonometric angle extraction, dense loops, generic finite differences)
so that agreement is meaningful.
"""

import numpy as np
import scipy.sparse.linalg as spla
from scipy.spatial import ConvexHull, cKDTree

from authalic import mesh
from authalic.energy import _corner_weights, assemble_laplacian, check_geometry, face_geometry
from authalic.fpi import conformal_initial_map, reference_laplacian
from authalic.mesh import build_surface, make_icosphere
from authalic.registration import gnomonic_weights
from authalic.sphere import project_to_manifold


def laplacian_stretch(surface, f):
    """Stretch energy as the Laplacian quadratic form
    (1/2) sum_s (f^s)^T L f^s, the cross-check of the per-face sum."""
    f = np.asarray(f, dtype=np.float64)
    lap = assemble_laplacian(surface, face_geometry(surface, f))
    return 0.5 * float(np.sum(f * (lap @ f)))


def image_area_gradient_via_laplacian(surface, f):
    """Gradient of the total image area through the per-face Laplacian,
    (|tau| / |f(tau)|) L(f|tau) f_tau summed per face: the cross-check of
    the closed-form area partials."""
    geom = face_geometry(surface, f)
    check_geometry(geom)
    w_i, w_j, w_k = _corner_weights(surface, geom)
    p = np.asarray(f)[surface.faces]
    # per-face Laplacian rows: L = [[wj+wk, -wk, -wj], [-wk, wi+wk, -wi],
    # [-wj, -wi, wi+wj]] applied to the corner positions
    li = (w_j + w_k)[:, None] * p[:, 0] - w_k[:, None] * p[:, 1] - w_j[:, None] * p[:, 2]
    lj = -w_k[:, None] * p[:, 0] + (w_i + w_k)[:, None] * p[:, 1] - w_i[:, None] * p[:, 2]
    lk = -w_j[:, None] * p[:, 0] - w_i[:, None] * p[:, 1] + (w_i + w_j)[:, None] * p[:, 2]
    scale = (surface.face_areas / geom.image_areas)[:, None]
    return mesh.scatter_corners(surface,
                                np.concatenate([scale * li, scale * lj, scale * lk]).T,
                                surface.faces.T.ravel())


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


def conformal_start(surface):
    """The conformal start of a run at the default seed 0: the face its
    generator draws first punctured, with the reference Laplacian."""
    return conformal_initial_map(surface, np.random.default_rng(0), reference_laplacian(surface))


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


def unit_hull(n_points: int, seed: int):
    """Convex hull of `n_points` random unit vectors, faces outward.

    Outward is measured from the points' centroid, which lies inside the
    hull; the origin need not when the points are few."""
    points = np.random.default_rng(seed).normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    faces = ConvexHull(points).simplices
    corners = points[faces]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    inward = np.einsum("ij,ij->i", normals, corners[:, 0] - points.mean(axis=0)) < 0
    faces[inward] = faces[inward][:, ::-1]
    return build_surface(points, faces)


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


def straight_corner_icosphere():
    """The sub-3 icosphere with corner 0 of face 0 moved to its opposite
    edge's midpoint plus 1e-9 in each coordinate: its fold correction
    meets a planar corner within about 1e-8 of a straight angle, where
    |u||v| + u.v rounds to zero."""
    s = make_icosphere(3)
    v = s.vertices.copy()
    a, b, c = s.faces[0]
    v[a] = (v[b] + v[c]) / 2 + 1e-9
    return build_surface(v, s.faces)


def icosphere_by_midpoint_dict(subdivisions, radii=(1.0, 1.0, 1.0)):
    """The icosphere subdivided face by face with a midpoint dictionary:
    the reference for the numbering and rounding of `make_icosphere`."""
    verts = list(mesh._ICO_VERTS)
    faces = mesh._ICO_FACES.copy()
    for _ in range(subdivisions):
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = verts[a] + verts[b]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for i, j, k in faces:
            ij, jk, ki = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = np.array(new_faces, dtype=np.int64)
    return build_surface(np.array(verts) * np.asarray(radii, dtype=np.float64), faces)


def locate_one_by_one(points, sphere_vertices, faces, tol=1e-12):
    """Spherical point location query by query: the reference for the
    search order of the batched `locate_on_sphere`, weighing each
    candidate with the same kernel, `registration.gnomonic_weights`, so
    that the two agree bitwise.  Each query tries its 8, 32, 128, ...
    nearest-centroid faces in order, skipping unusable candidates
    (singular or back-facing triangles), and takes the first triangle
    whose normalized weights are all >= -tol, else the least-negative
    one; a query with no usable candidate raises ``ValueError``, as the
    library does.  Returns (faces, weights, fallback_count)."""
    tree = cKDTree(project_to_manifold(sphere_vertices[faces].mean(axis=1)))
    m = faces.shape[0]
    face_out = np.full(len(points), -1, dtype=np.int64)
    weights_out = np.zeros((len(points), 3))
    fallbacks = 0
    for idx, p in enumerate(points):
        best = (-np.inf, -1, None)
        k, seen = 8, 0
        while face_out[idx] < 0 and seen < m:
            k = min(k, m)
            cand = np.atleast_1d(tree.query(p, k=k)[1])[seen:]
            corners = sphere_vertices[faces[cand]]
            weights, usable = gnomonic_weights(p[:, None], *corners.transpose(1, 2, 0))
            for fi, w, ok in zip(cand, weights.T, usable):
                if not ok:
                    continue
                if w.min() >= -tol:
                    face_out[idx], best = fi, (w.min(), fi, w)
                    break
                if w.min() > best[0]:
                    best = (w.min(), fi, w)
            seen, k = k, 4 * k
        if best[2] is None:
            raise ValueError(f"point location failed for query {idx}")
        if face_out[idx] < 0:
            fallbacks += 1
        w = np.clip(best[2], 0.0, None)
        face_out[idx] = best[1]
        weights_out[idx] = w / w.sum()
    return face_out, weights_out, fallbacks


def count_factorizations(monkeypatch):
    """Record the size of L + U of every `splu` call that `solve` makes."""
    calls = []
    splu = spla.splu

    def counted(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        calls.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", counted)
    return calls

"""Input generators for the benchmark workloads.

Every generator is a function of its arguments alone (sizes, a rotation,
a random generator), so the same workload seed gives the same meshes
and landmarks.  The library only ever receives the finished meshes;
mesh generation, ``build_surface`` and ``normalize_area`` are the
benchmark's set-up.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

from authalic import mesh


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed proper rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(surface, rotation: np.ndarray):
    """The same mesh with every vertex rotated.

    The pipeline only sees lengths and areas of the reference mesh, so a
    rotated input must do the same work and reach the same result up to
    roundoff; the seeds of the fixed-shape workloads pick a rotation.
    """
    return mesh.build_surface(surface.vertices @ rotation.T, surface.faces)


def ellipsoid(subdivisions: int, radii, rotation: np.ndarray):
    return rotated(mesh.make_icosphere(subdivisions, radii), rotation)


def bumpy_sphere(subdivisions: int, frequency: float, rotation: np.ndarray):
    """Radially bumped icosphere (amplitude 0.15), the shape on which the
    fixed-point warm-up turns upward after a few steps."""
    base = mesh.make_icosphere(subdivisions)
    v = base.vertices
    radial = (1.0
              + 0.15 * np.sin(frequency * v[:, 0]) * np.cos(frequency * v[:, 1])
              + 0.105 * np.sin(1.3 * frequency * v[:, 2]))
    return mesh.build_surface((v * radial[:, None]) @ rotation.T, base.faces)


def star_sphere(subdivisions: int, rotation: np.ndarray):
    """Star-shaped icosphere: six smooth spikes of height 0.5 along the
    +-x, +-y and +-z axes."""
    base = mesh.make_icosphere(subdivisions)
    v = base.vertices
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    radial = 1.0 + 0.5 * (np.clip(v @ axes.T, 0.0, None) ** 8).sum(axis=1)
    return mesh.build_surface((v * radial[:, None]) @ rotation.T, base.faces)


def unit_hull(n_points: int, rng: np.random.Generator):
    """Convex hull of random unit vectors, faces oriented outward.

    Every point lies on the unit sphere, so every point is a hull vertex
    and the mesh has exactly `n_points` vertices.
    """
    points = rng.normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    faces = ConvexHull(points).simplices.astype(np.int64)
    p = points[faces]
    outward = np.einsum("ij,ij->i", np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), p[:, 0])
    faces[outward < 0] = faces[outward < 0][:, [0, 2, 1]]
    return mesh.build_surface(points, faces)


def normal_noise(surface, sigma: float, rng: np.random.Generator):
    """Displace every vertex along its area-weighted normal by N(0, sigma^2)."""
    p = surface.vertices[surface.faces]
    face_normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    normals = np.zeros_like(surface.vertices)
    for c in range(3):
        np.add.at(normals, surface.faces[:, c], face_normals)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    moved = surface.vertices + rng.normal(0.0, sigma, surface.n_vertices)[:, None] * normals
    return mesh.build_surface(moved, surface.faces)


def landmark_pairs(n_vertices: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` distinct vertex ids, paired with the same id on the other mesh."""
    idx = rng.choice(n_vertices, size=count, replace=False)
    return np.stack([idx, idx], axis=1)

"""Stretch/authalic energies, the image-weighted Laplacian, and derivatives.

For a mapping f the weighted Laplacian carries modified cotangent weights
evaluated on the *image* triangles,

    w(i,j; k) = cot(angle at f_k opposite edge f_i f_j) * |f(tau)| / (2 |tau|),

which, writing the cotangent as dot/||cross|| of image edge vectors,
collapses exactly to (f_i - f_k).(f_j - f_k) / (4 |tau|) -- the image area
cancels, so no trigonometric calls are needed.  The stretch energy is the
Laplacian quadratic form (1/2) sum_s (f^s)^T L f^s, which per face equals
(image area)^2 / (reference area).

The minimized objective is the normalized energy (|M| / A(f)) * E_stretch,
whose Euclidean gradient is (2 |M| / A) L f - (|M| E_stretch / A^2) grad A.
Per face, L_tau f_tau = (|f(tau)| / |tau|) grad |f(tau)|, so the whole
gradient is sum_tau c_tau grad |f(tau)| with

    c_tau = (|M| / A) (2 |f(tau)| / |tau| - E_stretch / A):

one gather of the nine closed-form area partials per face and one
scatter onto the vertices, all from one :class:`FaceGeometry` that also
gives the energies.  That per-face route is the one the library runs;
the Laplacian routes (the quadratic form in :func:`stretch_energy`,
:func:`image_area_gradient_via_laplacian`, and ``L f`` from
:func:`assemble_laplacian`) are kept as independent cross-checks.  The
per-face 9x9 Hessian of the stretch energy is available in closed form
for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateFaceError
from .mesh import scatter_corners

IMAGE_AREA_TOL = 1e-14


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face image geometry, vectorized over the m faces.

    e_ij, e_ik, e_jk : (m, 3) image edge vectors f_i - f_j etc.
    a12, a13, a23 : (m,) doubled signed areas of the coordinate-plane
        projections of each image triangle.
    image_areas : (m,) unsigned image areas, 0.5 * sqrt(a12^2 + a13^2 + a23^2).
    ref_areas : (m,) reference (mesh) face areas.
    """

    e_ij: np.ndarray
    e_ik: np.ndarray
    e_jk: np.ndarray
    a12: np.ndarray
    a13: np.ndarray
    a23: np.ndarray
    image_areas: np.ndarray
    ref_areas: np.ndarray


def face_geometry(surface, f: np.ndarray, check: bool = True) -> FaceGeometry:
    # coordinate-major gather, p[s, c] = coordinate s of corner c of every
    # face, so each product below runs on contiguous (m,) rows; the edge
    # fields are (m, 3) views of these rows
    p = np.ascontiguousarray(np.asarray(f, dtype=np.float64).T)[:, surface.faces.T]
    e_ij = p[:, 0] - p[:, 1]
    e_ik = p[:, 0] - p[:, 2]
    e_jk = p[:, 1] - p[:, 2]
    a12 = e_ij[0] * e_ik[1] - e_ij[1] * e_ik[0]
    a13 = e_ij[0] * e_ik[2] - e_ij[2] * e_ik[0]
    a23 = e_ij[1] * e_ik[2] - e_ij[2] * e_ik[1]
    areas = 0.5 * np.sqrt(a12 * a12 + a13 * a13 + a23 * a23)
    geom = FaceGeometry(
        e_ij=e_ij.T, e_ik=e_ik.T, e_jk=e_jk.T,
        a12=a12, a13=a13, a23=a23,
        image_areas=areas, ref_areas=surface.face_areas,
    )
    if check:
        check_geometry(geom)
    return geom


def check_geometry(geom: FaceGeometry) -> None:
    """Raise :class:`DegenerateFaceError` naming the first face whose image
    area is at most :data:`IMAGE_AREA_TOL`."""
    areas = geom.image_areas
    if (areas <= IMAGE_AREA_TOL).any():
        bad = int(np.flatnonzero(areas <= IMAGE_AREA_TOL)[0])
        raise DegenerateFaceError(
            f"image of face {bad} is degenerate (area {areas[bad]:.3e})", face_index=bad
        )


def image_area(surface, f: np.ndarray) -> float:
    """Total unsigned area of the image mapping."""
    return float(face_geometry(surface, f, check=False).image_areas.sum())


def _corner_weights(surface, f: np.ndarray):
    """Modified cotangent weight per face corner (the corner opposite the
    weighted edge): w = dot of the two image edges at the corner / (4 |tau|)."""
    geom = face_geometry(surface, f, check=True)
    inv4a = 1.0 / (4.0 * surface.face_areas)
    # corner i sees edges to j and k: (f_j - f_i).(f_k - f_i) = e_ij . e_ik
    w_i = np.einsum("ij,ij->i", geom.e_ij, geom.e_ik) * inv4a
    # corner j: (f_i - f_j).(f_k - f_j) = e_ij . (-e_jk) -> use direct dots
    w_j = np.einsum("ij,ij->i", geom.e_ij, -geom.e_jk) * inv4a
    # corner k: (f_i - f_k).(f_j - f_k) = e_ik . e_jk
    w_k = np.einsum("ij,ij->i", geom.e_ik, geom.e_jk) * inv4a
    return w_i, w_j, w_k, geom


def assemble_laplacian(surface, f: np.ndarray) -> sp.csr_matrix:
    """Sparse symmetric weighted Laplacian of the image mapping.

    Off-diagonal (i, j) accumulates -w over the faces containing edge
    (i, j); the diagonal is the negated off-diagonal row sum, so rows sum
    to zero.  Raises :class:`DegenerateFaceError` when an image triangle
    has collapsed.
    """
    w_i, w_j, w_k, _ = _corner_weights(surface, f)
    fi, fj, fk = surface.faces[:, 0], surface.faces[:, 1], surface.faces[:, 2]
    n = surface.n_vertices
    # corner weight couples the opposite edge, symmetrically
    rows = np.concatenate([fj, fk, fi, fk, fi, fj])
    cols = np.concatenate([fk, fj, fk, fi, fj, fi])
    vals = -np.concatenate([w_i, w_i, w_j, w_j, w_k, w_k])
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = -np.asarray(lap.sum(axis=1)).ravel()
    return (lap + sp.diags(diag)).tocsr()


def stretch_energy_per_face(surface, f: np.ndarray) -> np.ndarray:
    """(image area)^2 / (reference area) for every face."""
    geom = face_geometry(surface, f, check=False)
    return geom.image_areas**2 / surface.face_areas


@dataclass(frozen=True)
class EnergyReport:
    """Energy values at a mapping.

    stretch : the Laplacian quadratic form (1/2) sum_s (f^s)^T L f^s
    image_area : A(f)
    authalic : stretch - image_area (zero exactly at area preservation)
    normalized : (|M| / A(f)) * stretch, the objective driven to a minimum
    """

    stretch: float
    image_area: float
    authalic: float
    normalized: float


def stretch_energy(surface, f: np.ndarray, laplacian: sp.csr_matrix | None = None) -> EnergyReport:
    """Evaluate all energies via the Laplacian quadratic form."""
    f = np.asarray(f, dtype=np.float64)
    lap = assemble_laplacian(surface, f) if laplacian is None else laplacian
    e_s = 0.5 * float(np.sum(f * (lap @ f)))
    area = image_area(surface, f)
    if area <= 0:
        raise DegenerateFaceError("image area is zero")
    return EnergyReport(
        stretch=e_s,
        image_area=area,
        authalic=e_s - area,
        normalized=surface.total_area / area * e_s,
    )


def geometry_report(surface, geom: FaceGeometry) -> EnergyReport:
    """EnergyReport from one face-geometry pass, through the per-face
    identity stretch = sum (image area)^2 / (reference area)."""
    e_s = float(np.sum(geom.image_areas**2 / geom.ref_areas))
    area = float(geom.image_areas.sum())
    if area <= 0:
        raise DegenerateFaceError("image area is zero")
    return EnergyReport(stretch=e_s, image_area=area, authalic=e_s - area,
                        normalized=surface.total_area / area * e_s)


def normalized_energy(surface, f: np.ndarray) -> float:
    """The objective (|M| / A(f)) * E_stretch, per face, no sparse assembly."""
    return geometry_report(surface, face_geometry(surface, f, check=False)).normalized


def energy_report_per_face(surface, f: np.ndarray) -> EnergyReport:
    """EnergyReport via the per-face route (same values as
    :func:`stretch_energy` to roundoff, cheaper)."""
    return geometry_report(surface, face_geometry(surface, f, check=False))


def area_matched_authalic(report: EnergyReport) -> float:
    """Stretch-minus-area energy with the reference mesh rescaled so its
    total area matches the current image area: normalized - image_area.

    Unlike the raw `authalic` field this is invariant to the input mesh
    scale and nonnegative for every mapping, with zero exactly at
    constant per-face area ratios, which makes it the right quantity for
    cross-model distortion tables.
    """
    return report.normalized - report.image_area


# ---------------------------------------------------------------------------
# Image-area gradient
# ---------------------------------------------------------------------------

def _area_partials(geom: FaceGeometry, weights: np.ndarray | None = None):
    """Nine closed-form partials of the image area per face.

    Returns (m, 3) arrays g_i, g_j, g_k: the gradient of |f(tau)| with
    respect to each corner position, times `weights` (per face) when
    given.  Derived by differentiating
    2|f(tau)| = sqrt(a12^2 + a13^2 + a23^2) through the projected areas.
    """
    inv4a = 1.0 / (4.0 * geom.image_areas)
    if weights is not None:
        inv4a = weights * inv4a
    a12, a13, a23 = geom.a12, geom.a13, geom.a23

    def partials(e):
        # rows d/df^1, d/df^2, d/df^3 for opposite-edge vector e, returned
        # as an (m, 3) view so each coordinate stays one contiguous row
        return (np.stack([
            a12 * e[:, 1] + a13 * e[:, 2],
            -a12 * e[:, 0] + a23 * e[:, 2],
            -a13 * e[:, 0] - a23 * e[:, 1],
        ]) * inv4a).T

    return partials(geom.e_jk), -partials(geom.e_ik), partials(geom.e_ij)


def area_gradient(surface, geom: FaceGeometry, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_tau weights_tau * grad |f(tau)| (unit weights when None): one
    gather of the area partials and one scatter onto the vertices."""
    return scatter_corners(surface, *_area_partials(geom, weights))


def image_area_gradient(surface, f: np.ndarray) -> np.ndarray:
    """Gradient of the total image area, accumulated per face."""
    return area_gradient(surface, face_geometry(surface, f, check=True))


def image_area_gradient_via_laplacian(surface, f: np.ndarray) -> np.ndarray:
    """Independent route: per face, (|tau| / |f(tau)|) * L(f|tau) f_tau."""
    w_i, w_j, w_k, geom = _corner_weights(surface, f)
    p = np.asarray(f)[surface.faces]
    # per-face Laplacian rows: L = [[wj+wk, -wk, -wj], [-wk, wi+wk, -wi],
    # [-wj, -wi, wi+wj]] applied to the corner positions
    li = (w_j + w_k)[:, None] * p[:, 0] - w_k[:, None] * p[:, 1] - w_j[:, None] * p[:, 2]
    lj = -w_k[:, None] * p[:, 0] + (w_i + w_k)[:, None] * p[:, 1] - w_i[:, None] * p[:, 2]
    lk = -w_j[:, None] * p[:, 0] - w_i[:, None] * p[:, 1] + (w_i + w_j)[:, None] * p[:, 2]
    scale = (surface.face_areas / geom.image_areas)[:, None]
    return scatter_corners(surface, scale * li, scale * lj, scale * lk)


def stretch_gradient(surface, geom: FaceGeometry) -> np.ndarray:
    """Gradient of the stretch energy, 2 L(f) f, as
    sum_tau (2 |f(tau)| / |tau|) grad |f(tau)|."""
    return area_gradient(surface, geom, 2.0 * geom.image_areas / geom.ref_areas)


def normalized_energy_and_gradient(surface, geom: FaceGeometry):
    """EnergyReport and ambient gradient of the normalized energy from one
    face-geometry pass.

    grad = (2 |M| / A) L f - (|M| E_stretch / A^2) grad A
         = sum_tau (|M| / A) (2 |f(tau)| / |tau| - E_stretch / A) grad |f(tau)|.
    """
    report = geometry_report(surface, geom)
    area = report.image_area
    weights = (surface.total_area / area) * (2.0 * geom.image_areas / geom.ref_areas
                                             - report.stretch / area)
    return report, area_gradient(surface, geom, weights)


def euclidean_gradient(surface, f: np.ndarray) -> np.ndarray:
    """Ambient gradient of the normalized energy (per-face route); raises
    :class:`DegenerateFaceError` when an image triangle has collapsed."""
    return normalized_energy_and_gradient(surface, face_geometry(surface, f))[1]


# ---------------------------------------------------------------------------
# Stretch-energy Hessian
# ---------------------------------------------------------------------------

def _hessian_blocks(surface, f: np.ndarray, face_indices=None) -> np.ndarray:
    """Closed-form per-face Hessian of the stretch energy.

    Returns (m, 3, 3, 3, 3) array H[face, s, t, a, b]: second derivative
    with respect to coordinate s of corner a and coordinate t of corner b.
    Built from the corner-difference vectors of each coordinate,
    h^l = (f_j^l - f_k^l, f_k^l - f_i^l, f_i^l - f_j^l): the diagonal
    coordinate blocks are sum_{l != s} h^l (h^l)^T and the off-diagonal
    ones h^s (h^t)^T - 2 h^t (h^s)^T, all over twice the reference area.
    """
    f = np.asarray(f, dtype=np.float64)
    faces = surface.faces if face_indices is None else surface.faces[face_indices]
    ref = surface.face_areas if face_indices is None else surface.face_areas[face_indices]
    p = f[faces]  # (m, corner, coord)
    d = np.stack([p[:, 1] - p[:, 2], p[:, 2] - p[:, 0], p[:, 0] - p[:, 1]], axis=1)
    # d[face, a, l] = h^l component at corner a
    outer = np.einsum("mas,mbt->mstab", d, d)  # outer[m,s,t,a,b] = h^s_a h^t_b
    m = faces.shape[0]
    blocks = np.empty((m, 3, 3, 3, 3))
    for s in range(3):
        for t in range(3):
            if s == t:
                acc = np.zeros((m, 3, 3))
                for l in range(3):
                    if l != s:
                        acc += outer[:, l, l]
                blocks[:, s, t] = acc
            else:
                blocks[:, s, t] = outer[:, s, t] - 2.0 * outer[:, t, s]
    blocks /= (2.0 * ref)[:, None, None, None, None]
    return blocks


def face_hessian(surface, f: np.ndarray, face_index: int) -> np.ndarray:
    """9x9 stretch-energy Hessian of one face, corner-major ordering.

    Rows/columns run (corner i coords 1..3, corner j coords 1..3,
    corner k coords 1..3), so the translation null vector along
    coordinate s tiles the canonical basis vector e_s three times.
    """
    if surface.face_areas[face_index] <= 0:
        raise DegenerateFaceError("zero reference area", face_index=face_index)
    b = _hessian_blocks(surface, f, face_indices=np.array([face_index]))[0]
    # H9[3a + s, 3b + t] = b[s, t, a, b]
    return b.transpose(2, 0, 3, 1).reshape(9, 9)


def assemble_global_hessian(surface, f: np.ndarray) -> sp.csr_matrix:
    """Sparse 3n x 3n stretch-energy Hessian, coordinate-major layout.

    Index (s, vertex v) maps to s * n + v, matching the column-stacked
    vectorization (f^1; f^2; f^3).
    """
    n = surface.n_vertices
    blocks = _hessian_blocks(surface, f)
    faces = surface.faces
    m = faces.shape[0]
    rows = np.empty((m, 3, 3, 3, 3), dtype=np.int64)
    cols = np.empty_like(rows)
    for s in range(3):
        for a in range(3):
            rows[:, s, :, a, :] = (s * n + faces[:, a])[:, None, None]
    for t in range(3):
        for b in range(3):
            cols[:, :, t, :, b] = (t * n + faces[:, b])[:, None, None]
    hess = sp.coo_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(3 * n, 3 * n)
    )
    return hess.tocsr()

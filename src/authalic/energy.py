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

one gather of the corner positions and one scatter of the nine
closed-form area partials per face onto the vertices, all from one
:class:`FaceGeometry` that also gives the energies and the fold count.

There is one route to each energy: :func:`geometry_report` on a
:class:`FaceGeometry`, or :func:`energy_report_per_face` on a mapping;
callers read ``stretch``, ``image_area`` or ``normalized`` from the
:class:`EnergyReport`.  :func:`assemble_laplacian` takes a
:class:`FaceGeometry` too, so FPI builds each Laplacian from the pass its
record already made; it computes the corner weights and leaves the
sparse layout to :func:`~authalic.mesh.side_laplacian`, the assembler the
mean-value Laplacian of fold correction shares.  The Laplacian routes
stay as independent cross-checks: :func:`image_area_gradient_via_laplacian`
and ``L f`` from :func:`assemble_laplacian` here, the quadratic form in
``authalic check`` and in the test helpers.  The per-face 9x9 Hessian of
the stretch energy is available in closed form for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateFaceError
from .mesh import scatter_corners, side_laplacian

IMAGE_AREA_TOL = 1e-14


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face image geometry, vectorized over the m faces.

    e_ij, e_ik, e_jk : (m, 3) image edge vectors f_i - f_j etc.
    a12, a13, a23 : (m,) doubled signed areas of the coordinate-plane
        projections of each image triangle; e_ij x e_ik = (a23, -a13, a12).
    image_areas : (m,) unsigned image areas, 0.5 * sqrt(a12^2 + a13^2 + a23^2).
    ref_areas : (m,) reference (mesh) face areas.
    orientation : (m,) f_i . (e_ij x e_ik) = det [f_i; f_j; f_k], negative
        where the spherical image of the face is inverted.
    """

    e_ij: np.ndarray
    e_ik: np.ndarray
    e_jk: np.ndarray
    a12: np.ndarray
    a13: np.ndarray
    a23: np.ndarray
    image_areas: np.ndarray
    ref_areas: np.ndarray
    orientation: np.ndarray

    @property
    def folds(self) -> int:
        """Number of inverted faces (orientation < 0): the one fold rule,
        which :func:`~authalic.sphere.count_folds` reads too."""
        return int(np.count_nonzero(self.orientation < 0.0))


def face_geometry(surface, f: np.ndarray, check: bool = True) -> FaceGeometry:
    # one flat, coordinate-major gather, p[s, c] = coordinate s of corner c
    # of every face, so each product below runs on contiguous (m,) rows;
    # the edge fields are (m, 3) views of these rows
    ft = np.ascontiguousarray(np.asarray(f, dtype=np.float64).T)
    p = np.take(ft, surface.corner_index, axis=1).reshape(3, 3, -1)
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
        orientation=p[0, 0] * a23 - p[1, 0] * a13 + p[2, 0] * a12,
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


def _corner_weights(surface, geom: FaceGeometry):
    """Modified cotangent weight per face corner (the corner opposite the
    weighted edge): w = dot of the two image edges at the corner / (4 |tau|)."""
    inv4a = 1.0 / (4.0 * surface.face_areas)
    # einsum sums a row in a different order when the rows are strided, so
    # the dots run on face-major copies, whatever the geometry's layout
    e_ij, e_ik, e_jk = (np.ascontiguousarray(e) for e in (geom.e_ij, geom.e_ik, geom.e_jk))
    # corner i sees edges to j and k: (f_j - f_i).(f_k - f_i) = e_ij . e_ik
    w_i = np.einsum("ij,ij->i", e_ij, e_ik) * inv4a
    # corner j: (f_i - f_j).(f_k - f_j) = e_ij . (-e_jk) -> use direct dots
    w_j = np.einsum("ij,ij->i", e_ij, -e_jk) * inv4a
    # corner k: (f_i - f_k).(f_j - f_k) = e_ik . e_jk
    w_k = np.einsum("ij,ij->i", e_ik, e_jk) * inv4a
    return w_i, w_j, w_k


def assemble_laplacian(surface, geom: FaceGeometry) -> sp.csr_matrix:
    """Sparse symmetric weighted Laplacian of the mapping behind `geom`.

    Off-diagonal (i, j) accumulates -w over the faces containing edge
    (i, j); the diagonal is the negated off-diagonal row sum, so rows sum
    to zero.  Raises :class:`DegenerateFaceError` when an image triangle
    has collapsed.
    """
    check_geometry(geom)
    w_i, w_j, w_k = _corner_weights(surface, geom)
    # the side from corner c to c + 1 takes the weight of the corner
    # opposite it, c + 2, and the side to c + 2 that of c + 1
    return side_laplacian(surface.n_vertices, surface.faces,
                          np.array([[w_k, w_j], [w_i, w_k], [w_j, w_i]]))


@dataclass(frozen=True)
class EnergyReport:
    """Energy values at a mapping.

    stretch : sum over faces of (image area)^2 / (reference area), which
        equals the Laplacian quadratic form (1/2) sum_s (f^s)^T L f^s
    image_area : A(f)
    authalic : stretch - image_area (zero exactly at area preservation)
    normalized : (|M| / A(f)) * stretch, the objective driven to a minimum
    """

    stretch: float
    image_area: float
    authalic: float
    normalized: float


def geometry_report(surface, geom: FaceGeometry) -> EnergyReport:
    """EnergyReport from one face-geometry pass, through the per-face
    identity stretch = sum (image area)^2 / (reference area)."""
    e_s = float(np.sum(geom.image_areas**2 / geom.ref_areas))
    area = float(geom.image_areas.sum())
    if area <= 0:
        raise DegenerateFaceError("image area is zero")
    return EnergyReport(stretch=e_s, image_area=area, authalic=e_s - area,
                        normalized=surface.total_area / area * e_s)


def energy_report_per_face(surface, f: np.ndarray) -> EnergyReport:
    """EnergyReport of the mapping `f`: :func:`geometry_report` of its
    unchecked face geometry."""
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

def _cross(a, b, out: np.ndarray, scratch: np.ndarray) -> None:
    """out[s] = (a x b)[s] for vectors stored as three coordinate rows."""
    for s in range(3):
        u, v = (s + 1) % 3, (s + 2) % 3
        np.multiply(a[u], b[v], out=out[s])
        np.multiply(a[v], b[u], out=scratch)
        out[s] -= scratch


def area_gradient(surface, geom: FaceGeometry, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_tau weights_tau * grad |f(tau)| (unit weights when None).

    Differentiating 2|f(tau)| = sqrt(a12^2 + a13^2 + a23^2) through the
    projected areas gives, per face, the opposite image edge crossed with
    the scaled normal n = (a23, -a13, a12) weights / (4 |f(tau)|):
    e_jk x n at f_i, n x e_ik at f_j and e_ij x n at f_k.  The crosses
    go straight into one coordinate-major (3, 3m) buffer, which one
    scatter sums onto the vertices.
    """
    scale = 1.0 / (4.0 * geom.image_areas)
    if weights is not None:
        scale = weights * scale
    normal = (geom.a23 * scale, -geom.a13 * scale, geom.a12 * scale)
    m = scale.size
    buf = np.empty((3, 3 * m))
    corners = buf.reshape(3, 3, m)
    scratch = np.empty(m)
    _cross(geom.e_jk.T, normal, corners[:, 0], scratch)
    _cross(normal, geom.e_ik.T, corners[:, 1], scratch)
    _cross(geom.e_ij.T, normal, corners[:, 2], scratch)
    return scatter_corners(surface, buf)


def image_area_gradient(surface, f: np.ndarray) -> np.ndarray:
    """Gradient of the total image area, accumulated per face."""
    return area_gradient(surface, face_geometry(surface, f, check=True))


def image_area_gradient_via_laplacian(surface, f: np.ndarray) -> np.ndarray:
    """Independent route: per face, (|tau| / |f(tau)|) * L(f|tau) f_tau."""
    geom = face_geometry(surface, f)
    w_i, w_j, w_k = _corner_weights(surface, geom)
    p = np.asarray(f)[surface.faces]
    # per-face Laplacian rows: L = [[wj+wk, -wk, -wj], [-wk, wi+wk, -wi],
    # [-wj, -wi, wi+wj]] applied to the corner positions
    li = (w_j + w_k)[:, None] * p[:, 0] - w_k[:, None] * p[:, 1] - w_j[:, None] * p[:, 2]
    lj = -w_k[:, None] * p[:, 0] + (w_i + w_k)[:, None] * p[:, 1] - w_i[:, None] * p[:, 2]
    lk = -w_j[:, None] * p[:, 0] - w_i[:, None] * p[:, 1] + (w_i + w_j)[:, None] * p[:, 2]
    scale = (surface.face_areas / geom.image_areas)[:, None]
    return scatter_corners(surface, np.concatenate([scale * li, scale * lj, scale * lk]).T)


def stretch_gradient(surface, geom: FaceGeometry) -> np.ndarray:
    """Gradient of the stretch energy, 2 L(f) f, as
    sum_tau (2 |f(tau)| / |tau|) grad |f(tau)|."""
    return area_gradient(surface, geom, 2.0 * geom.image_areas / geom.ref_areas)


def normalized_gradient(surface, geom: FaceGeometry, report: EnergyReport) -> np.ndarray:
    """Ambient gradient of the normalized energy from one face-geometry
    pass and its :func:`geometry_report`.

    grad = (2 |M| / A) L f - (|M| E_stretch / A^2) grad A
         = sum_tau (|M| / A) (2 |f(tau)| / |tau| - E_stretch / A) grad |f(tau)|.
    """
    area = report.image_area
    weights = (surface.total_area / area) * (2.0 * geom.image_areas / geom.ref_areas
                                             - report.stretch / area)
    return area_gradient(surface, geom, weights)


def euclidean_gradient(surface, f: np.ndarray) -> np.ndarray:
    """Ambient gradient of the normalized energy (per-face route); raises
    :class:`DegenerateFaceError` when an image triangle has collapsed."""
    geom = face_geometry(surface, f)
    return normalized_gradient(surface, geom, geometry_report(surface, geom))


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
    blocks = outer - 2.0 * outer.transpose(0, 2, 1, 3, 4)
    for s in range(3):
        l1, l2 = (s + 1) % 3, (s + 2) % 3
        blocks[:, s, s] = outer[:, l1, l1] + outer[:, l2, l2]
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
    # index[m, s, a] = s * n + (corner a of face m)
    index = np.arange(3)[:, None] * n + surface.faces[:, None, :]
    rows = np.broadcast_to(index[:, :, None, :, None], blocks.shape)
    cols = np.broadcast_to(index[:, None, :, None, :], blocks.shape)
    hess = sp.coo_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(3 * n, 3 * n)
    )
    return hess.tocsr()

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

The default descent measures image areas on the sphere instead: the
signed area of the geodesic triangle of unit corners a, b, c is
S_t = 2 atan2(N, D), with N = a.(b x c) and D = 1 + a.b + b.c + c.a
(Van Oosterom and Strackee, IEEE Trans. Biomed. Eng. 1983), both read
off the same :class:`FaceGeometry`, and the objective is
(|M| / sum S) sum S_t^2 / |t| (:func:`spherical_gradient`).

The per-face kernels -- :func:`face_geometry`, the gradients and the
Laplacian's corner weights -- run over consecutive blocks of at most
:data:`FACE_BLOCK` faces: each block gathers its corners, computes and
scatters, so their temporaries are bounded by the block, not the mesh.
A :class:`FaceGeometry` keeps three per-face rows and a reference to
the mapping it measured; the kernels regather the image edges from that
mapping and form the normals from them.  A mesh of one block runs the
arithmetic of a single whole-mesh pass; on more blocks the per-face
fields and the Laplacian are bitwise those of one block, and the
gradients differ by roundoff only, as the vertex sums go block by block.

There is one route to each energy: :func:`face_geometry` measures a
mapping once, and its :class:`FaceGeometry` gives ``stretch``,
``image_area``, ``authalic``, ``normalized``, ``area_matched_authalic``
and ``sd_over_mean``, each summed on first use and kept, so the value,
the gradient, the iteration record and the summary of one mapping all
read one pass.  :func:`assemble_laplacian` takes a
:class:`FaceGeometry` too, so FPI builds each Laplacian from the pass its
record already made; it computes the corner weights and leaves the
sparse layout to :func:`~authalic.mesh.side_laplacian`, the assembler the
mean-value Laplacian of fold correction shares.  The Laplacian stays as
an independent cross-check: ``authalic check`` compares its quadratic
form with ``stretch`` and ``2 L f`` with :func:`stretch_gradient`, and
the tests keep a per-face Laplacian route to the area gradient.  The
sparse Hessian of the stretch energy is assembled in closed form for the
eigenvalue probe of ``authalic check --probe-eigen``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateFaceError
from .mesh import scatter_corners, side_laplacian

IMAGE_AREA_TOL = 1e-14
FACE_BLOCK = 16384
"""Faces per block of the per-face kernels: :func:`face_geometry`, the
gradients and the Laplacian's corner weights gather, compute and scatter
this many faces at a time, so their temporaries stay a few MB whatever
the mesh size.  Measured on a 2-core Xeon at 81,920 faces: blocks of
8,192 to 24,576 ran the geometry and spherical gradient within noise of
each other and 15-20 % faster than one whole-mesh block, while the peak
resident set of a whole ``parameterize`` grew past 16,384 (173-174 MB
at 8,192 and 16,384, 176-177 MB at 24,576)."""


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face image geometry, vectorized over the m faces.

    mapping : the (n, 3) mapping measured, held by reference, not copied:
        the kernels regather the image edges e_ij = f_i - f_j, e_ik and
        e_jk from it, block by block, and the normal n = e_ij x e_ik.
    image_areas : (m,) unsigned image areas |n| / 2.
    ref_areas : (m,) reference (mesh) face areas.
    orientation : (m,) f_i . n = det [f_i; f_j; f_k], negative
        where the spherical image of the face is inverted, zero where it
        is degenerate and NaN where a corner is not a number.
    spherical_d : (m,) D = 4 - (|e_ij|^2 + |e_ik|^2 + |e_jk|^2) / 2, which
        equals 1 + a.b + b.c + c.a for unit corners a, b, c: with
        N = `orientation`, tan(S_t / 2) = N / D for the signed spherical
        area S_t of the geodesic image triangle (Van Oosterom and Strackee).
    total_area : |M|, the reference surface area.

    Only three (m,) rows are its own, never the edges or the normals.
    The energies and SD/Mean are sums over these fields, each computed
    on first use and kept.  Each raises :class:`DegenerateFaceError`
    when the total image area is not positive (NaN included).
    """

    mapping: np.ndarray
    image_areas: np.ndarray
    ref_areas: np.ndarray
    orientation: np.ndarray
    spherical_d: np.ndarray
    total_area: float

    @cached_property
    def image_area(self) -> float:
        """A(f), the total image area."""
        area = float(self.image_areas.sum())
        if not area > 0:
            raise DegenerateFaceError(f"total image area {area:.3e} is not positive")
        return area

    @cached_property
    def stretch(self) -> float:
        """E_S, the sum over faces of (image area)^2 / (reference area),
        which equals the Laplacian quadratic form (1/2) sum_s (f^s)^T L f^s."""
        e_s = float(np.sum(self.image_areas**2 / self.ref_areas))
        self.image_area  # raises on a degenerate total
        return e_s

    @cached_property
    def authalic(self) -> float:
        """E_A = E_S - A(f), zero exactly at area preservation."""
        return self.stretch - self.image_area

    @cached_property
    def normalized(self) -> float:
        """(|M| / A(f)) E_S, the objective the descent minimizes."""
        return self.total_area / self.image_area * self.stretch

    @cached_property
    def area_matched_authalic(self) -> float:
        """Stretch-minus-area energy with the reference mesh rescaled so
        its total area matches the image area: normalized - A(f).

        Unlike `authalic` this is invariant to the input mesh scale and
        nonnegative for every mapping, with zero exactly at constant
        per-face area ratios, which makes it the right quantity for
        cross-model distortion tables.
        """
        return self.normalized - self.image_area

    @cached_property
    def sd_over_mean(self) -> float:
        """Population SD over mean of the per-face image/reference area
        ratios, the distortion score."""
        self.image_area  # raises before a zero mean divides
        ratios = self.image_areas / self.ref_areas
        mean = float(ratios.mean())
        sd = float(np.sqrt(np.mean((ratios - mean) ** 2)))
        return sd / mean

    @cached_property
    def spherical_areas(self) -> np.ndarray:
        """(m,) signed spherical image areas S_t = 2 atan2(N, D)."""
        return 2.0 * np.arctan2(self.orientation, self.spherical_d)

    @cached_property
    def spherical_area(self) -> float:
        """The sum of the signed spherical areas, 4 pi for a degree-1 map;
        raises :class:`DegenerateFaceError` when it is not positive."""
        area = float(self.spherical_areas.sum())
        if not area > 0:
            raise DegenerateFaceError(f"total spherical image area {area:.3e} "
                                      "is not positive")
        return area

    @cached_property
    def degree(self) -> int:
        """The degree of the map, round(sum S_t / 4 pi): 1 for an
        orientation-preserving bijection, -1 for a mirrored one.  A map
        that covers the sphere twice can be fold-free and reads 2.  The
        per-face areas are summed here, not :attr:`spherical_area`,
        which raises on a non-positive sum; raises
        :class:`DegenerateFaceError` when the sum is not finite."""
        turns = float(self.spherical_areas.sum()) / (4.0 * np.pi)
        if not np.isfinite(turns):
            raise DegenerateFaceError(f"total spherical image area {4.0 * np.pi * turns:.3e} "
                                      "is not finite")
        return round(turns)

    @cached_property
    def spherical_stretch(self) -> float:
        """The stretch energy on spherical areas, sum S_t^2 / |t|."""
        return float(np.sum(self.spherical_areas**2 / self.ref_areas))

    @cached_property
    def spherical_normalized(self) -> float:
        """(|M| / sum S) sum S_t^2 / |t|, the normalized stretch energy
        measured with spherical image areas: at least sum S (Cauchy-Schwarz),
        with equality exactly at constant spherical-area ratio."""
        return self.total_area / self.spherical_area * self.spherical_stretch

    @property
    def folds(self) -> int:
        """Number of faces whose orientation is not positive: the one fold
        rule, which :func:`~authalic.sphere.count_folds` reads too.  A
        zero-area image counts, so a map collapsed onto a point or a great
        circle is never fold-free, and so does a face with a NaN corner."""
        return int(np.count_nonzero(~(self.orientation > 0.0)))


def _corner_blocks(surface, f: np.ndarray):
    """Yield each block of at most :data:`FACE_BLOCK` faces as its face
    slice, its corner index and its corners gathered from the mapping `f`
    into one flat, coordinate-major (3, 3, B) array: p[s, c, t] is
    coordinate s of corner c of face t, so each product runs on
    contiguous (B,) rows."""
    ft = np.ascontiguousarray(np.asarray(f, dtype=np.float64).T)
    for block, index in surface.corner_blocks(FACE_BLOCK):
        yield block, index, np.take(ft, index, axis=1).reshape(3, 3, -1)


def _edges(p: np.ndarray):
    """The image edge rows e_ij, e_ik and e_jk, each (3, B), of the corner
    rows `p` of :func:`_corner_blocks`."""
    return p[:, 0] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]


def _squared_length(e: np.ndarray) -> np.ndarray:
    return e[0] * e[0] + e[1] * e[1] + e[2] * e[2]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-face dot product of two (3, B) coordinate-row edge arrays,
    summed (x + z) + y: the order in which ``np.einsum("ij,ij->i")``
    sums a contiguous row of three, so the weights keep their bits."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _cross(a, b, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """out[s] = (a x b)[s] for three coordinate rows, returned; the normal
    e_ij x e_ik is bitwise (a23, -a13, a12), as fl(y - x) = -fl(x - y)."""
    for s in range(3):
        u, v = (s + 1) % 3, (s + 2) % 3
        np.multiply(a[u], b[v], out=out[s])
        np.multiply(a[v], b[u], out=scratch)
        out[s] -= scratch
    return out


def face_geometry(surface, f: np.ndarray) -> FaceGeometry:
    """Measure the image of every face under `f`; degenerate images are
    measured too (:func:`check_geometry` rejects them).  Each block's
    fields are written straight into their rows of one (3, m) array."""
    f = np.asarray(f, dtype=np.float64)
    rows = np.empty((3, surface.n_faces))
    for block, _, p in _corner_blocks(surface, f):
        areas, orientation, d = rows[:, block]
        e_ij, e_ik, e_jk = _edges(p)
        n = _cross(e_ij, e_ik, np.empty_like(e_ij), np.empty_like(areas))
        # |n|^2 summed xy + zx + yz, the order the pinned areas were made in
        np.sqrt(n[2] * n[2] + n[1] * n[1] + n[0] * n[0], out=areas)
        areas *= 0.5
        np.add(p[0, 0] * n[0] + p[1, 0] * n[1], p[2, 0] * n[2], out=orientation)
        np.subtract(4.0, 0.5 * (_squared_length(e_ij) + _squared_length(e_ik)
                                + _squared_length(e_jk)), out=d)
    areas, orientation, d = rows
    return FaceGeometry(
        mapping=f, image_areas=areas, ref_areas=surface.face_areas,
        orientation=orientation, spherical_d=d, total_area=surface.total_area,
    )


def check_geometry(geom: FaceGeometry) -> None:
    """Raise :class:`DegenerateFaceError` naming the first face whose image
    area is not above :data:`IMAGE_AREA_TOL` (NaN included)."""
    areas = geom.image_areas
    degenerate = ~(areas > IMAGE_AREA_TOL)
    if degenerate.any():
        bad = int(np.flatnonzero(degenerate)[0])
        raise DegenerateFaceError(
            f"image of face {bad} is degenerate (area {areas[bad]:.3e})", face_index=bad
        )


def _corner_weights(surface, geom: FaceGeometry):
    """Modified cotangent weight per face corner (the corner opposite the
    weighted edge): w = dot of the two image edges at the corner / (4 |tau|)."""
    inv4a = 1.0 / (4.0 * surface.face_areas)
    weights = np.empty((3, surface.n_faces))
    for block, _, p in _corner_blocks(surface, geom.mapping):
        e_ij, e_ik, e_jk = _edges(p)
        w_i, w_j, w_k = weights[:, block]
        # corner i sees edges to j and k: (f_j - f_i).(f_k - f_i) = e_ij . e_ik
        np.multiply(_dot(e_ij, e_ik), inv4a[block], out=w_i)
        # corner j: (f_i - f_j).(f_k - f_j) = e_ij . (-e_jk)
        np.multiply(_dot(e_ij, -e_jk), inv4a[block], out=w_j)
        # corner k: (f_i - f_k).(f_j - f_k) = e_ik . e_jk
        np.multiply(_dot(e_ik, e_jk), inv4a[block], out=w_k)
    return weights


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


# ---------------------------------------------------------------------------
# Image-area gradient
# ---------------------------------------------------------------------------

def area_gradient(surface, geom: FaceGeometry, weights: np.ndarray) -> np.ndarray:
    """sum_tau weights_tau * grad |f(tau)|, one weight per face.

    Differentiating 2|f(tau)| = |n|, n = e_ij x e_ik, gives, per face,
    the opposite image edge crossed with the scaled normal
    n weights / (4 |f(tau)|): e_jk x n at f_i, n x e_ik at f_j and
    e_ij x n at f_k.  Block by block, the crosses overwrite the corner
    gather the edges were taken from, and one scatter sums it.
    """
    scale = weights * (1.0 / (4.0 * geom.image_areas))
    grad = None
    for block, index, corners in _corner_blocks(surface, geom.mapping):
        e_ij, e_ik, e_jk = _edges(corners)
        scratch = np.empty_like(e_ij[0])
        normal = _cross(e_ij, e_ik, np.empty_like(e_ij), scratch)
        normal *= scale[block]
        _cross(e_jk, normal, corners[:, 0], scratch)
        _cross(normal, e_ik, corners[:, 1], scratch)
        _cross(e_ij, normal, corners[:, 2], scratch)
        grad = scatter_corners(surface, corners.reshape(3, -1), index, grad)
    return grad


def spherical_gradient(surface, geom: FaceGeometry) -> np.ndarray:
    """Ambient gradient of the spherical normalized energy
    E = (|M| / sum S) sum S_t^2 / |t| at the unit-row mapping measured
    by `geom`.

    dE = sum_t c_t dS_t with c_t = (|M| / sum S) (2 S_t / |t| - E_S / sum S),
    as for the chordal energy, and dS = 2 (D dN - N dD) / (N^2 + D^2).
    At corner a of a face (b, c the next corners, cyclically),
    dN/da = b x c = n - a x (b - c), with n = e_ij x e_ik the face's
    doubled area normal, and the edge form of D gives
    dD/da = b + c - 2a, whose tangent part is that of b + c.  Block by
    block, the corners are gathered from ``geom.mapping`` into one
    coordinate-major buffer, each corner's term overwrites its own
    position, and one scatter sums the buffer onto the vertices.
    """
    n_face, d_face = geom.orientation, geom.spherical_d
    area = geom.spherical_area
    coeff = (geom.total_area / area) * (2.0 * geom.spherical_areas / geom.ref_areas
                                        - geom.spherical_stretch / area)
    w = 2.0 * coeff / (n_face * n_face + d_face * d_face)
    grad = None
    for block, index, corners in _corner_blocks(surface, geom.mapping):
        wd, wn = w[block] * d_face[block], w[block] * n_face[block]
        e_ij, e_ik, e_jk = _edges(corners)
        normal, cross, dd = np.empty((3, 3, wd.size))
        scratch = np.empty(wd.size)
        _cross(e_ij, e_ik, normal, scratch)

        def term(x, u, v):
            # the cross x x (next - after) as u x v; x is read by its own
            # cross product only, so its rows take the term
            _cross(u, v, cross, scratch)
            np.subtract(normal, cross, out=cross)
            np.multiply(cross, wd, out=cross)
            np.multiply(dd, wn, out=dd)
            np.subtract(cross, dd, out=x)

        # dD at each corner is an edge sum: b + c - 2a = -e_ij - e_ik at
        # a, cyclically
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        np.subtract(np.negative(e_ij, out=dd), e_ik, out=dd)
        term(a, a, e_jk)
        np.subtract(e_ij, e_jk, out=dd)
        term(b, e_ik, b)
        np.add(e_ik, e_jk, out=dd)
        term(c, c, e_ij)
        grad = scatter_corners(surface, corners.reshape(3, -1), index, grad)
    return grad


def image_area_gradient(surface, f: np.ndarray) -> np.ndarray:
    """Gradient of the total image area, accumulated per face."""
    geom = face_geometry(surface, f)
    check_geometry(geom)
    return area_gradient(surface, geom, np.ones(surface.n_faces))


def stretch_gradient(surface, geom: FaceGeometry) -> np.ndarray:
    """Gradient of the stretch energy, 2 L(f) f, as
    sum_tau (2 |f(tau)| / |tau|) grad |f(tau)|."""
    return area_gradient(surface, geom, 2.0 * geom.image_areas / geom.ref_areas)


def normalized_gradient(surface, geom: FaceGeometry) -> np.ndarray:
    """Ambient gradient of the normalized energy from one face-geometry
    pass, its energies included.

    grad = (2 |M| / A) L f - (|M| E_stretch / A^2) grad A
         = sum_tau (|M| / A) (2 |f(tau)| / |tau| - E_stretch / A) grad |f(tau)|.
    """
    area = geom.image_area
    weights = (geom.total_area / area) * (2.0 * geom.image_areas / geom.ref_areas
                                          - geom.stretch / area)
    return area_gradient(surface, geom, weights)


def euclidean_gradient(surface, f: np.ndarray) -> np.ndarray:
    """Ambient gradient of the normalized energy (per-face route); raises
    :class:`DegenerateFaceError` when an image triangle has collapsed."""
    geom = face_geometry(surface, f)
    check_geometry(geom)
    return normalized_gradient(surface, geom)


# ---------------------------------------------------------------------------
# Stretch-energy Hessian
# ---------------------------------------------------------------------------

def _hessian_blocks(surface, f: np.ndarray) -> np.ndarray:
    """Closed-form per-face Hessian of the stretch energy.

    Returns (m, 3, 3, 3, 3) array H[face, s, t, a, b]: second derivative
    with respect to coordinate s of corner a and coordinate t of corner b.
    Built from the corner-difference vectors of each coordinate,
    h^l = (f_j^l - f_k^l, f_k^l - f_i^l, f_i^l - f_j^l): the diagonal
    coordinate blocks are sum_{l != s} h^l (h^l)^T and the off-diagonal
    ones h^s (h^t)^T - 2 h^t (h^s)^T, all over twice the reference area.
    """
    p = np.asarray(f, dtype=np.float64)[surface.faces]  # (m, corner, coord)
    d = np.stack([p[:, 1] - p[:, 2], p[:, 2] - p[:, 0], p[:, 0] - p[:, 1]], axis=1)
    # d[face, a, l] = h^l component at corner a
    outer = np.einsum("mas,mbt->mstab", d, d)  # outer[m,s,t,a,b] = h^s_a h^t_b
    blocks = outer - 2.0 * outer.transpose(0, 2, 1, 3, 4)
    for s in range(3):
        l1, l2 = (s + 1) % 3, (s + 2) % 3
        blocks[:, s, s] = outer[:, l1, l1] + outer[:, l2, l2]
    blocks /= (2.0 * surface.face_areas)[:, None, None, None, None]
    return blocks


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

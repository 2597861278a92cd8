"""Triangle-mesh data model, file I/O, and synthetic test meshes.

A mesh is stored as a :class:`SimplicialSurface`: an immutable bundle of
vertex coordinates, oriented triangular faces (0-based indices), and the
derived edge set and face areas.  :func:`build_surface`, the one check
of a face list, validates that the surface is a consistently oriented,
closed 2-manifold of genus zero, which every algorithm downstream assumes.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import MeshFormatError, MeshTopologyError

SPHERE_AREA = 4.0 * np.pi


@dataclass(frozen=True)
class SimplicialSurface:
    """Genus-zero closed triangle mesh with derived quantities.

    Attributes
    ----------
    vertices : (n, 3) float array
    faces : (m, 3) int array
        Oriented index triples, 0-based.
    edges : (e, 2) int array
        Undirected edges as sorted pairs, lexicographically ordered.
    face_areas : (m,) float array
    total_area : float

    What is derived from the face list alone, its corner blocks and its
    dissection order, is computed on first use and kept in one store
    with the list and the vertices it was built with.  The surfaces
    :func:`with_vertices` makes share that store; a surface given any
    other face list, as by ``dataclasses.replace``, starts its own.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray
    face_areas: np.ndarray
    total_area: float
    # the face list's store: the list, its first vertices and the facts
    # derived from it, keyed by name
    _store: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self._store.get("faces") is not self.faces:
            object.__setattr__(self, "_store", {"faces": self.faces, "vertices": self.vertices})

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def corner_blocks(self, size: int) -> tuple[tuple[slice, np.ndarray], ...]:
        """The faces in consecutive blocks of at most `size`, each as its
        slice of the face list and its corner index, the vertex of every
        corner of the block's faces, corner-major: entry c B + t is corner
        c of the block's face t (``faces[block].T.ravel()``).  The index
        of the per-face gather and of :func:`scatter_corners`."""
        key = ("corner_blocks", size)
        if key not in self._store:
            m = self.n_faces
            self._store[key] = tuple((slice(lo, min(lo + size, m)),
                                      _freeze(self.faces[lo:lo + size].T.ravel()))
                                     for lo in range(0, m, size))
        return self._store[key]

    @property
    def dissection_order(self) -> np.ndarray:
        """Geometric nested-dissection order of the vertices.

        A fill-reducing elimination order for every sparse system on the
        mesh graph, computed on the vertices the face list was built with,
        whichever surface sharing it asks first.  A separator of the
        mesh graph stays a separator of every induced subgraph, so the
        order restricted to a vertex subset still orders that subsystem well.
        """
        if "dissection_order" not in self._store:
            self._store["dissection_order"] = _freeze(
                nested_dissection(self._store["vertices"], self.edges))
        return self._store["dissection_order"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _face_cross(vertices: np.ndarray, faces: np.ndarray):
    """Doubled-area normal (p1 - p0) x (p2 - p0) of every face p0 p1 p2,
    as three (m,) coordinate rows, and its (m,) length.

    One coordinate-major gather, as in :func:`~authalic.energy.face_geometry`,
    so every product runs on contiguous rows.  The rows repeat numpy's
    cross product term for term, and the length sums the squares in the
    order of ``np.linalg.norm(axis=1)``, so both are bitwise equal to
    those formulas on an (m, 3, 3) corner gather.
    """
    p = np.take(np.ascontiguousarray(vertices.T), faces.T.ravel(), axis=1).reshape(3, 3, -1)
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    x = u[1] * v[2] - u[2] * v[1]
    y = u[2] * v[0] - u[0] * v[2]
    z = u[0] * v[1] - u[1] * v[0]
    return (x, y, z), np.sqrt(x * x + y * y + z * z)


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Unsigned area of each face: half the length of its doubled-area
    normal (p1 - p0) x (p2 - p0)."""
    return 0.5 * _face_cross(vertices, faces)[1]


def build_surface(vertices, faces) -> SimplicialSurface:
    """Validate arrays and derive edges/areas.

    A non-manifold or boundary edge, a non-zero genus, more than one
    connected component, a zero-area face and, checked last, two faces
    holding the same directed side (inconsistent orientation; a wholly
    reversed list is valid) each raise
    :class:`~authalic.errors.MeshTopologyError`, which names instead the
    first vertex in no face, if any, when the genus or piece count fails.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshFormatError(f"vertices must be (n, 3), got {vertices.shape}")
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise MeshFormatError(f"faces must be (m, 3), got {faces.shape}")
    if not np.isfinite(vertices).all():
        raise MeshFormatError("non-finite vertex coordinate")
    n = vertices.shape[0]
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise MeshFormatError("face index out of range")
    degenerate = ((faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2])
                  | (faces[:, 0] == faces[:, 2]))
    if degenerate.any():
        raise MeshTopologyError(f"degenerate face (repeated vertex) at index {int(np.flatnonzero(degenerate)[0])}")

    edges, counts, sides = _side_table(faces, n)
    if (counts > 2).any():
        e = edges[np.flatnonzero(counts > 2)[0]]
        raise MeshTopologyError(f"non-manifold edge {tuple(int(v) for v in e)} shared by >2 faces")
    if (counts == 1).any():
        e = edges[np.flatnonzero(counts == 1)[0]]
        raise MeshTopologyError(f"open surface: boundary edge {tuple(int(v) for v in e)}")

    try:
        _check_genus(n - edges.shape[0] + faces.shape[0])
        _check_connected(n, edges)
    except MeshTopologyError:
        unused = np.flatnonzero(np.bincount(faces.ravel(), minlength=n) == 0)
        if faces.size and unused.size:
            raise MeshTopologyError(f"vertex {unused[0]} is in no face") from None
        raise
    areas = _checked_areas(vertices, faces)
    # last, so an input also rejected otherwise keeps that message: the
    # error names the smallest repeated directed side (a, b), by a * n + b,
    # and the first two faces that hold it
    repeated = sides[1:][sides[1:] == sides[:-1]]
    if repeated.size:
        i, j = np.divmod(repeated >> 1, n)
        a, b = np.where(repeated & 1, j, i), np.where(repeated & 1, i, j)
        k = np.argmin(a * n + b)
        held = (faces.ravel() == a[k]) & (faces[:, [1, 2, 0]].ravel() == b[k])
        first, second = np.flatnonzero(held)[:2] // 3
        raise MeshTopologyError(f"inconsistently oriented faces: faces {first} and {second} "
                                f"both hold the directed side ({a[k]}, {b[k]})")
    # frozen copies, made last into memory the checks freed: the caller's arrays stay writeable
    return SimplicialSurface(vertices=_freeze(vertices.copy()), faces=_freeze(faces.copy()),
                             edges=_freeze(edges), face_areas=_freeze(areas),
                             total_area=float(areas.sum()))


def with_vertices(surface: SimplicialSurface, vertices) -> SimplicialSurface:
    """`surface`'s face list on new (n, 3) `vertices`, not validated again:
    the faces, edges and the face list's store (its corner blocks and
    :attr:`~SimplicialSurface.dissection_order`) are shared.  The genus
    and face-area checks of :func:`build_surface` still run, as a
    :class:`SimplicialSurface` constructed directly skips them.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.shape != surface.vertices.shape:
        raise MeshFormatError(f"vertices must be {surface.vertices.shape}, got {vertices.shape}")
    _check_genus(surface.n_vertices - surface.n_edges + surface.n_faces)
    areas = _checked_areas(vertices, surface.faces)
    return replace(surface, vertices=_freeze(vertices.copy()), face_areas=_freeze(areas),
                   total_area=float(areas.sum()))


def edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges of the faces, as lexicographically ordered (e, 2)
    sorted pairs, and how many faces share each."""
    return _side_table(faces, int(faces.max()) + 1 if faces.size else 1)[:2]


def _side_table(faces: np.ndarray, n: int):
    """Edges, face counts and orientation keys of the faces, from one sort.

    Each face side (a, b) is keyed ``2 * (min(a, b) * n + max(a, b)) +
    (a > b)`` (`n` exceeds every index), and the keys are sorted: halved,
    they run edge by edge in lexicographic order, and two equal keys are
    two faces holding the same directed side.  Returns the (e, 2) sorted
    pairs, the (e,) counts and the sorted keys.
    """
    a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    sides = np.sort(2 * (np.minimum(a, b) * n + np.maximum(a, b)) + (a > b))
    keys = sides >> 1
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return np.stack(np.divmod(keys[starts], n), axis=1), np.diff(starts, append=keys.size), sides


def _check_genus(euler: int) -> None:
    """Reject an Euler characteristic other than 2."""
    if euler != 2:
        genus = (2 - euler) / 2
        raise MeshTopologyError(f"surface is not genus zero (V-E+F = {euler}, genus {genus:g})")


def _check_connected(n: int, edges: np.ndarray) -> None:
    """Reject a mesh graph in more than one piece: V-E+F = 2 does not
    imply one (a sphere and a torus side by side sum to 2 + 0)."""
    # the edges are sorted pairs in lexicographic order, so their first
    # ends are already the rows of a CSR matrix and need no sort
    indptr = np.concatenate([[0], np.cumsum(np.bincount(edges[:, 0], minlength=n))])
    graph = sp.csr_array((np.ones(edges.shape[0]), np.ascontiguousarray(edges[:, 1]), indptr),
                         shape=(n, n))
    components = connected_components(graph, directed=False)[0]
    if components != 1:
        raise MeshTopologyError(f"surface is not connected ({components} components)")


def _checked_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    areas = triangle_areas(vertices, faces)
    if (areas <= 0.0).any() or not np.isfinite(areas).all():
        raise MeshTopologyError(f"zero-area face at index {int(np.flatnonzero(~(areas > 0))[0])}")
    return areas


DISSECTION_LEAF = 8


def nested_dissection(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Geometric nested dissection of a graph with vertex coordinates.

    A vertex set larger than :data:`DISSECTION_LEAF` is split at the
    median of the coordinate with the widest spread: its vertices are
    ranked by that coordinate (ties keep their order in the set), the
    first half is lower and the rest upper, and the lower vertices
    adjacent to the upper half form the separator.  Both halves are
    ordered first, recursively, and the separator last, so eliminating
    the halves creates no fill between them.

    The recursion runs by levels, the vertex sets of one depth being a
    level's pieces: one pass splits every piece of a level at once, with
    per-piece spreads by ``reduceat``, one stable sort by
    (piece, coordinate rank) and the separator test over all the edges
    left inside a piece.  Each piece holds its final slice of the order
    from the start, laid out as lower half, upper half, separator, so a
    split only rearranges that slice.  An edge is dropped once its ends
    are in different pieces or either is final.
    """
    n = points.shape[0]
    coords = np.ascontiguousarray(points.T)
    # dense ranks, row s for coordinate s: equal coordinates share a rank,
    # so a stable sort by rank keeps their order as a sort by value does
    ranks = np.concatenate([np.unique(c, return_inverse=True)[1] for c in coords])
    ends = np.ascontiguousarray(edges.T)
    order = np.arange(n)
    half_of = np.zeros(n, dtype=np.int64)
    on_separator = np.zeros(n, dtype=bool)
    unfinished = np.zeros(n, dtype=bool)
    # the pieces of a level, each as the start and size of its slice of order
    starts, sizes = np.array([0]), np.array([n])
    while True:
        big = sizes > DISSECTION_LEAF
        starts, sizes = starts[big], sizes[big]
        if not starts.size:
            return order
        piece = np.repeat(np.arange(starts.size), sizes)
        first = np.cumsum(sizes) - sizes
        local = np.arange(piece.size) - first[piece]
        vertices = order[starts[piece] + local]
        p = np.take(coords, vertices, axis=1)
        axis = np.argmax(np.maximum.reduceat(p, first, axis=1)
                         - np.minimum.reduceat(p, first, axis=1), axis=0)
        key = piece * n + np.take(ranks, axis[piece] * n + vertices)
        ranked = vertices[np.argsort(key, kind="stable")]
        half = sizes // 2
        upper = local >= half[piece]
        # label the halves 2 piece (lower) and 2 piece + 1 (upper): an edge
        # left inside a piece crosses its split where its ends' labels
        # differ, and its lower end is the one with the smaller label
        half_of[ranked] = 2 * piece + upper
        label = np.take(half_of, ends)
        crossing = label[0] != label[1]
        on_separator[ranked] = False
        on_separator[np.compress(crossing, np.where(label[0] < label[1], ends[0], ends[1]))] = True
        on = on_separator[ranked]
        # within a piece, every other vertex moves forward by the number
        # of separator vertices ranked before it (an upper one by all `cut`
        # of them), and the separator goes to the end of the slice in rank
        # order
        before = np.cumsum(on) - on
        before -= before[first][piece]
        cut = np.add.reduceat(on, first)
        order[np.where(on, (starts + sizes - cut)[piece] + before,
                       starts[piece] + local - before)] = ranked
        starts = np.stack([starts, starts + half - cut], axis=1).ravel()
        sizes = np.stack([half - cut, sizes - half], axis=1).ravel()
        unfinished[ranked] = ~on & (sizes > DISSECTION_LEAF)[2 * piece + upper]
        kept = np.take(unfinished, ends)
        ends = np.compress(~crossing & kept[0] & kept[1], ends, axis=1)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _detect_format(path: str) -> str:
    """The mesh format, "obj" or "off", from the file extension; any other
    extension is rejected."""
    ext = os.path.splitext(path)[1].lower()
    if ext not in (".obj", ".off"):
        raise MeshFormatError(f"cannot infer mesh format from extension {ext!r}")
    return ext[1:]


def _text_lines(path):
    """(line number, tokens) of each line of a UTF-8 file, a leading byte-order
    mark dropped, that holds anything besides a `#` comment, numbered from 1."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                yield lineno, tokens


def load_mesh(path) -> SimplicialSurface:
    """Load a triangular OBJ or OFF file, by its extension.

    Only `v x y z` and `f i j k` records are honored in OBJ files
    (texture/normal references like ``f 1/2/3`` are stripped to the vertex
    index); OFF files must carry the standard ``OFF`` header and counts
    line.  Faces with more or fewer than three vertices are rejected.
    """
    parse = _parse_obj if _detect_format(path) == "obj" else _parse_off
    return build_surface(*parse(path))


def _parse_obj(path):
    verts, faces = [], []
    for lineno, tok in _text_lines(path):
        if tok[0] == "v":
            if len(tok) < 4:
                raise MeshFormatError(f"{path}:{lineno}: malformed vertex line")
            try:
                verts.append([float(t) for t in tok[1:4]])
            except ValueError as exc:
                raise MeshFormatError(f"{path}:{lineno}: malformed vertex line") from exc
        elif tok[0] == "f":
            refs = tok[1:]
            if len(refs) != 3:
                raise MeshFormatError(f"{path}:{lineno}: non-triangle face ({len(refs)} vertices)")
            try:
                idx = [int(r.split("/", 1)[0]) for r in refs]
            except ValueError as exc:
                raise MeshFormatError(f"{path}:{lineno}: malformed face line") from exc
            if any(i < 1 for i in idx):
                raise MeshFormatError(f"{path}:{lineno}: face index out of range")
            faces.append([i - 1 for i in idx])
        # all other record types (vn, vt, o, g, s, ...) are ignored
    if not verts or not faces:
        raise MeshFormatError(f"{path}: no triangle mesh found")
    return np.array(verts), np.array(faces)


def _parse_off(path):
    tokens = [t for _, line in _text_lines(path) for t in line]
    if not tokens or tokens[0].upper() != "OFF":
        raise MeshFormatError(f"{path}: missing OFF header")
    body = tokens[1:]
    if len(body) < 3:
        raise MeshFormatError(f"{path}: missing counts line")
    try:
        nv, nf = int(body[0]), int(body[1])
    except ValueError as exc:
        raise MeshFormatError(f"{path}: malformed counts line") from exc
    pos = 3  # vertex, face, edge counts consumed
    need = nv * 3
    if len(body) < pos + need:
        raise MeshFormatError(f"{path}: truncated vertex block")
    try:
        verts = np.array([float(t) for t in body[pos:pos + need]]).reshape(nv, 3)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: malformed vertex coordinate") from exc
    pos += need
    faces = []
    for _ in range(nf):
        if pos >= len(body):
            raise MeshFormatError(f"{path}: truncated face block")
        try:
            cnt = int(body[pos])
        except ValueError as exc:
            raise MeshFormatError(f"{path}: malformed face record") from exc
        if cnt != 3:
            raise MeshFormatError(f"{path}: non-triangle face ({cnt} vertices)")
        try:
            faces.append([int(t) for t in body[pos + 1:pos + 4]])
        except ValueError as exc:
            raise MeshFormatError(f"{path}: malformed face record") from exc
        pos += 4
    return verts, np.array(faces)


def save_mesh(vertices, faces, path) -> None:
    """Write vertices/faces as OBJ or OFF, by the extension of `path`,
    with full float64 precision."""
    fmt = _detect_format(path)
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    with open(path, "w") as fh:
        if fmt == "obj":
            np.savetxt(fh, vertices, fmt="v %.17g %.17g %.17g")
            np.savetxt(fh, faces + 1, fmt="f %d %d %d")
        else:
            n_edges = edge_table(faces)[0].shape[0]
            np.savetxt(fh, vertices, fmt="%.17g %.17g %.17g", comments="",
                       header=f"OFF\n{len(vertices)} {len(faces)} {n_edges}")
            np.savetxt(fh, faces, fmt="3 %d %d %d")


# ---------------------------------------------------------------------------
# Synthetic meshes
# ---------------------------------------------------------------------------

# Regular icosahedron with vertices on the unit sphere, outward-oriented faces.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=np.float64)
_ICO_VERTS /= np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def make_icosphere(subdivisions: int, radii=(1.0, 1.0, 1.0)) -> SimplicialSurface:
    """Subdivided icosahedron, optionally scaled per axis into an ellipsoid.

    Each subdivision splits every face into four via edge midpoints
    re-projected to the unit sphere, so counts grow as V' = V + E,
    F' = 4 F.  Vertex ordering is deterministic: base vertices first,
    then midpoints in face-visit order, i.e. the order in which the face
    sides (i, j), (j, k), (k, i) of faces 0, 1, ... first meet each edge
    (vertex 12 is the midpoint of base edge (0, 11)).  Face t of a level
    becomes faces 4t..4t+3 of the next: (i, ij, ki), (j, jk, ij),
    (k, ki, jk), (ij, jk, ki).
    """
    if not isinstance(subdivisions, numbers.Integral) or subdivisions < 0:
        raise ValueError(f"subdivisions must be an integer >= 0, got {subdivisions!r}")
    radii = np.asarray(radii, dtype=np.float64)
    if radii.shape != (3,) or not (np.isfinite(radii) & (radii > 0)).all():
        raise ValueError("radii must be three positive scales")

    verts = _ICO_VERTS
    faces = _ICO_FACES
    for _ in range(subdivisions):
        n = verts.shape[0]
        a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        keys, first, side_edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                           return_index=True, return_inverse=True)
        # number each edge's midpoint by the first side that meets it
        visit = np.argsort(first)
        rank = np.empty_like(visit)
        rank[visit] = np.arange(visit.size)
        # the sorted ends i < j of edge e are keys[e] // n and keys[e] % n
        ends = keys[visit]
        p = verts[ends // n] + verts[ends % n]
        # each row's norm as a (1, 3) @ (3, 1) product rounds as
        # np.linalg.norm of that row does; norm(axis=1) and einsum do not
        norms = np.sqrt((p[:, None, :] @ p[:, :, None])[:, 0, 0])
        verts = np.concatenate([verts, p / norms[:, None]])
        ij, jk, ki = (n + rank[side_edge]).reshape(-1, 3).T
        i, j, k = faces.T
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki], axis=1).reshape(-1, 3)

    return build_surface(verts * radii, faces)


def scatter_corners(surface: SimplicialSurface, values: np.ndarray, index: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Sum the per-corner values of one block of faces onto the vertices.

    `index` is the block's corner index
    (:meth:`SimplicialSurface.corner_blocks`) and `values` is (3, 3B),
    one row per coordinate, its columns laid out as `index`: column
    c B + t holds the value at corner c of the block's face t.  Row v of
    the (n, 3) result adds them over every corner that is vertex v.  The
    sums run corner by corner, in face order.  The result is
    coordinate-major (Fortran order), as the descent keeps its arrays
    (:mod:`authalic.rgd`).  Given `out`, the result of the blocks before
    this one, the block's sums are added to `out`, which is returned.
    """
    n = surface.n_vertices
    if out is None:
        return np.stack([np.bincount(index, row, minlength=n) for row in values]).T
    for s, row in enumerate(values):
        out[:, s] += np.bincount(index, row, minlength=n)
    return out


def side_laplacian(n: int, faces: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """Sparse n x n Laplacian from per-face side weights.

    `weights` is (3, 2, m): weights[c, 0] and weights[c, 1] weight the
    sides of each of the m `faces` from its corner c to its corners c + 1
    and c + 2 (mod 3).
    Off-diagonal (a, b) is minus the sum of the weights of side a -> b
    over the faces that hold it; the diagonal is minus the off-diagonal
    row sum, so rows sum to zero.  Sides of faces left out of `faces`
    store no entry.
    """
    corners = faces.T
    rows = np.broadcast_to(corners[:, None], weights.shape)
    cols = corners[(np.arange(3)[:, None] + (1, 2)) % 3]
    lap = sp.coo_matrix((-weights.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(n, n)).tocsr()
    diag = -np.asarray(lap.sum(axis=1)).ravel()
    return (lap + sp.diags(diag)).tocsr()


def vertex_normals(surface: SimplicialSurface) -> np.ndarray:
    """Unit vertex normals: unweighted mean of incident face unit normals,
    each face's doubled-area normal over its length."""
    cross, length = _face_cross(surface.vertices, surface.faces)
    (_, index), = surface.corner_blocks(surface.n_faces)
    acc = scatter_corners(surface, np.tile(np.stack(cross) / length, 3), index)
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    if (norms < 1e-14).any():
        raise MeshTopologyError("vertex with vanishing normal")
    return acc / norms


def perturb_vertices(surface: SimplicialSurface, sigma_noise: float, seed: int) -> SimplicialSurface:
    """Displace each vertex along its normal by N(0, sigma_noise^2) noise."""
    if not (np.isfinite(sigma_noise) and sigma_noise >= 0):
        raise ValueError(f"sigma_noise must be finite and >= 0, got {sigma_noise}")
    rng = np.random.default_rng(seed)
    amplitude = rng.normal(0.0, sigma_noise, surface.n_vertices)
    moved = surface.vertices + amplitude[:, None] * vertex_normals(surface)
    return build_surface(moved, surface.faces)


def normalize_area(surface: SimplicialSurface) -> SimplicialSurface:
    """Uniformly rescale so the total surface area equals
    :data:`SPHERE_AREA`, the area of the unit sphere.

    The result equals ``build_surface(surface.vertices * scale,
    surface.faces)`` field by field, made by :func:`with_vertices`.
    """
    return with_vertices(surface, surface.vertices * np.sqrt(SPHERE_AREA / surface.total_area))


# ---------------------------------------------------------------------------
# Landmark files
# ---------------------------------------------------------------------------

def parse_landmarks(path, n_source: int, n_target: int) -> np.ndarray:
    """Read landmark pairs: one 1-based `i j` pair per line, `#` comments.

    Returns a (k, 2) int array of 0-based (source, target) vertex indices,
    each below its mesh's vertex count, `n_source` or `n_target`.
    """
    pairs = []
    for lineno, tok in _text_lines(path):
        if len(tok) != 2:
            raise MeshFormatError(f"{path}:{lineno}: expected two indices per line")
        try:
            i, j = int(tok[0]), int(tok[1])
        except ValueError as exc:
            raise MeshFormatError(f"{path}:{lineno}: malformed landmark pair") from exc
        if i < 1 or j < 1:
            raise MeshFormatError(f"{path}:{lineno}: landmark indices are 1-based")
        pairs.append((i - 1, j - 1))
    if not pairs:
        raise MeshFormatError(f"{path}: no landmark pairs found")
    out = np.array(pairs, dtype=np.int64)
    if len({tuple(p) for p in pairs}) != len(pairs):
        raise MeshFormatError(f"{path}: duplicate landmark pair")
    if (out[:, 0] >= n_source).any():
        raise MeshFormatError(f"{path}: source landmark index out of range")
    if (out[:, 1] >= n_target).any():
        raise MeshFormatError(f"{path}: target landmark index out of range")
    return out

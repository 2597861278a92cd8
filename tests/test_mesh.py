import dataclasses
import gc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import ConvexHull

import authalic.mesh as mesh
from authalic.energy import FACE_BLOCK, face_geometry
from authalic.errors import MeshFormatError, MeshTopologyError
from authalic.mesh import (build_surface, load_mesh, make_icosphere, normalize_area,
                           parse_landmarks, perturb_vertices, save_mesh,
                           side_laplacian, vertex_normals)
from authalic.pipeline import ParameterizeConfig, parameterize
from authalic.registration import register
from authalic.sphere import project_to_manifold

from helpers import (icosphere_by_midpoint_dict, regular_tetrahedron, rotation_matrix,
                     unit_hull)

TETRA_OFF = """OFF
4 4 6
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    surf = load_mesh(path)
    assert surf.n_vertices == 4
    assert surf.n_faces == 4
    assert surf.n_edges == 6
    assert surf.n_vertices - surf.n_edges + surf.n_faces == 2


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_a_byte_order_mark_does_not_change_a_mesh_file(tmp_path, fmt):
    # read as text, the mark would be part of the first line's first token,
    # hiding an OBJ file's first vertex and an OFF file's header
    surf = make_icosphere(1)
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    save_mesh(surf.vertices, surf.faces, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_mesh(plain), load_mesh(marked)
    assert np.array_equal(a.vertices, b.vertices) and np.array_equal(a.faces, b.faces)


def test_obj_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshFormatError, match="non-triangle"):
        load_mesh(path)


def test_off_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshFormatError, match="non-triangle"):
        load_mesh(path)


def test_icosahedron_area_matches_analytic(tmp_path):
    # regular icosahedron with unit circumradius: edge a = 4 / sqrt(10 + 2 sqrt 5),
    # surface area 5 sqrt(3) a^2
    surf = make_icosphere(0)
    edge = 4.0 / np.sqrt(10.0 + 2.0 * np.sqrt(5.0))
    analytic = 5.0 * np.sqrt(3.0) * edge**2
    assert surf.total_area == pytest.approx(analytic, rel=1e-12)
    path = tmp_path / "ico.off"
    save_mesh(surf.vertices, surf.faces, path)
    assert load_mesh(path).total_area == pytest.approx(analytic, rel=1e-12)


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_save_load_round_trip(tmp_path, fmt):
    surf = make_icosphere(1, (1.0, 0.7, 1.3))
    path = tmp_path / f"mesh.{fmt}"
    save_mesh(surf.vertices, surf.faces, path)
    back = load_mesh(path)
    assert np.abs(back.vertices - surf.vertices).max() <= 1e-12
    assert np.array_equal(back.faces, surf.faces)
    if fmt == "off":
        counts = path.read_text().splitlines()[1].split()
        assert int(counts[2]) == surf.n_edges


# a tetrahedron whose coordinates need all 17 digits, a signed zero, the
# smallest subnormal and a huge exponent
GOLDEN_VERTICES = np.array([[1.0, 1.0, 1.0], [0.1, -1.0, -1.0], [-1.0, 1.0 / 3.0, -1.0],
                            [-0.0, 5e-324, 1e308]])
GOLDEN_ROWS = ["1 1 1", "0.10000000000000001 -1 -1", "-1 0.33333333333333331 -1",
               "-0 4.9406564584124654e-324 1e+308"]


@pytest.mark.parametrize("fmt, expected", [
    ("obj", "".join(f"v {row}\n" for row in GOLDEN_ROWS)
     + "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"),
    ("off", "OFF\n4 4 6\n" + "".join(f"{row}\n" for row in GOLDEN_ROWS)
     + "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"),
])
def test_save_mesh_golden_bytes(tmp_path, fmt, expected):
    path = tmp_path / f"tetra.{fmt}"
    save_mesh(GOLDEN_VERTICES, [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]], path)
    assert path.read_bytes() == expected.encode()


def test_closed_mesh_edge_face_count(icosphere2):
    assert 2 * icosphere2.n_edges == 3 * icosphere2.n_faces


def test_total_area_cross_checks_projected_area_formula(icosphere2):
    geom = face_geometry(icosphere2, icosphere2.vertices)
    assert np.abs(geom.image_areas - icosphere2.face_areas).max() <= 1e-12
    assert geom.image_areas.sum() == pytest.approx(icosphere2.total_area, rel=1e-14)


def test_icosphere_counts_and_radius():
    base = make_icosphere(0)
    assert (base.n_vertices, base.n_faces) == (12, 20)
    one = make_icosphere(1)
    assert (one.n_vertices, one.n_faces) == (42, 80)
    assert np.abs(np.linalg.norm(one.vertices, axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("radii", [(1.0, 1.0, 1.0), (1.0, 0.8, 0.6)])
@pytest.mark.parametrize("subdivisions", range(6))
def test_icosphere_equals_the_midpoint_dict_loop(subdivisions, radii):
    ours = make_icosphere(subdivisions, radii)
    loop = icosphere_by_midpoint_dict(subdivisions, radii)
    for name in ("vertices", "faces", "edges", "face_areas"):
        assert np.array_equal(getattr(ours, name), getattr(loop, name)), name
    assert ours.total_area == loop.total_area


def test_icosphere_numbering():
    base, one = make_icosphere(0), make_icosphere(1)
    assert np.array_equal(one.vertices[:12], base.vertices)
    # the first face (0, 11, 5) meets edge (0, 11) first, then (11, 5), (5, 0)
    p = base.vertices[0] + base.vertices[11]
    assert np.array_equal(one.vertices[12], p / np.linalg.norm(p))
    assert one.faces[:4].tolist() == [[0, 12, 14], [11, 13, 12], [5, 14, 13], [12, 13, 14]]


def test_icosphere_ellipsoid_topology():
    ell = make_icosphere(2, (1.0, 0.8, 0.6))
    assert ell.n_vertices - ell.n_edges + ell.n_faces == 2


def test_icosphere_validates_inputs():
    with pytest.raises(ValueError):
        make_icosphere(-1)
    with pytest.raises(ValueError):
        make_icosphere(1, (1.0, 0.0, 1.0))


@pytest.mark.parametrize("level", [-1, 2.5, np.float64(2.0), "2", None])
def test_icosphere_rejects_a_level_that_is_no_count(level):
    with pytest.raises(ValueError, match=r"subdivisions must be an integer >= 0, got "):
        make_icosphere(level)


def test_icosphere_takes_a_numpy_integer_level():
    ico = make_icosphere(np.int64(1))
    assert np.array_equal(ico.faces, make_icosphere(1).faces)


@pytest.mark.parametrize("radius", [np.nan, np.inf])
def test_icosphere_rejects_a_nonfinite_radius(radius):
    # both passed the positivity check and surfaced from build_surface as
    # a non-finite vertex coordinate (infinity times a zero coordinate)
    with pytest.raises(ValueError, match="radii must be three positive scales"):
        make_icosphere(1, (1.0, radius, 1.0))


def test_perturb_zero_noise_is_identity(icosphere1):
    out = perturb_vertices(icosphere1, 0.0, seed=3)
    assert np.array_equal(out.vertices, icosphere1.vertices)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_perturb_rejects_a_nonfinite_sigma(icosphere1, sigma):
    # NaN used to surface as a non-finite vertex coordinate, and infinity
    # as an invalid multiplication, after the noise was drawn
    with pytest.raises(ValueError, match="sigma_noise must be finite and >= 0"):
        perturb_vertices(icosphere1, sigma, seed=0)


def test_perturb_deterministic(icosphere1):
    a = perturb_vertices(icosphere1, 5e-3, seed=11)
    b = perturb_vertices(icosphere1, 5e-3, seed=11)
    c = perturb_vertices(icosphere1, 5e-3, seed=12)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)
    assert np.array_equal(a.faces, icosphere1.faces)


def test_vertex_normals_point_outward(icosphere1):
    normals = vertex_normals(icosphere1)
    assert np.linalg.norm(normals, axis=1) == pytest.approx(1.0, abs=1e-12)
    # for a sphere mesh the vertex normal is close to the radial direction
    assert (np.sum(normals * icosphere1.vertices, axis=1) > 0.9).all()


def sliver_icosphere():
    """Icosphere whose face 0 is a sliver: its third corner pulled to a
    millionth of its height over the opposite side."""
    base = make_icosphere(2)
    a, b, c = base.faces[0]
    v = base.vertices.copy()
    foot = 0.5 * (v[a] + v[b])
    v[c] = foot + 1e-6 * (v[c] - foot)
    return build_surface(v, base.faces)


@pytest.mark.parametrize("surface", [
    *(build_surface(scale * make_icosphere(s, (1.0, 0.8, 0.6)).vertices
                    @ rotation_matrix((1.0, 2.0, 3.0), 0.7 * s + 0.3).T,
                    make_icosphere(s).faces)
      for s, scale in zip(range(5), (1e-3, 1.0, 1e3, 7.3, 0.011))),
    unit_hull(300, seed=4),
    sliver_icosphere(),
], ids=[*(f"icosphere-{s}" for s in range(5)), "hull-300", "sliver"])
def test_face_kernels_equal_the_cross_product_formulas(surface):
    # the reference: numpy's cross product on the (m, 3, 3) corner gather
    # and its row norms; the kernels must round exactly as these do
    p = surface.vertices[surface.faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    length = np.linalg.norm(cross, axis=1)
    assert np.array_equal(mesh.triangle_areas(surface.vertices, surface.faces), 0.5 * length)
    assert np.array_equal(surface.face_areas, 0.5 * length)
    acc = mesh.scatter_corners(surface, np.tile((cross / length[:, None]).T, 3),
                               surface.faces.T.ravel())
    assert np.array_equal(vertex_normals(surface),
                          acc / np.linalg.norm(acc, axis=1, keepdims=True))
    scaled = normalize_area(surface)
    q = scaled.vertices[scaled.faces]
    assert np.array_equal(scaled.face_areas, 0.5 * np.linalg.norm(
        np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]), axis=1))


def test_side_laplacian_hand_values_on_tetrahedron():
    # unit side weights: every edge lies on two faces, every vertex has
    # three neighbours
    t = regular_tetrahedron()
    lap = side_laplacian(4, t.faces, np.ones((3, 2, 4)))
    assert np.array_equal(lap.toarray(), 8.0 * np.eye(4) - 2.0)
    # a side weight lands on its directed entry only
    weights = np.zeros((3, 2, 4))
    weights[1, 0, 2] = 0.5   # face 2, corner 1 -> corner 2
    a, b = t.faces[2, 1], t.faces[2, 2]
    want = np.zeros((4, 4))
    want[a, b], want[a, a] = -0.5, 0.5
    assert np.array_equal(side_laplacian(4, t.faces, weights).toarray(), want)


def test_normalize_area():
    surf = normalize_area(make_icosphere(1, (2.0, 3.0, 1.0)))
    assert surf.total_area == pytest.approx(4 * np.pi, rel=1e-12)


def test_normalize_area_equals_a_rebuild():
    # rescaling without a rebuild gives build_surface's fields, bit for bit
    source = make_icosphere(2, (2.0, 3.0, 1.0))
    scaled = normalize_area(source)
    rebuilt = build_surface(source.vertices * np.sqrt(4 * np.pi / source.total_area),
                            source.faces)
    for name in ("vertices", "faces", "edges", "face_areas"):
        assert np.array_equal(getattr(scaled, name), getattr(rebuilt, name)), name
        assert not getattr(scaled, name).flags.writeable
    assert scaled.total_area == rebuilt.total_area


def test_normalize_area_keeps_the_genus_check():
    # two disjoint tetrahedra (V - E + F = 4), constructed without the
    # checks of build_surface
    t = regular_tetrahedron()
    two = mesh.SimplicialSurface(
        vertices=np.vstack([t.vertices, t.vertices + 10.0]),
        faces=np.vstack([t.faces, t.faces + 4]), edges=np.vstack([t.edges, t.edges + 4]),
        face_areas=np.concatenate([t.face_areas, t.face_areas]),
        total_area=2.0 * t.total_area)
    with pytest.raises(MeshTopologyError, match="genus"):
        normalize_area(two)


def test_repeated_parameterize_neither_rebuilds_nor_redissects(monkeypatch):
    calls = {"nested_dissection": 0, "build_surface": 0}

    def counted(name):
        original = getattr(mesh, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    surface = make_icosphere(2, (1.0, 0.8, 0.6))
    for name in calls:
        monkeypatch.setattr(mesh, name, counted(name))
    # the paper's run, whose conformal start and warm-up make planar solves
    config = ParameterizeConfig(method="paper", max_iters=3)
    first = parameterize(surface, config)
    second = parameterize(surface, config)
    assert calls == {"nested_dissection": 1, "build_surface": 0}
    assert second.surface.dissection_order is first.surface.dissection_order
    # and one set of corner blocks, which the input's store holds
    blocks = surface.corner_blocks(FACE_BLOCK)
    assert first.surface.corner_blocks(FACE_BLOCK) is blocks
    assert second.surface.corner_blocks(FACE_BLOCK) is blocks
    assert np.array_equal(first.mapping, second.mapping)


def test_open_surface_rejected():
    tetra = regular_tetrahedron()
    with pytest.raises(MeshTopologyError, match="open surface"):
        build_surface(tetra.vertices, tetra.faces[:3])


def test_non_manifold_edge_rejected():
    tetra = regular_tetrahedron()
    verts = np.vstack([tetra.vertices, [0.0, 0.0, 3.0]])
    faces = np.vstack([tetra.faces, [[0, 1, 4]]])  # edge (0,1) now has 3 faces
    with pytest.raises(MeshTopologyError, match="non-manifold"):
        build_surface(verts, faces)


def test_edge_errors_name_the_lexicographically_smallest_edge():
    base = make_icosphere(0)
    # face (9, 8, 1) comes last; its sides become the boundary
    with pytest.raises(MeshTopologyError) as info:
        build_surface(base.vertices, base.faces[::-1][1:])
    assert str(info.value) == "open surface: boundary edge (1, 8)"
    # edges (8, 9) and then (1, 8) gain a third face
    verts = np.vstack([base.vertices, [0.0, 0.0, 3.0]])
    faces = np.vstack([base.faces, [[8, 9, 12], [1, 8, 12]]])
    with pytest.raises(MeshTopologyError) as info:
        build_surface(verts, faces)
    assert str(info.value) == "non-manifold edge (1, 8) shared by >2 faces"


def test_genus_error_and_warning():
    # two disjoint tetrahedra: V - E + F = 4, not a genus-zero surface
    t = regular_tetrahedron()
    verts = np.vstack([t.vertices, t.vertices + 10.0])
    faces = np.vstack([t.faces, t.faces + 4])
    with pytest.raises(MeshTopologyError, match="genus"):
        build_surface(verts, faces)


def torus(n_major: int, n_minor: int, offset: float):
    """A closed n_major x n_minor grid torus (V - E + F = 0), moved by
    `offset` along x."""
    i, j = np.meshgrid(np.arange(n_major), np.arange(n_minor), indexing="ij")
    u, v = 2 * np.pi * i / n_major, 2 * np.pi * j / n_minor
    ring = 3.0 + np.cos(v)
    verts = np.stack([ring * np.cos(u) + offset, ring * np.sin(u), np.sin(v)],
                     axis=-1).reshape(-1, 3)
    a, b = i * n_minor + j, (i + 1) % n_major * n_minor + j
    c, d = (i + 1) % n_major * n_minor + (j + 1) % n_minor, i * n_minor + (j + 1) % n_minor
    faces = np.concatenate([np.stack([a, b, c], -1), np.stack([a, c, d], -1)]).reshape(-1, 3)
    return verts, faces


def test_disconnected_mesh_rejected():
    # V - E + F = 2 for both, but neither is one sphere: two bare vertices
    # (2 - 0 + 0), and a sphere next to a torus (2 + 0)
    with pytest.raises(MeshTopologyError, match="2 components"):
        build_surface(np.zeros((2, 3)), np.zeros((0, 3), dtype=int))
    ico = make_icosphere(1)
    verts, faces = torus(12, 8, offset=10.0)
    assert len(verts) - len(mesh.edge_table(faces)[0]) + len(faces) == 0
    with pytest.raises(MeshTopologyError, match="not connected \\(2 components\\)"):
        build_surface(np.vstack([ico.vertices, verts]),
                      np.vstack([ico.faces, faces + ico.n_vertices]))


@pytest.mark.parametrize("extra", [1, 2])
def test_a_vertex_in_no_face_is_named(extra):
    # one stray vertex fails the genus check (V-E+F = 3), whose
    # fractional genus would not point at it
    ico = make_icosphere(1)
    verts = np.vstack([ico.vertices, np.full((extra, 3), 2.0)])
    with pytest.raises(MeshTopologyError, match=f"^vertex {ico.n_vertices} is in no face$"):
        build_surface(verts, ico.faces)


def directed_side_repeat(faces: np.ndarray, n: int):
    """The reference orientation check, one sort of the directed side keys
    a * n + b: the error message for the smallest key held twice, naming
    the first two faces that hold it, or None."""
    keys = faces.ravel() * n + faces[:, [1, 2, 0]].ravel()
    ordered = np.sort(keys)
    repeated = np.flatnonzero(np.diff(ordered) == 0)
    if not repeated.size:
        return None
    key = ordered[repeated[0]]
    first, second = np.flatnonzero(keys == key)[:2] // 3
    return (f"inconsistently oriented faces: faces {first} and {second} "
            f"both hold the directed side ({key // n}, {key % n})")


@pytest.mark.parametrize("seed", range(20))
def test_orientation_errors_name_the_smallest_repeated_directed_side(seed):
    # up to five reversed faces on a relabelled icosphere: the sort orders
    # sides by edge, so the first repeat it meets is often not the side
    # the error names
    rng = np.random.default_rng(seed)
    base = make_icosphere(2)
    perm = rng.permutation(base.n_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    faces = perm[base.faces]
    flip = rng.choice(base.n_faces, size=rng.integers(1, 6), replace=False)
    faces[flip] = faces[flip][:, ::-1]
    with pytest.raises(MeshTopologyError) as info:
        build_surface(vertices, faces)
    assert str(info.value) == directed_side_repeat(faces, base.n_vertices)


@pytest.mark.parametrize("faces", [
    *(make_icosphere(s).faces for s in range(5)),
    ConvexHull(unit_hull(300, seed=2).vertices).simplices,
    torus(12, 8, offset=0.0)[1],
], ids=[*(f"icosphere-{s}" for s in range(5)), "hull-300", "torus"])
def test_edge_table_equals_the_unique_sorted_pairs(faces):
    pairs = np.sort(np.stack([faces.ravel(), faces[:, [1, 2, 0]].ravel()], axis=1), axis=1)
    want, counts = np.unique(pairs, axis=0, return_counts=True)
    edges, got = mesh.edge_table(faces)
    assert edges.dtype == want.dtype and np.array_equal(edges, want)
    assert np.array_equal(got, counts)


def test_with_vertices_reuses_the_validated_face_list():
    source = make_icosphere(2, (1.0, 0.8, 0.6))
    moved = source.vertices @ rotation_matrix([1.0, 2.0, 3.0], 0.4).T * 2.0
    rebuilt = build_surface(moved, source.faces.copy())
    derived = mesh.with_vertices(source, moved)
    assert derived.faces is source.faces and derived.edges is source.edges
    assert np.array_equal(derived.face_areas, rebuilt.face_areas)
    assert derived.total_area == rebuilt.total_area
    # one dissection order, computed on the vertices the list was built with
    assert derived.dissection_order is source.dissection_order
    with pytest.raises(MeshFormatError, match="vertices must be"):
        mesh.with_vertices(source, moved[:-1])
    flat = moved.copy()
    flat[source.faces[0]] = flat[source.faces[0, 0]]
    with pytest.raises(MeshTopologyError, match="zero-area face at index 0"):
        mesh.with_vertices(source, flat)


def test_with_vertices_copies_share_the_face_lists_corner_blocks():
    source = make_icosphere(2, (1.0, 0.8, 0.6))
    derived = mesh.with_vertices(source, 2.0 * source.vertices)
    for size in (100, FACE_BLOCK):
        blocks = derived.corner_blocks(size)
        assert source.corner_blocks(size) is blocks
        assert mesh.with_vertices(derived, source.vertices).corner_blocks(size) is blocks


def test_another_face_list_starts_its_own_store():
    source = make_icosphere(2, (1.0, 0.8, 0.6))
    order, blocks = source.dissection_order, source.corner_blocks(FACE_BLOCK)
    reversed_faces = np.ascontiguousarray(source.faces[:, ::-1])
    other = dataclasses.replace(source, faces=reversed_faces)
    assert other.dissection_order is not order
    assert np.array_equal(other.dissection_order, order)  # the same edges and vertices
    (_, index), = other.corner_blocks(FACE_BLOCK)
    assert index is not blocks[0][1]
    assert np.array_equal(index, reversed_faces.T.ravel())
    # and the source keeps its own
    assert source.dissection_order is order and source.corner_blocks(FACE_BLOCK) is blocks
    assert mesh.with_vertices(other, source.vertices).corner_blocks(FACE_BLOCK)[0][1] is index


def test_building_leaves_the_callers_arrays_writeable():
    source = make_icosphere(1)
    v, f = source.vertices.copy(), source.faces.copy()
    surface = build_surface(v, f)
    moved = mesh.with_vertices(surface, v)
    assert v.flags.writeable and f.flags.writeable
    v[0], f[0] = 0.0, 0
    assert np.array_equal(surface.vertices, source.vertices)
    assert np.array_equal(moved.vertices, source.vertices)
    assert np.array_equal(surface.faces, source.faces)


def test_the_dissection_order_does_not_depend_on_call_history():
    # a registration asks for the shared order first, on its sphere mesh;
    # a later run on the mesh must still equal one on a fresh copy
    def ellipsoid():
        return normalize_area(make_icosphere(4, (1.0, 0.8, 0.6)))

    registered = ellipsoid()
    f = project_to_manifold(registered.vertices)
    pairs = np.array([[3, 3], [40, 40], [77, 77], [120, 120], [150, 150]])
    register(registered, registered, f, f, pairs, iters=1)
    config = ParameterizeConfig(method="paper", max_iters=5)
    assert np.array_equal(parameterize(registered, config).mapping,
                          parameterize(ellipsoid(), config).mapping)


def test_out_of_range_and_degenerate_faces():
    t = regular_tetrahedron()
    bad = t.faces.copy()
    bad[0, 0] = 9
    with pytest.raises(MeshFormatError, match="out of range"):
        build_surface(t.vertices, bad)
    degen = t.faces.copy()
    degen[0] = (1, 1, 2)
    with pytest.raises(MeshTopologyError, match="degenerate"):
        build_surface(t.vertices, degen)


def test_malformed_files(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("OOPS\n1 1 1\n")
    with pytest.raises(MeshFormatError, match="OFF header"):
        load_mesh(p)
    p2 = tmp_path / "bad.obj"
    p2.write_text("v 0 0\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p2)


def test_parse_landmarks(tmp_path):
    path = tmp_path / "marks.txt"
    path.write_text("# comment\n1 5\n3 2   # trailing\n\n10 10\n")
    pairs = parse_landmarks(path, n_source=10, n_target=10)
    assert np.array_equal(pairs, [[0, 4], [2, 1], [9, 9]])


def test_a_byte_order_mark_does_not_change_a_landmark_file(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("1 5\n3 2\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(parse_landmarks(marked, 10, 10), parse_landmarks(plain, 10, 10))


def test_parse_landmarks_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1 2\n")
    with pytest.raises(MeshFormatError, match="duplicate"):
        parse_landmarks(path, 10, 10)
    path.write_text("0 2\n")
    with pytest.raises(MeshFormatError, match="1-based"):
        parse_landmarks(path, 10, 10)
    path.write_text("4 2\n")
    with pytest.raises(MeshFormatError, match="source landmark index out of range"):
        parse_landmarks(path, n_source=3, n_target=3)
    path.write_text("2 4\n")
    with pytest.raises(MeshFormatError, match="target landmark index out of range"):
        parse_landmarks(path, n_source=3, n_target=3)
    path.write_text("1 2 3\n")
    with pytest.raises(MeshFormatError, match="two indices"):
        parse_landmarks(path, 10, 10)


def test_dissection_order_is_a_cached_permutation():
    surface = make_icosphere(3)
    order = surface.dissection_order
    assert np.array_equal(np.sort(order), np.arange(surface.n_vertices))
    assert surface.dissection_order is order


def test_nested_dissection_leaves_nothing_for_the_collector():
    # every new face list is ordered once; a call that left a reference
    # cycle would hold its adjacency until a full collection
    surface = make_icosphere(3)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        order = mesh.nested_dissection(surface.vertices, surface.edges)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert np.array_equal(np.sort(order), np.arange(surface.n_vertices))


def dissection_by_adjacency_product(points, edges):
    """Nested dissection one vertex set at a time, from a stack, with the
    separator test as a sparse product: a lower vertex is on the
    separator when its adjacency row times the upper half's indicator is
    positive.  The cross-check of the level form of
    :func:`authalic.mesh.nested_dissection`, which splits every piece of
    a level at once."""
    n = points.shape[0]
    ends = np.concatenate([edges, edges[:, ::-1]])
    adjacency = sp.csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    pieces, stack = [], [(np.arange(n), False)]
    while stack:
        vertices, is_separator = stack.pop()
        if is_separator or vertices.size <= mesh.DISSECTION_LEAF:
            pieces.append(vertices)
            continue
        p = points[vertices]
        axis = int(np.argmax(p.max(axis=0) - p.min(axis=0)))
        ranked = vertices[np.argsort(p[:, axis], kind="stable")]
        lower, upper = ranked[:ranked.size // 2], ranked[ranked.size // 2:]
        upper_mask = np.zeros(n)
        upper_mask[upper] = 1.0
        on_separator = adjacency[lower] @ upper_mask > 0
        stack += [(lower[on_separator], True), (upper, False), (lower[~on_separator], False)]
    return np.concatenate(pieces)


def graph_of(surface):
    return surface.vertices, surface.edges


def hull_graph(n_points, seed):
    # random unit vectors: every point is a hull vertex
    points = np.random.default_rng(seed).normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return points, mesh.edge_table(ConvexHull(points).simplices)[0]


DISSECTION_GRAPHS = pytest.mark.parametrize("graph", [
    *(graph_of(make_icosphere(s, (1.0, 0.8, 0.6))) for s in range(5)),
    hull_graph(700, 3),
], ids=[*(f"icosphere-{s}" for s in range(5)), "hull-700"])


@DISSECTION_GRAPHS
def test_nested_dissection_matches_the_adjacency_product(graph):
    points, edges = graph
    order = mesh.nested_dissection(points, edges)
    assert np.array_equal(order, dissection_by_adjacency_product(points, edges))


@DISSECTION_GRAPHS
def test_nested_dissection_matches_the_adjacency_product_at_leaf_64(graph, monkeypatch):
    # the leaf the stack loop used: a larger leaf ends the levels
    # earlier, and leaves pieces of many more sizes unsplit
    monkeypatch.setattr(mesh, "DISSECTION_LEAF", 64)
    points, edges = graph
    order = mesh.nested_dissection(points, edges)
    assert np.array_equal(order, dissection_by_adjacency_product(points, edges))


def test_nested_dissection_matches_the_adjacency_product_on_a_stretched_mesh():
    # a 10:1:1 ellipsoid splits along x for several levels in a row, where
    # each piece is already in rank order, and has many equal coordinates
    points, edges = graph_of(make_icosphere(4, (10.0, 1.0, 1.0)))
    order = mesh.nested_dissection(points, edges)
    assert np.array_equal(order, dissection_by_adjacency_product(points, edges))

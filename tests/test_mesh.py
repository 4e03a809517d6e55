import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from bulkgrow import mesh as mesh_module
from bulkgrow.cli import main
from bulkgrow.errors import (
    ConfigError,
    GeometryError,
    MeshFormatError,
    ResourceError,
    ValidationError,
)
from bulkgrow.mesh import (
    BulkSurfaceMesh,
    _renumber_boundary_first,
    boundary_element_measures,
    bulk_element_measures,
    check_orientation,
    elevate_to_quadratic,
    element_diameters,
    ellipsoid_projector,
    generate_ball_mesh,
    generate_disk_mesh,
    generator_grid,
    load_mesh,
    quality_report,
    save_mesh,
    validate_mesh,
)
from bulkgrow.refelem import EDGE_VERTICES

# ---------------------------------------------------------------------------
# Loop references for the vectorized face and edge matching in bulkgrow.mesh
# ---------------------------------------------------------------------------

_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def reference_element_faces(conn, m, k):
    """Boundary-candidate faces of one bulk element: (corner frozenset, all nodes)."""
    d = m + 1
    faces = []
    if d == 2:
        for s, (a, b) in enumerate(EDGE_VERTICES[2]):
            nodes = [conn[a], conn[b]]
            if k == 2:
                nodes.append(conn[3 + s])
            faces.append((frozenset(int(i) for i in nodes[:2]), tuple(nodes)))
    else:
        edge_slot = {frozenset(e): s for s, e in enumerate(EDGE_VERTICES[3])}
        for fa, fb, fc in _TET_FACES:
            nodes = [conn[fa], conn[fb], conn[fc]]
            if k == 2:
                for pair in ((fa, fb), (fb, fc), (fa, fc)):
                    nodes.append(conn[4 + edge_slot[frozenset(pair)]])
            faces.append((frozenset(int(i) for i in nodes[:3]), tuple(nodes)))
    return faces


def reference_trace_check(mesh, facet_lines=None):
    """Every boundary facet must coincide with a boundary face of a bulk element."""
    m, k = mesh.dim_m, mesh.degree_k
    face_nodes = {}
    counts = {}
    for conn in mesh.bulk_elements:
        for corners, full in reference_element_faces(conn, m, k):
            counts[corners] = counts.get(corners, 0) + 1
            face_nodes[corners] = full
    for b, facet in enumerate(mesh.boundary_elements):
        corners = frozenset(int(i) for i in facet[: m + 1])
        line = facet_lines[b] if facet_lines is not None else None
        if counts.get(corners, 0) != 1:
            raise MeshFormatError(
                f"facet {b} is not a boundary face of exactly one bulk element",
                line=line,
            )
        if frozenset(int(i) for i in facet) != frozenset(int(i) for i in face_nodes[corners]):
            raise MeshFormatError(
                f"facet {b} node set does not match its parent element face",
                line=line,
            )


def reference_disk_p1(radius, target_h):
    """Degree-1 generate_disk_mesh with the per-triangle ring loop and the
    boundary-first numbering built in."""
    rings = max(1, math.ceil(radius / target_h))
    n_bnd = 6 * rings
    center = n_bnd

    def ring_start(j):
        # ring M occupies [0, 6M); interior ring j starts after the center node
        return n_bnd + 1 + 3 * j * (j - 1)

    def node_id(j, p):
        if j == 0:
            return center
        if j == rings:
            return p % n_bnd
        return ring_start(j) + p % (6 * j)

    n_nodes = 1 + 3 * rings * (rings + 1)
    pos = np.empty((n_nodes, 2))
    pos[center] = 0.0
    for j in range(1, rings + 1):
        r = radius * j / rings
        p = np.arange(6 * j)
        theta = 2.0 * np.pi * p / (6 * j)
        ids = np.array([node_id(j, int(q)) for q in p])
        pos[ids, 0] = r * np.cos(theta)
        pos[ids, 1] = r * np.sin(theta)

    tris = []
    for p in range(6):
        tris.append((node_id(1, p), node_id(1, p + 1), center))
    for j in range(2, rings + 1):
        for s in range(6):
            for p in range(j):
                o0 = node_id(j, s * j + p)
                o1 = node_id(j, s * j + p + 1)
                i0 = node_id(j - 1, s * (j - 1) + p)
                tris.append((o0, o1, i0))
                if p < j - 1:
                    i1 = node_id(j - 1, s * (j - 1) + p + 1)
                    tris.append((o1, i1, i0))
    segments = [(p, (p + 1) % n_bnd) for p in range(n_bnd)]
    return BulkSurfaceMesh(
        dim_m=1,
        degree_k=1,
        node_positions=pos,
        n_boundary=n_bnd,
        bulk_elements=np.array(tris, dtype=np.int32),
        boundary_elements=np.array(segments, dtype=np.int32),
    )


def reference_ball_p1(radii, target_h):
    """Degree-1 generate_ball_mesh with the Kuhn loop, face dict and orientation loop."""
    radii = np.asarray(radii, dtype=float)
    subdiv = np.maximum(2, np.ceil(2.0 * math.sqrt(3.0) * radii / target_h).astype(int))
    nx, ny, nz = (int(s) for s in subdiv)
    axes = [np.linspace(-1.0, 1.0, n + 1) for n in (nx, ny, nz)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                base = np.array([i, j, k])
                for perm in perms:
                    steps = np.zeros((4, 3), dtype=int)
                    for s, axis in enumerate(perm):
                        steps[s + 1] = steps[s]
                        steps[s + 1, axis] += 1
                    corners = base + steps
                    tets.append([vid(*c) for c in corners])
    tets = np.array(tets, dtype=np.int64)

    coords = grid[tets]
    vol6 = np.linalg.det(coords[:, 1:] - coords[:, :1])
    flip = vol6 < 0
    tets[flip, 0], tets[flip, 1] = tets[flip, 1].copy(), tets[flip, 0].copy()

    sup = np.abs(grid).max(axis=1)
    two = np.linalg.norm(grid, axis=1)
    scale = np.divide(sup, two, out=np.ones_like(sup), where=two > 0)
    points = grid * scale[:, None] * np.asarray(radii)

    faces = {}
    for conn in tets:
        for fa, fb, fc in _TET_FACES:
            key = frozenset((int(conn[fa]), int(conn[fb]), int(conn[fc])))
            faces[key] = None if key in faces else (conn[fa], conn[fb], conn[fc])
    bnd_faces = [f for f in faces.values() if f is not None]

    oriented = []
    for f in bnd_faces:
        p = points[list(f)]
        normal = np.cross(p[1] - p[0], p[2] - p[0])
        oriented.append(f if normal @ p.mean(axis=0) > 0 else (f[0], f[2], f[1]))

    return _renumber_boundary_first(
        dim_m=2, positions=points, bulk=tets, boundary=np.array(oriented, dtype=np.int64)
    )


def reference_elevation(lin, projector):
    """elevate_to_quadratic with a dict over sorted vertex pairs.

    Edges are numbered in sorted order; boundary-edge midpoints follow the old
    boundary nodes, interior ones follow the shifted interior nodes.
    """
    def key(conn, a, b):
        return tuple(sorted((int(conn[a]), int(conn[b]))))

    edges = sorted({key(c, a, b) for c in lin.bulk_elements for a, b in EDGE_VERTICES[lin.dim]})
    on_boundary = {
        key(f, a, b) for f in lin.boundary_elements for a, b in EDGE_VERTICES[lin.dim_m]
    }
    bnd_edges = [e for e in edges if e in on_boundary]
    int_edges = [e for e in edges if e not in on_boundary]
    n_new = len(bnd_edges)
    node = {e: lin.n_boundary + i for i, e in enumerate(bnd_edges)}
    node.update({e: lin.n_nodes + n_new + i for i, e in enumerate(int_edges)})

    def shift(i):
        return int(i) + (n_new if i >= lin.n_boundary else 0)

    def elevate(conn, dim):
        return [shift(i) for i in conn] + [node[key(conn, a, b)] for a, b in EDGE_VERTICES[dim]]

    positions = np.empty((lin.n_nodes + len(edges), lin.dim))
    for i, p in enumerate(lin.node_positions):
        positions[shift(i)] = p
    for e in int_edges:
        positions[node[e]] = lin.node_positions[list(e)].mean(axis=0)
    straight = np.array([lin.node_positions[list(e)].mean(axis=0) for e in bnd_edges])
    for e, p in zip(bnd_edges, projector(straight)):
        positions[node[e]] = p
    return BulkSurfaceMesh(
        dim_m=lin.dim_m,
        degree_k=2,
        node_positions=positions,
        n_boundary=lin.n_boundary + n_new,
        bulk_elements=[elevate(c, lin.dim) for c in lin.bulk_elements],
        boundary_elements=[elevate(f, lin.dim_m) for f in lin.boundary_elements],
    )


def with_facets(mesh, facets):
    """The mesh with another boundary connectivity (not validated)."""
    return BulkSurfaceMesh(
        dim_m=mesh.dim_m,
        degree_k=mesh.degree_k,
        node_positions=mesh.node_positions,
        n_boundary=mesh.n_boundary,
        bulk_elements=mesh.bulk_elements,
        boundary_elements=facets,
    )


def assert_same_mesh(mesh, ref):
    assert mesh.n_boundary == ref.n_boundary
    assert np.array_equal(mesh.node_positions, ref.node_positions)
    assert np.array_equal(mesh.bulk_elements, ref.bulk_elements)
    assert np.array_equal(mesh.boundary_elements, ref.boundary_elements)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("shape", ["ball", "ellipsoid", "disk"])
def test_generators_match_loop_references(shape, degree):
    if shape == "disk":
        radius, h = 1.0, 0.2
        mesh = generate_disk_mesh(radius, h, degree=degree)
        ref = reference_disk_p1(radius, h)
        projector = ellipsoid_projector((radius, radius))
    else:
        radii = [1.0, 1.0, 1.0] if shape == "ball" else [1.0, 0.8, 0.9]
        mesh = generate_ball_mesh(radii, 0.5, degree=degree)
        ref = reference_ball_p1(radii, 0.5)
        projector = ellipsoid_projector(np.broadcast_to(radii, (3,)))
    reference_trace_check(ref)
    if degree == 2:
        ref = reference_elevation(ref, projector)
        reference_trace_check(ref)
    assert_same_mesh(mesh, ref)



class TestDiskMesh:
    def test_polygon_area_matches_exact_formula(self):
        mesh = generate_disk_mesh(1.0, 0.5, degree=1)
        n_seg = mesh.boundary_elements.shape[0]
        exact = (n_seg / 2.0) * math.sin(2.0 * math.pi / n_seg)
        assert bulk_element_measures(mesh).sum() == pytest.approx(exact, rel=1e-12)

    def test_boundary_nodes_on_circle(self):
        for h in (0.4, 0.17):
            mesh = generate_disk_mesh(1.0, h, degree=1)
            radii = np.linalg.norm(mesh.boundary_positions, axis=1)
            assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_mesh_size_below_bound(self):
        for h in (0.5, 0.2, 0.08):
            mesh = generate_disk_mesh(1.0, h)
            assert mesh.mesh_size_h <= 1.5 * h

    def test_quasi_uniform(self):
        mesh = generate_disk_mesh(1.5, 0.15)
        assert quality_report(mesh)["quasi_uniformity_ratio"] <= 4.0

    def test_quadratic_boundary_length_fourth_order(self):
        radius = 1.5
        errors = []
        hs = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            mesh = generate_disk_mesh(radius, h, degree=2)
            length = boundary_element_measures(mesh).sum()
            errors.append(abs(length - 2.0 * math.pi * radius))
            hs.append(mesh.mesh_size_h)
        rates = [
            math.log(errors[i] / errors[i + 1]) / math.log(hs[i] / hs[i + 1])
            for i in range(len(errors) - 1)
        ]
        assert rates[-1] == pytest.approx(4.0, abs=0.4)

    def test_linear_boundary_length_second_order(self):
        radius = 1.5
        errors = []
        hs = []
        for h in (0.5, 0.25, 0.125):
            mesh = generate_disk_mesh(radius, h, degree=1)
            length = boundary_element_measures(mesh).sum()
            errors.append(abs(length - 2.0 * math.pi * radius))
            hs.append(mesh.mesh_size_h)
        rate = math.log(errors[0] / errors[-1]) / math.log(hs[0] / hs[-1])
        assert rate == pytest.approx(2.0, abs=0.3)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            generate_disk_mesh(-1.0, 0.1)
        with pytest.raises(ValidationError):
            generate_disk_mesh(1.0, 2.0)
        with pytest.raises(ResourceError):
            generate_disk_mesh(1.0, 1e-6)


@pytest.mark.parametrize("change, message", [
    (lambda m: {"dim_m": 3}, "boundary dimension m must be 1 or 2, got 3"),
    (lambda m: {"node_positions": np.hstack([m.node_positions, m.node_positions[:, :1]])},
     re.escape("node_positions must have shape (N, m+1)")),
    (lambda m: {"bulk_elements": m.bulk_elements[:, :2]},
     "bulk connectivity width does not match degree"),
    (lambda m: {"boundary_elements": m.boundary_elements[:, :1]},
     "boundary connectivity width does not match degree"),
    (lambda m: {"bulk_elements": m.bulk_elements - 1}, "bulk connectivity index out of range"),
    (lambda m: {"boundary_elements": m.boundary_elements[:0]}, "boundary triangulation is empty"),
    (lambda m: {"boundary_elements": m.boundary_elements - 1},
     "boundary connectivity index out of range"),
    (lambda m: {"boundary_elements": m.boundary_elements + 1},
     r"boundary element references interior node (\d+) \(>= n_boundary=\1\)"),
], ids=["dim", "positions-shape", "bulk-width", "boundary-width", "bulk-index",
        "no-facets", "boundary-index", "interior-node-on-boundary"])
def test_mesh_fields_checked(change, message):
    mesh = generate_disk_mesh(1.0, 0.5, degree=1)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        dataclasses.replace(mesh, **change(mesh))


class TestNodeBudget:
    @pytest.mark.parametrize("radii, h", [([1.5, 1.5], 0.1), ([1.0, 0.8, 0.9], 0.5)])
    def test_estimate_counts_the_p1_nodes(self, radii, h):
        counts = generator_grid(radii, h, 1)
        if len(radii) == 2:
            mesh = generate_disk_mesh(radii[0], h)
            expected = 1 + 3 * counts[0] * (counts[0] + 1)
        else:
            mesh = generate_ball_mesh(radii, h)
            expected = math.prod(c + 1 for c in counts)
        assert mesh.n_nodes == expected

    @pytest.mark.parametrize("generate, radius, h", [
        # A ball of radius 1.0 is its three semi-axes.
        pytest.param(generate_ball_mesh, [1.0] * 3, 1e-300, id="generate_ball_mesh-1.0-1e-300"),
        # Its int64 estimate wrapped negative.
        pytest.param(generate_ball_mesh, [1.0] * 3, 1e-8, id="generate_ball_mesh-1.0-1e-08"),
        (generate_disk_mesh, 1e300, 1e-10),  # radius / h overflows to inf
    ])
    def test_overflowing_estimate_is_over_the_cap(self, generate, radius, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResourceError) as info:
                generate(radius, h, degree=2)
        assert len(str(info.value)) < 80  # the estimate in 3 digits


class TestBallMesh:
    def test_sphere_surface_area(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.3, degree=2)
        area = boundary_element_measures(mesh).sum()
        assert abs(area - 4.0 * math.pi) / (4.0 * math.pi) < 0.02

    def test_boundary_nodes_on_ellipsoid(self):
        radii = np.array([0.5, 0.5, 1.0])
        mesh = generate_ball_mesh(radii, 0.35, degree=2)
        level = ((mesh.boundary_positions / radii) ** 2).sum(axis=1)
        assert np.max(np.abs(level - 1.0)) < 1e-12

    def test_dof_counts_match_reference_resolution(self):
        mesh = generate_ball_mesh((0.5, 0.5, 1.0), 0.25, degree=2)
        # Same order as the reference resolution: ~7k bulk / ~1.4k surface.
        assert 3500 <= mesh.n_nodes <= 15000
        assert 700 <= mesh.n_boundary <= 3000

    def test_centroid_at_origin(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.5)
        assert np.max(np.abs(mesh.node_positions.mean(axis=0))) < 1e-10

    def test_quasi_uniform(self):
        for radii in ((1.0, 1.0, 1.0), (0.5, 0.5, 1.0)):
            mesh = generate_ball_mesh(radii, 0.4)
            assert quality_report(mesh)["quasi_uniformity_ratio"] <= 4.0

    def test_degenerate_radii_rejected(self):
        with pytest.raises(ValidationError):
            generate_ball_mesh((1.0, 0.0, 1.0), 0.3)

    @pytest.mark.parametrize("radii", [1.0, [1.0], [1.0, 1.0]])
    def test_radii_are_three_semi_axes(self, radii):
        # A ball is its three equal semi-axes; a number is not widened.
        with pytest.raises(ValidationError, match="three positive"):
            generate_ball_mesh(radii, 0.5)


class TestElevation:
    def test_identity_projector_keeps_volumes(self):
        lin = generate_disk_mesh(1.0, 0.3, degree=1)
        quad = elevate_to_quadratic(lin, surface_projector=lambda p: p)
        vol_lin = bulk_element_measures(lin).sum()
        vol_quad = bulk_element_measures(quad).sum()
        assert vol_quad == pytest.approx(vol_lin, rel=1e-14)

    def test_sphere_boundary_nodes_at_radius(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.45, degree=2)
        radii = np.linalg.norm(mesh.boundary_positions, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_elevation_requires_linear_input(self):
        quad = generate_disk_mesh(1.0, 0.4, degree=2)
        with pytest.raises(ValidationError):
            elevate_to_quadratic(quad, lambda p: p)

    def test_projector_displacement_guard(self):
        lin = generate_disk_mesh(1.0, 0.4, degree=1)
        with pytest.raises(GeometryError):
            elevate_to_quadratic(lin, surface_projector=lambda p: p * 3.0)

    def test_boundary_edge_must_be_bulk_edge(self):
        lin = generate_disk_mesh(1.0, 0.4)
        facets = lin.boundary_elements.copy()
        facets[-1] = (0, 2)
        with pytest.raises(ValidationError, match=f"^facet {len(facets) - 1} has an edge"):
            elevate_to_quadratic(with_facets(lin, facets), lambda p: p)

    def test_boundary_first_preserved(self):
        for degree in (1, 2):
            mesh = generate_disk_mesh(1.0, 0.3, degree=degree)
            validate_mesh(mesh)  # raises on any violated invariant


class TestMovedPositions:
    """A moved configuration is a positions array on the reference mesh."""

    def test_uniform_scaling_scales_measures(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        s = 1.7
        moved = s * mesh.node_positions
        assert bulk_element_measures(mesh, moved).sum() == pytest.approx(
            s ** 2 * bulk_element_measures(mesh).sum(), rel=1e-12
        )
        assert boundary_element_measures(mesh, moved).sum() == pytest.approx(
            s * boundary_element_measures(mesh).sum(), rel=1e-12
        )

    def test_collapsed_element_flagged(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        pos = mesh.node_positions.copy()
        elem = mesh.bulk_elements[0]
        pos[elem[2]] = (pos[elem[0]] + pos[elem[1]]) / 2.0
        check_orientation(mesh)  # the reference mesh is fine
        with pytest.raises(GeometryError):
            check_orientation(mesh, pos)

    def test_mesh_size_is_derived(self):
        mesh = generate_disk_mesh(1.0, 0.3)
        moved = dataclasses.replace(mesh, node_positions=1.7 * mesh.node_positions)
        assert moved.mesh_size_h == pytest.approx(1.7 * mesh.mesh_size_h, rel=1e-12)
        with pytest.raises(TypeError):  # not a constructor argument
            BulkSurfaceMesh(
                dim_m=1, degree_k=1, node_positions=mesh.node_positions,
                n_boundary=mesh.n_boundary, bulk_elements=mesh.bulk_elements,
                boundary_elements=mesh.boundary_elements, mesh_size_h=1.0,
            )


@pytest.mark.parametrize("make", [
    lambda: generate_disk_mesh(1.0, 0.2, degree=2),
    lambda: generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2),
], ids=["p2_disk", "p2_ball"])
def test_generated_p2_mesh_is_checked_once(make, monkeypatch):
    """Only the returned P2 mesh is validated, and h is derived on first read."""
    calls = {"check_orientation": 0, "element_diameters": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(mesh_module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(mesh_module, name, counted)
    mesh = make()
    assert calls == {"check_orientation": 1, "element_diameters": 0}
    h = mesh.mesh_size_h
    assert mesh.mesh_size_h == h == float(element_diameters(mesh).max())
    assert calls == {"check_orientation": 1, "element_diameters": 1}


@pytest.mark.parametrize("make", [
    lambda: generate_disk_mesh(1.0, 0.2, degree=2),
    lambda: generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2),
], ids=["p2_disk", "p2_ball"])
def test_element_diameters_match_the_broadcast_formula(make):
    mesh = make()
    coords = mesh.node_positions[mesh.bulk_elements]
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    expected = np.sqrt((diff ** 2).sum(axis=-1).max(axis=(1, 2)))
    assert np.array_equal(element_diameters(mesh), expected)


class TestMeasureConsistency:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_disk_measure_sums(self, degree):
        mesh = generate_disk_mesh(1.0, 0.25, degree=degree)
        per_element = bulk_element_measures(mesh).sum()
        # Integrating 1 over the mesh must agree with the element sum.
        from bulkgrow.assembly import Assembler

        mass = Assembler(mesh).bulk_mass()
        ones = np.ones(mesh.n_nodes)
        assert per_element == pytest.approx(ones @ (mass @ ones), rel=1e-12)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_disk_area_convergence(self, degree):
        errors = []
        hs = []
        for h in (0.4, 0.2, 0.1):
            mesh = generate_disk_mesh(1.0, h, degree=degree)
            errors.append(abs(bulk_element_measures(mesh).sum() - math.pi))
            hs.append(mesh.mesh_size_h)
        rate = math.log(errors[0] / errors[-1]) / math.log(hs[0] / hs[-1])
        expected = 2.0 if degree == 1 else 4.0
        assert rate == pytest.approx(expected, abs=0.45)


class TestBsmFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        jitter = 1e-4 * rng.standard_normal(mesh.node_positions.shape)
        mesh = dataclasses.replace(mesh, node_positions=mesh.node_positions + jitter)
        p1 = tmp_path / "a.bsm"
        p2 = tmp_path / "b.bsm"
        save_mesh(mesh, p1)
        loaded = load_mesh(p1)
        assert np.array_equal(loaded.node_positions, mesh.node_positions)
        save_mesh(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_ball(self, tmp_path):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.6, degree=1)
        path = tmp_path / "ball.bsm"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        assert loaded.n_boundary == mesh.n_boundary
        assert np.array_equal(loaded.bulk_elements, mesh.bulk_elements)

    def test_facet_referencing_interior_node(self, tmp_path):
        mesh = generate_disk_mesh(1.0, 0.4)
        path = tmp_path / "bad.bsm"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        # Point the last facet at an interior node.
        lines[-1] = f"{mesh.n_boundary} {mesh.n_boundary + 1}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == len(lines)

    def test_empty_elements_section(self, tmp_path):
        path = tmp_path / "empty.bsm"
        path.write_text("bsm 1 1 1 3 3\nNODES\n0 0\n1 0\n0 1\nELEMENTS\nBOUNDARY\n0 1\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_unreadable_file_names_its_path(self, tmp_path):
        binary = tmp_path / "binary.bsm"
        binary.write_bytes(b"bsm \xff\xfe\n")
        for path in (tmp_path / "missing.bsm", tmp_path, binary):
            message = f"^cannot read mesh file {re.escape(str(path))}: "
            with pytest.raises(MeshFormatError, match=message):
                load_mesh(path)

    def test_uncreatable_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="^cannot create mesh file: "):
            save_mesh(generate_disk_mesh(1.0, 0.4), tmp_path / "missing" / "disk.bsm")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "hdr.bsm"
        path.write_text("bsm x 1 1 3 3\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 1

    def test_comments_ignored(self, tmp_path):
        mesh = generate_disk_mesh(1.0, 0.5)
        path = tmp_path / "c.bsm"
        save_mesh(mesh, path)
        text = "# generated mesh\n" + path.read_text()
        path.write_text(text)
        loaded = load_mesh(path)
        assert loaded.n_nodes == mesh.n_nodes

    @staticmethod
    def corrupted(tmp_path, edits):
        """Save the P1 disk of radius 1 at h = 0.4, replace data rows
        ``{(section, row): text}`` and return (path, {(section, row): line
        number})."""
        mesh = generate_disk_mesh(1.0, 0.4)
        path = tmp_path / "edited.bsm"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        numbers = {}
        for (section, row), text in edits.items():
            index = lines.index(section) + 1 + row
            lines[index] = text
            numbers[section, row] = index + 1
        path.write_text("\n".join(lines) + "\n")
        return path, numbers

    @pytest.mark.parametrize("section, row, text, message", [
        ("NODES", 3, "0.5 x", "non-numeric coordinate"),
        ("NODES", 4, "0.5", "expected 2 coordinates"),
        ("ELEMENTS", 2, "0 1", "expected 3 node indices in ELEMENTS row"),
        ("ELEMENTS", 5, "0 1 2.0", "non-integer connectivity entry"),
        ("BOUNDARY", 1, "0 -1", "node index out of range"),
        ("NODES", 2, "nan 0.5", "non-finite coordinate"),
        ("NODES", 2, "0.5 -inf", "non-finite coordinate"),
        ("NODES", 2, "1e400 0.5", "non-finite coordinate"),  # overflows to inf
        ("ELEMENTS", 3, "0 1 99999999999999999999999", "node index out of range"),
        ("BOUNDARY", 2, "-99999999999999999999999 0", "node index out of range"),
        ("BOUNDARY", 2, "-1 20", "node index out of range"),  # and 20 is interior
    ])
    def test_bad_row_reports_its_line(self, tmp_path, section, row, text, message):
        path, numbers = self.corrupted(tmp_path, {(section, row): text})
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert str(err.value) == f"line {numbers[section, row]}: {message}"

    def test_first_bad_row_wins(self, tmp_path):
        path, numbers = self.corrupted(tmp_path, {
            ("ELEMENTS", 1): "0 1 100000", ("ELEMENTS", 4): "0 1 x",
        })
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == numbers["ELEMENTS", 1]

    interior = "facet references a non-boundary node (ordering must be boundary-first)"

    @pytest.mark.parametrize("first, later, message", [
        (("BOUNDARY", 1, "18 19"), ("BOUNDARY", 4, "0 x"), interior),
        (("BOUNDARY", 1, "0 x"), ("BOUNDARY", 4, "18 19"), "non-integer connectivity entry"),
        (("BOUNDARY", 1, "0"), ("BOUNDARY", 4, "0 40"), "expected 2 node indices in BOUNDARY row"),
        (("NODES", 1, "nan 0"), ("NODES", 4, "0 x"), "non-finite coordinate"),
        (("NODES", 1, "0 x"), ("NODES", 4, "inf 0"), "non-numeric coordinate"),
    ], ids=["interior-before-non-integer", "non-integer-before-interior",
            "width-before-range", "non-finite-before-non-numeric",
            "non-numeric-before-non-finite"])
    def test_first_bad_row_wins_whatever_its_fault(self, tmp_path, first, later, message):
        # Two bad rows of one section: the earlier one is named.  Nodes 18 and
        # 19 of the disk are interior, and 40 is past its last node.
        path, numbers = self.corrupted(tmp_path, {first[:2]: first[2], later[:2]: later[2]})
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert str(err.value) == f"line {numbers[first[:2]]}: {message}"
        assert err.value.line == numbers[first[:2]]

    @staticmethod
    def edited(tmp_path, edit):
        """Save the P1 disk of radius 1 at h = 0.4 (37 nodes, 18 on the
        boundary), replace its lines by ``edit(lines)`` and return the path."""
        mesh = generate_disk_mesh(1.0, 0.4)
        assert (mesh.n_nodes, mesh.n_boundary) == (37, 18)
        path = tmp_path / "edited.bsm"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bsm 1 1 1 37 18"
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    @pytest.mark.parametrize("edit, line, message", [
        (lambda lines: ["# only a comment", ""], 1, "empty file"),
        (lambda lines: ["mesh 1 1 1 37 18"] + lines[1:], 1,
         "expected header 'bsm 1 <m> <k> <N> <N_Gamma>'"),
        (lambda lines: ["bsm 2 1 1 37 18"] + lines[1:], 1, "unsupported format version 2"),
        (lambda lines: ["bsm 1 3 1 37 18"] + lines[1:], 1,
         "unsupported dimension/degree m=3 k=1"),
        (lambda lines: lines[:1] + ["0 0"] + lines[1:], 2, "data before first section header"),
        (lambda lines: lines + ["NODES", "0 0"], 114, "duplicate section NODES"),
        (lambda lines: lines[:lines.index("BOUNDARY")], 1, "missing section BOUNDARY"),
        (lambda lines: ["bsm 1 1 1 38 18"] + lines[1:], 3, "expected 38 node rows, found 37"),
        # Faults BulkSurfaceMesh finds, named at the header.
        (lambda lines: ["bsm 1 1 1 37 38"] + lines[1:], 1, "boundary node count out of range"),
        (lambda lines: ["bsm 1 1 1 37 19"] + lines[1:], 1,
         "boundary node 18 not used by any facet"),
    ], ids=["empty", "not-bsm", "version", "dimension", "data-first", "duplicate",
            "missing", "row-count", "n-gamma-over-n", "n-gamma-unused"])
    def test_bad_structure_reports_its_line(self, tmp_path, edit, line, message):
        with pytest.raises(MeshFormatError) as err:
            load_mesh(self.edited(tmp_path, edit))
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.line == line

    @staticmethod
    def row_copies(section, row, copies):
        """An edit that leaves ``copies`` (0 or 2) of a section's data row."""
        def edit(lines):
            index = lines.index(section) + 1 + row
            return lines[:index] + lines[index:index + 1] * copies + lines[index + 1:]
        return edit

    # The disk's ELEMENTS rows start at line 41 and its BOUNDARY rows at 96.
    @pytest.mark.parametrize("section, row, copies, line, message", [
        ("BOUNDARY", 3, 2, 99, "facet 3 is listed more than once"),
        ("BOUNDARY", 3, 0, 70, "element 29: a boundary face has no facet"),
        # The hole's faces are boundary faces without facets.
        ("ELEMENTS", 30, 0, 50, "element 9: a boundary face has no facet"),
        ("ELEMENTS", 30, 2, 50, "element 9: a face is shared by more than two elements"),
    ], ids=["repeated-facet", "missing-facet", "missing-element", "repeated-element"])
    def test_facets_are_the_boundary_faces_once(self, tmp_path, section, row, copies,
                                                line, message):
        with pytest.raises(MeshFormatError) as err:
            load_mesh(self.edited(tmp_path, self.row_copies(section, row, copies)))
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.line == line

    def test_tangled_element_is_a_format_error(self, tmp_path, capsys):
        # The centre node (18) moved outside the disk inverts element 0,
        # whose row is line 41: a bad input file, exit 2 in the CLI.
        def edit(lines):
            lines[lines.index("NODES") + 1 + 18] = "0.9 0"
            return lines

        path = self.edited(tmp_path, edit)
        message = "line 41: element 0: Jacobian determinant not positive at a quadrature point"
        with pytest.raises(MeshFormatError, match=re.escape(message)):
            load_mesh(path)
        assert main(["mesh", "info", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_python_number_syntax_still_loads(self, tmp_path):
        # numpy rejects non-ASCII digits, which float() and int() accept;
        # the row-by-row parse reads them.
        mesh = generate_disk_mesh(1.0, 0.4)
        a, b, c = mesh.bulk_elements[0]
        arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
        x, y = (repr(float(v)).translate(arabic) for v in mesh.node_positions[0])
        path, _ = self.corrupted(tmp_path, {
            ("ELEMENTS", 0): f"{a} {b} {str(c).translate(arabic)}",
            ("NODES", 0): f"{x} {y}",
        })
        loaded = load_mesh(path)
        assert np.array_equal(loaded.bulk_elements, mesh.bulk_elements)
        assert np.array_equal(loaded.node_positions, mesh.node_positions)

    @pytest.mark.parametrize("case", [
        "p1_disk_not_an_edge", "p2_disk_foreign_midpoint", "p1_ball_not_a_face",
    ])
    def test_trace_incompatible_facet(self, tmp_path, case):
        not_a_face = "is not a boundary face of exactly one bulk element"
        if case == "p1_disk_not_an_edge":
            mesh = generate_disk_mesh(1.0, 0.4)
            facets = mesh.boundary_elements.copy()
            # Two boundary nodes that are not an element edge.
            facets[-1] = (0, 2)
            bad, problem = len(facets) - 1, not_a_face
        elif case == "p2_disk_foreign_midpoint":
            mesh = generate_disk_mesh(1.0, 0.4, degree=2)
            facets = mesh.boundary_elements.copy()
            # Facets 0 and -1 swap midpoints: corners match, node sets do not.
            facets[[0, -1], 2] = facets[[-1, 0], 2]
            bad, problem = 0, "node set does not match its parent element face"
        else:
            mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.6)
            facets = mesh.boundary_elements.copy()
            # Replace a corner by the boundary node farthest from the first one.
            pos = mesh.boundary_positions
            facets[-1, 2] = np.argmax(np.linalg.norm(pos - pos[facets[-1, 0]], axis=1))
            bad, problem = len(facets) - 1, not_a_face
        broken = with_facets(mesh, facets)
        path = tmp_path / "trace.bsm"
        save_mesh(broken, path)
        first_facet_line = path.read_text().splitlines().index("BOUNDARY") + 2
        line = first_facet_line + bad
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert str(err.value) == f"line {line}: facet {bad} {problem}"
        assert err.value.line == line
        facet_lines = first_facet_line + np.arange(len(facets))
        with pytest.raises(MeshFormatError) as ref:
            reference_trace_check(broken, facet_lines)
        assert str(ref.value) == str(err.value)


class TestProjectors:
    def test_ellipsoid_projector_lands_on_surface(self):
        radii = np.array([0.5, 0.5, 1.0])
        proj = ellipsoid_projector(radii)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        out = proj(pts)
        level = ((out / radii) ** 2).sum(axis=1)
        assert np.allclose(level, 1.0, atol=1e-13)

    def test_circle_projector(self):
        proj = ellipsoid_projector((2.0, 2.0))
        out = proj(np.array([[3.0, 4.0]]))
        assert np.allclose(np.linalg.norm(out, axis=1), 2.0)

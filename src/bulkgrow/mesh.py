"""Bulk-surface simplicial meshes with boundary-first node ordering.

A mesh couples a simplicial bulk triangulation (triangles for a 2d bulk,
tetrahedra for 3d) with the triangulation of its boundary (segments /
triangles).  Boundary nodes are stored first so that the first ``n_boundary``
entries of any nodal vector are the trace of the corresponding bulk field.
Isoparametric degree 2 is supported by inserting edge midpoints; boundary
midpoints may be projected onto the exact surface.  Faces come from
``refelem.FACE_NODES``; face and edge lookups match node-index rows as sets.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
import io
import math

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, MeshFormatError, ResourceError, ValidationError
from .refelem import (
    EDGE_VERTICES,
    FACE_NODES,
    determinant,
    gram,
    nodes_per_element,
    reference_element,
)
from .sparsela import Dissection, nested_dissection

# Hard cap on generated node counts (memory budget guard).
MAX_GENERATED_NODES = 4_000_000

# Node count from which a 2d mesh is factored in nested dissection, not
# minimum degree.  Measured on P2 unit disks, one thread, best of 5, minimum
# degree -> nested dissection (ordering, 0.14 / 0.26 / 0.44 s, included):
#   N        sweep level, both modes   float32 L + A_II, 300 applies each
#   30,301   1.35 -> 1.36 s            4.14 -> 4.76 s
#   48,007   3.05 -> 2.65 s            9.51 -> 9.40 s
#   77,281   5.09 -> 4.55 s            14.9 -> 14.1 s
# A float64 sweep level breaks even at about 30k nodes, the time loop's
# float32 factors only at about 48k: below that A_II's solves, slower in
# this ordering, outweigh the cheaper factorizations.
_MIN_DISSECTION_NODES_2D = 50_000


@dataclass(frozen=True)
class BulkSurfaceMesh:
    """Reference bulk-surface mesh; immutable after construction.  A moved
    configuration is an (N, m+1) positions array passed next to it."""

    dim_m: int
    degree_k: int
    node_positions: np.ndarray    # (N, m+1)
    n_boundary: int
    bulk_elements: np.ndarray     # (E, nodes per simplex)
    boundary_elements: np.ndarray # (B, nodes per facet)
    mesh_size_h: float = field(init=False)  # derived in __post_init__

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.node_positions, dtype=float))
        bulk = np.ascontiguousarray(np.asarray(self.bulk_elements, dtype=np.int32))
        bnd = np.ascontiguousarray(np.asarray(self.boundary_elements, dtype=np.int32))
        object.__setattr__(self, "node_positions", pos)
        object.__setattr__(self, "bulk_elements", bulk)
        object.__setattr__(self, "boundary_elements", bnd)
        if self.dim_m not in (1, 2):
            raise ValidationError(f"boundary dimension m must be 1 or 2, got {self.dim_m}")
        if pos.ndim != 2 or pos.shape[1] != self.dim_m + 1:
            raise ValidationError("node_positions must have shape (N, m+1)")
        if bulk.shape[1] != nodes_per_element(self.dim_m + 1, self.degree_k):
            raise ValidationError("bulk connectivity width does not match degree")
        if bnd.shape[1] != nodes_per_element(self.dim_m, self.degree_k):
            raise ValidationError("boundary connectivity width does not match degree")
        n = pos.shape[0]
        if not (0 < self.n_boundary <= n):
            raise ValidationError("boundary node count out of range")
        if bulk.min() < 0 or bulk.max() >= n:
            raise ValidationError("bulk connectivity index out of range")
        if bnd.size == 0:
            raise ValidationError("boundary triangulation is empty")
        if bnd.min() < 0:
            raise ValidationError("boundary connectivity index out of range")
        if bnd.max() >= self.n_boundary:
            raise ValidationError(
                "boundary element references interior node "
                f"{int(bnd.max())} (>= n_boundary={self.n_boundary})"
            )
        used = np.zeros(self.n_boundary, dtype=bool)
        used[bnd.ravel()] = True
        if not used.all():
            missing = int(np.flatnonzero(~used)[0])
            raise ValidationError(f"boundary node {missing} not used by any facet")
        object.__setattr__(self, "mesh_size_h", float(element_diameters(self).max()))
        for arr in (pos, bulk, bnd):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.node_positions.shape[0]

    @property
    def dim(self):
        """Ambient space dimension m+1."""
        return self.dim_m + 1

    @property
    def boundary_positions(self):
        return self.node_positions[: self.n_boundary]

    @cached_property
    def bulk_pattern(self):
        """:class:`CsrPattern` of the bulk connectivity, built on first use
        and kept: every assembler of the mesh shares it, and its nonzero
        pattern is the graph of :attr:`bulk_orderings`."""
        return CsrPattern(self.bulk_elements, self.n_nodes)

    @cached_property
    def bulk_orderings(self):
        """Fill-reducing orderings ``(bulk, interior)`` of the bulk matrices
        and of their interior block, for :class:`SpdFactor` ``perm``.

        In 3d, the :class:`Dissection` of the bulk connectivity graph at these
        positions (:func:`nested_dissection`) and its restriction to the
        interior nodes, which give the supernodal Cholesky factors; each keeps
        its symbolic analysis, so every factorization of its system on this
        mesh reuses it.  In 2d from ``_MIN_DISSECTION_NODES_2D`` nodes on,
        the same permutations as arrays, which SuperLU factors in.  Smaller 2d
        meshes get ``(None, None)``, i.e. minimum degree, which is the faster
        one there: nested dissection's fill advantage grows with the mesh, and
        on P2 disks it wins the factorization and the solves together only
        above about 50,000 nodes.  Computed on first use and kept, so every
        solver on this mesh shares it.
        """
        if self.dim == 2 and self.n_nodes < _MIN_DISSECTION_NODES_2D:
            return None, None
        pattern = self.bulk_pattern
        graph = sp.csr_matrix(
            (np.ones(pattern.nnz, dtype=bool), pattern.indices, pattern.indptr),
            shape=pattern.shape,
        )
        perm, tree = nested_dissection(graph, self.node_positions)
        ng = self.n_boundary
        if self.dim == 2:
            return perm, perm[perm >= ng] - ng
        bulk = Dissection(perm, tree)
        return bulk, bulk.restrict(ng)


class CsrPattern:
    """CSR pattern of a connectivity, with element-entry-to-slot maps.

    Element matrices of the bulk and surface mass and stiffness are
    symmetric, so only their n(n+1)/2 upper entries (local i <= j, in
    ``np.triu_indices`` order) are scattered: ``upper[e, p]`` is the slot of
    the upper-triangle position of local pair p of element e.  ``mirror``
    maps each slot to the one whose sum it takes -- itself on and above the
    diagonal, the transposed slot below -- which makes the assembled matrix
    exactly symmetric.  Both maps are int32.
    """

    def __init__(self, conn, size):
        conn = conn.astype(np.int64)
        n_loc = conn.shape[1]
        first, second = np.triu_indices(n_loc)
        a, b = conn[:, first], conn[:, second]
        keys = (np.minimum(a, b) * size + np.maximum(a, b)).ravel()
        del a, b
        upper_keys, inverse = np.unique(keys, return_inverse=True)
        del keys
        rows, cols = np.divmod(upper_keys, size)
        off = rows != cols
        full_keys = np.sort(np.concatenate([upper_keys, cols[off] * size + rows[off]]))
        self.upper = (
            np.searchsorted(full_keys, upper_keys).astype(np.int32)[inverse.ravel()]
            .reshape(len(conn), len(first))
        )
        del inverse
        rows, cols = np.divmod(full_keys, size)
        self.nnz = full_keys.size
        self.indices = cols.astype(np.int32)
        self.indptr = np.searchsorted(rows, np.arange(size + 1)).astype(np.int32)
        self.mirror = np.where(
            rows <= cols, np.arange(self.nnz), np.searchsorted(full_keys, cols * size + rows)
        ).astype(np.int32)
        self.shape = (size, size)

    def assemble(self, upper_data):
        """Exactly symmetric matrix from the (E, n(n+1)/2) upper entries."""
        sums = np.bincount(self.upper.ravel(), weights=upper_data.ravel(),
                           minlength=self.nnz)
        return sp.csr_matrix((np.take(sums, self.mirror), self.indices, self.indptr),
                             shape=self.shape)


def element_diameters(mesh):
    """Per-element diameter (max pairwise node distance), shape (E,)."""
    coords = np.take(mesh.node_positions, mesh.bulk_elements.T, axis=0)  # (n, E, d)
    n = coords.shape[0]
    longest = np.zeros(coords.shape[1])
    for i in range(n):
        for j in range(i + 1, n):
            diff = coords[i] - coords[j]
            np.maximum(longest, (diff ** 2).sum(axis=-1), out=longest)
    return np.sqrt(longest)


def _jacobians(ref, conn, positions):
    """Component-major Jacobians of the elements ``conn`` of reference
    element ``ref``: one batched GEMM of the (r*q, n) reference gradients,
    rows ordered (r, q), with the (D, n, E) element coordinates gives each
    entry J[D][r] = dx_D / dxi_r as a contiguous (n_qp, E) array.  Returns
    the (n_qp, E, D, r) view whose ``[..., D, r]`` is that array."""
    n_qp, n_loc, r = ref.grad.shape
    gref = ref.grad.transpose(2, 0, 1).reshape(r * n_qp, n_loc)
    coords = np.take(np.asarray(positions).T, conn.T, axis=1)
    dim = coords.shape[0]
    return np.matmul(gref, coords).reshape(dim, r, n_qp, -1).transpose(2, 3, 0, 1)


def bulk_jacobians(mesh, positions=None):
    """Geometry Jacobians at the bulk quadrature points, component-major:
    the (n_qp, E, d, d) view of :func:`_jacobians`, which
    :func:`refelem.adjugate_det` and :func:`refelem.determinant` take as a
    batch of matrices.  The one Jacobian kernel of bulk elements: assembly,
    the orientation check and the element measures share it.
    """
    pos = mesh.node_positions if positions is None else positions
    return _jacobians(reference_element(mesh.dim, mesh.degree_k), mesh.bulk_elements, pos)


def boundary_jacobians(mesh, positions=None):
    """Geometry Jacobians at the facet quadrature points, component-major:
    the (n_qp, B, m+1, m) view of :func:`_jacobians`.  The one Jacobian
    kernel of facets: the surface assembly and the facet measures share it.
    """
    pos = mesh.node_positions if positions is None else positions
    return _jacobians(
        reference_element(mesh.dim_m, mesh.degree_k), mesh.boundary_elements, pos
    )


def check_orientation(mesh, positions=None):
    """Raise GeometryError if any element has a non-positive Jacobian."""
    det = determinant(bulk_jacobians(mesh, positions))
    bad = np.flatnonzero((det <= 0.0).any(axis=0))
    if bad.size:
        raise GeometryError(
            "non-positive Jacobian determinant at a quadrature point",
            element=int(bad[0]),
        )


def bulk_element_measures(mesh, positions=None):
    """Measure of each bulk element via quadrature, shape (E,)."""
    ref = reference_element(mesh.dim, mesh.degree_k)
    return ref.quad_weights @ determinant(bulk_jacobians(mesh, positions))


def boundary_element_measures(mesh, positions=None):
    """Measure of each boundary facet via quadrature, shape (B,)."""
    ref = reference_element(mesh.dim_m, mesh.degree_k)
    metric = gram(boundary_jacobians(mesh, positions))
    return ref.quad_weights @ np.sqrt(determinant(metric))


def quality_report(mesh):
    """Measured mesh diagnostics as a plain dict."""
    diams = element_diameters(mesh)
    return {
        "n_nodes": mesh.n_nodes,
        "n_boundary": mesh.n_boundary,
        "n_bulk_elements": int(mesh.bulk_elements.shape[0]),
        "n_boundary_elements": int(mesh.boundary_elements.shape[0]),
        "mesh_size_h": float(diams.max()),
        "min_diameter": float(diams.min()),
        "quasi_uniformity_ratio": float(diams.max() / diams.min()),
        "bulk_measure": float(bulk_element_measures(mesh).sum()),
        "boundary_measure": float(boundary_element_measures(mesh).sum()),
    }


def _corner_set_ids(rows, n_nodes):
    """Dense ids of node-index rows compared as sets, numbered like
    ``np.unique(np.sort(rows, axis=1), axis=0)``.  Columns are folded in as
    int64 keys ``id * n_nodes + index`` < max(len(rows), n_nodes) * n_nodes."""
    rows = np.sort(rows, axis=1).astype(np.int64)
    ids = rows[:, 0]
    for column in rows.T[1:]:
        _, ids = np.unique(ids * n_nodes + column, return_inverse=True)
    return ids


def _validate_trace_compatibility(mesh, facet_lines=None):
    """Every boundary facet must coincide with a boundary face of a bulk element."""
    d = mesh.dim
    facets = mesh.boundary_elements
    width = facets.shape[1]
    faces = mesh.bulk_elements[:, FACE_NODES[d][:, :width]].reshape(-1, width)
    ids = _corner_set_ids(np.concatenate([faces[:, :d], facets[:, :d]]), mesh.n_nodes)
    face_ids, facet_ids = ids[: len(faces)], ids[len(faces):]
    count = np.bincount(face_ids, minlength=ids.max() + 1)[facet_ids]
    parent = np.zeros(ids.max() + 1, dtype=np.int64)
    parent[face_ids] = np.arange(len(faces))
    same_nodes = (
        np.sort(facets, axis=1) == np.sort(faces[parent[facet_ids]], axis=1)
    ).all(axis=1)
    bad = np.flatnonzero((count != 1) | ~same_nodes)
    if bad.size:
        b = int(bad[0])
        problem = (
            "is not a boundary face of exactly one bulk element" if count[b] != 1
            else "node set does not match its parent element face"
        )
        raise MeshFormatError(
            f"facet {b} {problem}",
            line=None if facet_lines is None else int(facet_lines[b]),
        )


def validate_mesh(mesh, facet_lines=None):
    """Full validation: trace compatibility (a bad facet's error carries its
    ``facet_lines`` entry), orientation and, for degree 2, midpoint sanity."""
    _validate_trace_compatibility(mesh, facet_lines)
    check_orientation(mesh)
    if mesh.degree_k == 2:
        _check_midpoint_sanity(mesh)
    return mesh


def _check_midpoint_sanity(mesh):
    """Midpoint nodes must stay near their edge chords (guards slot mixups)."""
    d = mesh.dim
    conn = mesh.bulk_elements
    pos = mesh.node_positions
    for s, (a, b) in enumerate(EDGE_VERTICES[d]):
        pa, pb = pos[conn[:, a]], pos[conn[:, b]]
        mid = pos[conn[:, d + 1 + s]]
        edge_len = np.linalg.norm(pb - pa, axis=1)
        dev = np.linalg.norm(mid - (pa + pb) / 2.0, axis=1)
        bad = np.flatnonzero(dev > 0.3 * edge_len)
        if bad.size:
            raise GeometryError(
                f"midpoint node deviates more than 0.3 edge lengths on edge slot {s}",
                element=int(bad[0]),
            )


# ---------------------------------------------------------------------------
# Surface projectors
# ---------------------------------------------------------------------------

def ellipsoid_projector(radii):
    """Radial projection onto the ellipsoid with the given semi-axes.

    Points are scaled along the ray through the origin until they satisfy
    sum((x_i / r_i)^2) = 1.  For equal radii this is projection onto the
    sphere.
    """
    radii = np.asarray(radii, dtype=float)

    def project(points):
        pts = np.atleast_2d(points)
        level = np.sqrt(((pts / radii) ** 2).sum(axis=1))
        return pts / level[:, None]

    return project


def circle_projector(radius):
    """Radial projection onto the circle (m=1) of the given radius."""
    return ellipsoid_projector(np.full(2, float(radius)))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_disk_mesh(radius, target_h, degree=1):
    """Triangulate the disk of the given radius (m=1 geometry).

    Uses a hexagonal ring pattern: ring j carries 6j equally spaced nodes at
    radius j*radius/M, which yields near-equilateral triangles and an exactly
    resolved circular boundary.  Boundary nodes come first, ordered by angle.

    Parameters
    ----------
    radius : float
        Disk radius, > 0.
    target_h : float
        Requested mesh size; the generated mesh satisfies h <= 1.5 * target_h.
    degree : int
        Isoparametric degree (1 or 2).  Degree 2 projects boundary edge
        midpoints onto the circle.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    if not (0 < target_h < radius):
        raise ValidationError("target_h must lie in (0, radius)")
    rings = max(1, math.ceil(radius / target_h))
    n_estimate = (1 + 3 * rings * (rings + 1)) * (4 if degree == 2 else 1)
    if n_estimate > MAX_GENERATED_NODES:
        raise ResourceError(
            f"target_h={target_h} would create ~{n_estimate} nodes "
            f"(cap {MAX_GENERATED_NODES})"
        )

    # Natural numbering: the centre is 0, ring j holds nodes 1 + 3j(j-1) + p
    # for p in [0, 6j) at angles 2 pi p / 6j; the renumbering below moves the
    # outer ring to the front.
    def node(j, p):
        return np.where(j == 0, 0, 1 + 3 * j * (j - 1) + p % np.maximum(6 * j, 1))

    n_nodes = 1 + 3 * rings * (rings + 1)
    ring = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    p = np.arange(n_nodes - 1) - 3 * ring * (ring - 1)
    theta = 2.0 * np.pi * p / (6 * ring)
    r = radius * ring / rings
    pos = np.zeros((n_nodes, 2))
    pos[1:, 0] = r * np.cos(theta)
    pos[1:, 1] = r * np.sin(theta)

    # Sector s of ring j is a strip of 2j - 1 triangles between rings j and
    # j - 1: slot t is an outward triangle (o0, o1, i0) for even t and an
    # inward one (o1, i1, i0) for odd t, with p = t // 2.
    slots = 6 * (2 * np.arange(1, rings + 1) - 1)
    j = np.repeat(np.arange(1, rings + 1), slots)
    local = np.arange(j.size) - np.repeat(np.cumsum(slots) - slots, slots)
    s, t = np.divmod(local, 2 * j - 1)
    p, inward = np.divmod(t, 2)
    o0, o1 = node(j, s * j + p), node(j, s * j + p + 1)
    i0, i1 = node(j - 1, s * (j - 1) + p), node(j - 1, s * (j - 1) + p + 1)
    tris = np.where(inward[:, None] == 1, np.stack([o1, i1, i0], 1),
                    np.stack([o0, o1, i0], 1))
    p = np.arange(6 * rings)
    segments = np.stack([node(rings, p), node(rings, p + 1)], 1)

    mesh = _renumber_boundary_first(dim_m=1, positions=pos, bulk=tris, boundary=segments)
    validate_mesh(mesh)
    if degree == 2:
        mesh = elevate_to_quadratic(mesh, circle_projector(radius))
    return mesh


def generate_ball_mesh(radii, target_h, degree=1):
    """Tetrahedralize the ellipsoid with the given semi-axes (m=2 geometry).

    The unit cube is split into Kuhn tetrahedra on a grid whose per-axis
    resolution is proportional to the corresponding semi-axis, mapped onto the
    unit ball by scaling each ray so cube shells land on spheres, and finally
    stretched onto the ellipsoid.  Boundary facet nodes lie exactly on the
    ellipsoid.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0:
        radii = np.full(3, float(radii))
    if radii.shape != (3,) or (radii <= 0).any():
        raise ValidationError("radii must be three positive lengths")
    if target_h <= 0:
        raise ValidationError("target_h must be positive")
    # Kuhn tets have diameter sqrt(3) * cell size; compensate anisotropy so
    # the scaled elements stay near-isotropic.
    subdiv = np.maximum(
        2, np.ceil(2.0 * math.sqrt(3.0) * radii / target_h).astype(int)
    )
    n_estimate = int(np.prod(subdiv + 1)) * (8 if degree == 2 else 1)
    if n_estimate > MAX_GENERATED_NODES:
        raise ResourceError(
            f"target_h={target_h} would create ~{n_estimate} nodes "
            f"(cap {MAX_GENERATED_NODES})"
        )
    return _ball_mesh_from_subdivisions(subdiv, radii, degree)


def _ball_mesh_from_subdivisions(subdiv, radii, degree):
    nx, ny, nz = (int(s) for s in subdiv)
    axes = [np.linspace(-1.0, 1.0, n + 1) for n in (nx, ny, nz)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    # Kuhn/Freudenthal split: six tets per cell, all sharing the main diagonal;
    # tet p walks from the cell's base corner along the axes in order perms[p].
    perms = np.array(list(permutations(range(3))))
    steps = np.zeros((6, 4, 3), dtype=np.int64)
    steps[:, 1:] = np.cumsum(np.eye(3, dtype=np.int64)[perms], axis=1)
    dims = (nx + 1, ny + 1, nz + 1)
    base = np.ravel_multi_index(np.indices((nx, ny, nz)).reshape(3, -1), dims)
    offsets = np.ravel_multi_index(np.moveaxis(steps, -1, 0), dims)
    tets = (base[:, None, None] + offsets).reshape(-1, 4)

    # Fix orientation in the cube; the ball map preserves it.
    coords = grid[tets]
    vol6 = np.linalg.det(coords[:, 1:] - coords[:, :1])
    flip = vol6 < 0
    tets[flip, 0], tets[flip, 1] = tets[flip, 1].copy(), tets[flip, 0].copy()

    # Map cube onto the unit ball: rays are scaled so that sup-norm shells
    # become spheres; then stretch onto the ellipsoid.
    sup = np.abs(grid).max(axis=1)
    two = np.linalg.norm(grid, axis=1)
    scale = np.divide(sup, two, out=np.ones_like(sup), where=two > 0)
    points = grid * scale[:, None] * np.asarray(radii)

    # Boundary faces appear on exactly one tet; orient them outward (the
    # ellipsoid is star-shaped).
    faces = tets[:, FACE_NODES[3][:, :3]].reshape(-1, 3)
    ids = _corner_set_ids(faces, len(grid))
    boundary = faces[np.bincount(ids)[ids] == 1]
    p = points[boundary]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    outward = np.einsum("fi,fi->f", normal, p.mean(axis=1)) > 0
    boundary[~outward] = boundary[~outward][:, [0, 2, 1]]

    mesh = _renumber_boundary_first(
        dim_m=2,
        positions=points,
        bulk=tets,
        boundary=boundary,
    )
    validate_mesh(mesh)
    if degree == 2:
        mesh = elevate_to_quadratic(mesh, ellipsoid_projector(radii))
    return mesh


def _renumber_boundary_first(dim_m, positions, bulk, boundary):
    bnd_ids = np.unique(boundary.ravel())
    n = positions.shape[0]
    perm = np.empty(n, dtype=np.int64)
    is_bnd = np.zeros(n, dtype=bool)
    is_bnd[bnd_ids] = True
    perm[bnd_ids] = np.arange(bnd_ids.size)
    interior = np.flatnonzero(~is_bnd)
    perm[interior] = bnd_ids.size + np.arange(interior.size)
    new_pos = np.empty_like(positions)
    new_pos[perm] = positions
    return BulkSurfaceMesh(
        dim_m=dim_m,
        degree_k=1,
        node_positions=new_pos,
        n_boundary=int(bnd_ids.size),
        bulk_elements=perm[bulk],
        boundary_elements=perm[boundary],
    )


# ---------------------------------------------------------------------------
# Degree elevation
# ---------------------------------------------------------------------------

def elevate_to_quadratic(mesh, surface_projector=None):
    """Insert edge midpoints, turning a degree-1 mesh into degree 2.

    Boundary-edge midpoints are mapped by ``surface_projector`` (if given) so
    the curved boundary interpolates the exact surface; interior midpoints
    stay on the straight edge.  New boundary midpoints are appended to the
    boundary-first block.
    """
    if mesh.degree_k != 1:
        raise ValidationError("input mesh must have degree 1")
    d = mesh.dim
    edge_slots = EDGE_VERTICES[d]

    # Edge ids number the sorted unique vertex pairs; boundary pairs join them.
    pairs = np.concatenate([mesh.bulk_elements[:, list(e)] for e in edge_slots])
    bnd_pairs = np.concatenate(
        [mesh.boundary_elements[:, list(e)] for e in EDGE_VERTICES[mesh.dim_m]]
    )
    ids = _corner_set_ids(np.concatenate([pairs, bnd_pairs]), mesh.n_nodes)
    inverse, bnd_edge_ids = ids[: len(pairs)], ids[len(pairs):]
    is_edge = np.bincount(inverse, minlength=ids.max() + 1) > 0
    missing = np.flatnonzero(~is_edge[bnd_edge_ids])
    if missing.size:
        raise ValidationError(
            f"facet {missing[0] % len(mesh.boundary_elements)} has an edge that "
            "is not a bulk element edge"
        )
    edges = np.empty((int(inverse.max()) + 1, 2), dtype=np.int64)
    edges[inverse] = np.sort(pairs, axis=1)
    inverse = inverse.reshape(len(edge_slots), -1)  # [slot, element] -> edge id
    is_bnd_edge = np.zeros(len(edges), dtype=bool)
    is_bnd_edge[bnd_edge_ids] = True

    mids = mesh.node_positions[edges].mean(axis=1)
    if surface_projector is not None and is_bnd_edge.any():
        straight = mids[is_bnd_edge]
        projected = surface_projector(straight)
        edge_vecs = (
            mesh.node_positions[edges[is_bnd_edge, 1]]
            - mesh.node_positions[edges[is_bnd_edge, 0]]
        )
        moved = np.linalg.norm(projected - straight, axis=1)
        limit = 0.3 * np.linalg.norm(edge_vecs, axis=1)
        bad = np.flatnonzero(moved > limit)
        if bad.size:
            raise GeometryError(
                "projector moved a boundary midpoint more than 0.3 edge lengths",
                element=int(bad[0]),
            )
        mids[is_bnd_edge] = projected

    # New node numbering: old boundary, new boundary midpoints, then interior.
    n_bnd_new = int(is_bnd_edge.sum())
    old_map = np.arange(mesh.n_nodes, dtype=np.int64)
    old_map[mesh.n_boundary:] += n_bnd_new
    edge_map = np.empty(len(edges), dtype=np.int64)
    edge_map[is_bnd_edge] = mesh.n_boundary + np.arange(n_bnd_new)
    edge_map[~is_bnd_edge] = mesh.n_nodes + np.arange(n_bnd_new, len(edges))

    positions = np.empty((mesh.n_nodes + len(edges), d))
    positions[old_map] = mesh.node_positions
    positions[edge_map] = mids

    bulk = np.hstack([old_map[mesh.bulk_elements], edge_map[inverse.T]])
    # bnd_edge_ids is slot-major (all facets for slot 0, then slot 1, ...).
    bnd_mid = edge_map[bnd_edge_ids].reshape(len(EDGE_VERTICES[mesh.dim_m]), -1).T
    boundary = np.hstack([old_map[mesh.boundary_elements], bnd_mid])

    out = BulkSurfaceMesh(
        dim_m=mesh.dim_m,
        degree_k=2,
        node_positions=positions,
        n_boundary=mesh.n_boundary + n_bnd_new,
        bulk_elements=bulk,
        boundary_elements=boundary,
    )
    return validate_mesh(out)


# ---------------------------------------------------------------------------
# .bsm file format
# ---------------------------------------------------------------------------

def write_rows(fh, rows, fmt):
    """Write one ``fmt % row`` line per row of a 1d or 2d array.

    The whole block is formatted by one ``%`` over a repeated line format
    and the flat ``tolist()`` values, which gives the same text as one
    ``%`` per row at about half the cost.
    """
    rows = np.asarray(rows)
    fh.write(((fmt + "\n") * len(rows)) % tuple(rows.ravel().tolist()))


def save_mesh(mesh, path):
    """Write a mesh in the ASCII ``.bsm`` format (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"bsm 1 {mesh.dim_m} {mesh.degree_k} {mesh.n_nodes} {mesh.n_boundary}\n")
        fh.write("NODES\n")
        write_rows(fh, mesh.node_positions, " ".join(["%.17g"] * mesh.dim))
        for name, conn in (("ELEMENTS", mesh.bulk_elements),
                           ("BOUNDARY", mesh.boundary_elements)):
            fh.write(f"{name}\n")
            write_rows(fh, conn, " ".join(["%d"] * conn.shape[1]))


def _parse_block(entries, width, dtype):
    """The rows of one section as an (n, width) array, parsed by one numpy
    call; None if any row is malformed, for the row-by-row parse to find
    the first bad line.  numpy accepts a subset of what ``float``/``int``
    accept, with the same values."""
    block = io.StringIO("\n".join(text for _, text in entries))
    try:
        out = np.loadtxt(block, dtype=dtype, ndmin=2, comments=None)
    except ValueError:
        return None
    return out if out.shape == (len(entries), width) else None


def load_mesh(path):
    """Read a ``.bsm`` file, validating structure and mesh invariants."""
    with open(path) as fh:
        raw = fh.readlines()
    payloads = (line.split("#", 1)[0].strip() for line in raw)
    rows = [(lineno, text) for lineno, text in enumerate(payloads, start=1) if text]
    if not rows:
        raise MeshFormatError("empty file", line=1)

    header_line, header = rows[0]
    parts = header.split()
    if len(parts) != 6 or parts[0] != "bsm":
        raise MeshFormatError("expected header 'bsm 1 <m> <k> <N> <N_Gamma>'", line=header_line)
    try:
        version, m, k, n_nodes, n_bnd = (int(p) for p in parts[1:])
    except ValueError:
        raise MeshFormatError("non-integer header field", line=header_line) from None
    if version != 1:
        raise MeshFormatError(f"unsupported format version {version}", line=header_line)
    if m not in (1, 2) or k not in (1, 2):
        raise MeshFormatError(f"unsupported dimension/degree m={m} k={k}", line=header_line)

    names = ("NODES", "ELEMENTS", "BOUNDARY")
    heads = [i for i, (_, text) in enumerate(rows) if text in names] + [len(rows)]
    if len(rows) > 1 and heads[0] != 1:
        raise MeshFormatError("data before first section header", line=rows[1][0])
    sections = {}
    for start, end in zip(heads, heads[1:]):
        lineno, name = rows[start]
        if name in sections:
            raise MeshFormatError(f"duplicate section {name}", line=lineno)
        sections[name] = rows[start + 1:end]
    for name in names:
        if name not in sections:
            raise MeshFormatError(f"missing section {name}", line=header_line)
        if not sections[name]:
            raise MeshFormatError(f"empty {name} section", line=header_line)

    dim = m + 1
    if len(sections["NODES"]) != n_nodes:
        raise MeshFormatError(
            f"expected {n_nodes} node rows, found {len(sections['NODES'])}",
            line=sections["NODES"][0][0],
        )
    positions = _parse_block(sections["NODES"], dim, float)
    if positions is None:
        positions = np.empty((n_nodes, dim))
        for i, (lineno, text) in enumerate(sections["NODES"]):
            fields = text.split()
            if len(fields) != dim:
                raise MeshFormatError(f"expected {dim} coordinates", line=lineno)
            try:
                positions[i] = [float(f) for f in fields]
            except ValueError:
                raise MeshFormatError("non-numeric coordinate", line=lineno) from None

    def parse_conn(name, width):
        entries = sections[name]
        lines = np.array([lineno for lineno, _ in entries], dtype=np.int64)
        out = _parse_block(entries, width, np.int64)
        if out is None:
            out = np.empty((len(entries), width), dtype=np.int64)
            for i, (lineno, text) in enumerate(entries):
                fields = text.split()
                if len(fields) != width:
                    raise MeshFormatError(
                        f"expected {width} node indices in {name} row", line=lineno
                    )
                try:
                    out[i] = [int(f) for f in fields]
                except ValueError:
                    raise MeshFormatError(
                        "non-integer connectivity entry", line=lineno
                    ) from None
                if out[i].min() < 0 or out[i].max() >= n_nodes:
                    raise MeshFormatError("node index out of range", line=lineno)
        bad = np.flatnonzero((out < 0).any(axis=1) | (out >= n_nodes).any(axis=1))
        if bad.size:
            raise MeshFormatError("node index out of range", line=int(lines[bad[0]]))
        return out, lines

    bulk, _ = parse_conn("ELEMENTS", nodes_per_element(dim, k))
    boundary, bnd_lines = parse_conn("BOUNDARY", nodes_per_element(m, k))

    bad = np.flatnonzero((boundary >= n_bnd).any(axis=1))
    if bad.size:
        raise MeshFormatError(
            "facet references a non-boundary node (ordering must be boundary-first)",
            line=int(bnd_lines[bad[0]]),
        )
    try:
        mesh = BulkSurfaceMesh(
            dim_m=m,
            degree_k=k,
            node_positions=positions,
            n_boundary=n_bnd,
            bulk_elements=bulk,
            boundary_elements=boundary,
        )
    except ValidationError as exc:
        raise MeshFormatError(str(exc), line=header_line) from None
    return validate_mesh(mesh, bnd_lines)

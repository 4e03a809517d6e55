"""Finite element assembly of the bulk-surface system matrices and loads.

All matrices are assembled by reference-element quadrature with rules exact
for degree-2k integrands on affine elements.  Surface quantities (tangential
gradients, facet measures) are computed from the facet's own reference map,
never through bulk element traces.  Assembly is vectorized over elements and
deterministic: element contributions are reduced into a precomputed CSR
pattern in a fixed order.

The bulk kernel is component-major (Cuvelier, Japhet & Scarella, BIT Numer.
Math. 56 (2016)): one GEMM gives each Jacobian entry as a (q, E) array, from
which the adjugate, the determinant and the d(d+1)/2 metric entries are
formed entrywise.  Mass and stiffness (bulk and surface) scatter only the
n(n+1)/2 upper entries of each element matrix and mirror the sums through a
transpose map of the pattern, so they are exactly symmetric.

The matrices of a time step need no sparse algebra: the bulk pattern
contains the embedded surface pattern, so the Robin matrix L is a
scatter-add into a copy of A's data, the blocks A_II and A_IB are gathers
of it, and the surface pencil is one combination of two data arrays
(:class:`StepLayout`, :meth:`SystemMatrices.surface_pencil`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, ValidationError
from .mesh import BulkSurfaceMesh, bulk_jacobians
from .refelem import adjugate_det, geometry_jacobians, reference_element


@dataclass(frozen=True)
class SystemMatrices:
    """Mass/stiffness matrices of one mesh configuration.

    The bulk matrices are N x N, the surface matrices N_Gamma x N_Gamma, and
    ``tangrad`` holds the component blocks D_l of the tangential gradient
    matrix, D_l[i, j] = integral of psi_i * (tangential grad psi_j)_l.
    ``surface`` is the facet geometry the surface matrices were built from,
    kept for the curvature loads of the same configuration.  ``layout``
    locates the step matrices in the bulk pattern; it is shared by every
    configuration of one :class:`Assembler`.
    """

    mass_bulk: sp.csr_matrix
    stiff_bulk: sp.csr_matrix
    mass_surf: sp.csr_matrix
    stiff_surf: sp.csr_matrix
    tangrad: tuple
    n_boundary: int
    surface: "SurfaceGeometry"
    layout: "StepLayout"

    @property
    def n_nodes(self):
        return self.mass_bulk.shape[0]

    def stiffness_blocks(self):
        """(A_II, A_IB): the interior block of the bulk stiffness and its
        interior-boundary coupling, gathered from its data."""
        data = self.stiff_bulk.data
        return tuple(
            sp.csr_matrix((np.take(data, slots), indices, indptr), shape=shape)
            for slots, indices, indptr, shape in self.layout.blocks
        )

    def surface_pencil(self, a, b):
        """a M_Gamma + b A_Gamma: one combination of the two data arrays on
        their shared surface pattern."""
        m = self.mass_surf
        return sp.csr_matrix(
            (a * m.data + b * self.stiff_surf.data, m.indices, m.indptr), shape=m.shape
        )


def assemble_L(matrices, alpha, mu=0.0):
    """System matrix of the generalized Robin problem.

    L = A_bulk + mu * A_surf (embedded) + alpha * M_surf (embedded); symmetric
    positive definite for alpha > 0.  The surface pattern sits inside the
    bulk one, so L is a copy of A_bulk's data with the surface combination
    added at its slots.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be positive for an SPD Robin system")
    if mu < 0:
        raise ValidationError("mu must be nonnegative")
    surf = alpha * matrices.mass_surf.data
    if mu != 0.0:
        surf = surf + mu * matrices.stiff_surf.data
    a = matrices.stiff_bulk
    data = a.data.copy()
    data[matrices.layout.surface_slots] += surf
    return sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)


class _Pattern:
    """CSR pattern of a connectivity, with element-entry-to-slot maps.

    Element matrices of the bulk and surface mass and stiffness are
    symmetric, so only their n(n+1)/2 upper entries (local i <= j, in
    ``np.triu_indices`` order) are scattered: ``upper[e, p]`` is the slot of
    the upper-triangle position of local pair p of element e.  ``mirror``
    maps each slot to the one whose sum it takes -- itself on and above the
    diagonal, the transposed slot below -- which makes the assembled matrix
    exactly symmetric.  With ``full``, ``slot[e, i, j]`` also maps every
    entry, for the unsymmetric tangential-gradient blocks.  All maps are
    int32.
    """

    def __init__(self, conn, size, full=False):
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
        if full:
            entry_keys = conn[:, :, None] * size + conn[:, None, :]
            self.slot = np.searchsorted(full_keys, entry_keys).astype(np.int32)
        self.shape = (size, size)

    def _matrix(self, data):
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def assemble(self, upper_data):
        """Exactly symmetric matrix from the (E, n(n+1)/2) upper entries."""
        sums = np.bincount(self.upper.ravel(), weights=upper_data.ravel(),
                           minlength=self.nnz)
        return self._matrix(np.take(sums, self.mirror))

    def assemble_full(self, element_data):
        """Matrix from the (E, n, n) element matrices (needs ``full``)."""
        return self._matrix(
            np.bincount(self.slot.ravel(), weights=element_data.ravel(), minlength=self.nnz)
        )


class StepLayout:
    """Where the step matrices sit in the bulk CSR pattern.

    Boundary nodes come first and every facet is a face of a bulk element,
    so the bulk pattern contains the embedded surface pattern.  The Robin
    matrix is then a scatter-add at ``surface_slots``, and the interior
    block A_II and the coupling A_IB are gathers of the stiffness data
    (``blocks``: slot list, indices, indptr and shape of each).  Each map is
    int32, built on first use -- only the time loop and the stability
    sweeps need them -- and kept for every configuration of the mesh.
    """

    def __init__(self, bulk, surface, n_boundary):
        # Only the index arrays, which the matrices share anyway: a layout
        # does not keep its assembler's element maps alive.
        self._bulk = (bulk.indptr, bulk.indices)
        self._surface = (surface.indptr, surface.indices)
        self.n_boundary = n_boundary

    @cached_property
    def surface_slots(self):
        """Bulk slot of each surface-pattern entry."""
        (indptr, indices), (s_indptr, s_indices) = self._bulk, self._surface
        n = indptr.size - 1
        bulk_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
        keys = (np.repeat(np.arange(self.n_boundary, dtype=np.int64), np.diff(s_indptr)) * n
                + s_indices)
        slots = np.minimum(np.searchsorted(bulk_keys, keys), bulk_keys.size - 1)
        if not np.array_equal(bulk_keys[slots], keys):
            raise ValidationError("surface pattern is not contained in the bulk pattern")
        return slots.astype(np.int32)

    @cached_property
    def blocks(self):
        """(slots, indices, indptr, shape) of A_II and of A_IB."""
        indptr, indices = self._bulk
        ng, n = self.n_boundary, indptr.size - 1
        slots = np.arange(indptr[ng], indptr[-1])
        rows = np.repeat(np.arange(n - ng), np.diff(indptr[ng:]))
        cols = indices[slots]
        out = []
        for mask, first_col, width in ((cols >= ng, ng, n - ng), (cols < ng, 0, ng)):
            counts = np.bincount(rows[mask], minlength=n - ng)
            out.append((
                slots[mask].astype(np.int32),
                (cols[mask] - first_col).astype(np.int32),
                np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
                (n - ng, width),
            ))
        return tuple(out)


@dataclass
class SurfaceGeometry:
    """Facet quadrature data on one configuration of the boundary."""

    conn: np.ndarray        # (B, n_loc)
    shape: np.ndarray       # (n_qp, n_loc)
    tangrad: np.ndarray     # (B, n_qp, n_loc, d) tangential shape gradients
    wmeasure: np.ndarray    # (B, n_qp) quadrature weight times area element

    def field_at_qp(self, nodal):
        """Evaluate a boundary nodal field (scalar or vector) at facet qps."""
        vals = np.asarray(nodal)[self.conn]  # (B, n_loc[, c])
        if vals.ndim == 2:
            return np.einsum("qi,ei->eq", self.shape, vals)
        return np.einsum("qi,eic->eqc", self.shape, vals)

    def tangential_gradient_at_qp(self, nodal):
        """Tangential gradient of a boundary field at qps.

        Scalar fields give (B, n_qp, d); vector fields (B, n_qp, d, c) with
        component gradients in the columns.
        """
        vals = np.asarray(nodal)[self.conn]
        if vals.ndim == 2:
            return np.einsum("eqid,ei->eqd", self.tangrad, vals)
        return np.einsum("eqid,eic->eqdc", self.tangrad, vals)


class Assembler:
    """Assembly engine bound to one mesh connectivity.

    Quadrature tables and CSR patterns are precomputed once; repeated calls
    with displaced node positions (the common case while time stepping) only
    recompute geometry-dependent data.
    """

    def __init__(self, mesh: BulkSurfaceMesh):
        self.mesh = mesh
        self.dim = mesh.dim
        self.n_boundary = mesh.n_boundary
        self._bulk_ref = reference_element(mesh.dim, mesh.degree_k)
        self._surf_ref = reference_element(mesh.dim_m, mesh.degree_k)
        self._bulk_pattern = _Pattern(mesh.bulk_elements, mesh.n_nodes)
        self._surf_pattern = _Pattern(mesh.boundary_elements, mesh.n_boundary, full=True)
        self.layout = StepLayout(self._bulk_pattern, self._surf_pattern, mesh.n_boundary)
        ref = self._bulk_ref
        d = mesh.dim
        first, second = np.triu_indices(ref.n_nodes)
        self._metric_pairs = list(zip(*np.triu_indices(d)))
        # Precontracted reference tensors of the upper element entries:
        # mass (q; p) and stiffness (s q; p), with p the local pair (i <= j)
        # and s the metric pair (a <= b), so per-element work is two GEMMs.
        w, g = ref.quad_weights, ref.grad
        self._m_upper = w[:, None] * ref.shape[:, first] * ref.shape[:, second]
        k_upper = []
        for a, b in self._metric_pairs:
            k = g[:, first, a] * g[:, second, b]
            if a != b:
                k = k + g[:, first, b] * g[:, second, a]
            k_upper.append(w[:, None] * k)
        self._k_upper = np.concatenate(k_upper)  # (s * q, p)
        sref = self._surf_ref
        # Quadrature weights live in SurfaceGeometry.wmeasure, so the shape
        # product tensor carries none.
        first, second = np.triu_indices(sref.n_nodes)
        self._surf_pairs = (first, second)
        self._shape_upper_surf = sref.shape[:, first] * sref.shape[:, second]

    # -- bulk ---------------------------------------------------------------

    def bulk_matrices(self, positions=None):
        """Assemble (mass, stiffness) on the given node positions.

        The component-major kernel gives the adjugate, the determinant and
        the metric entries c_ab = (adj adj^T)_ab / det (a <= b) as (q, E)
        arrays; the upper element entries are then two GEMMs against the
        reference tensors, scattered and mirrored by the pattern.
        """
        adj, det = adjugate_det(bulk_jacobians(self.mesh, positions))
        bad = (det <= 0.0).any(axis=0)
        if bad.any():
            raise GeometryError("singular element Jacobian",
                                element=int(np.flatnonzero(bad)[0]))
        metric = np.empty((len(self._metric_pairs),) + det.shape)
        product = np.empty_like(det)
        for entry, (a, b) in zip(metric, self._metric_pairs):
            np.multiply(adj[a][0], adj[b][0], out=entry)
            for k in range(1, self.dim):
                entry += np.multiply(adj[a][k], adj[b][k], out=product)
            entry /= det
        mass_e = det.T @ self._m_upper
        stiff_e = metric.reshape(-1, det.shape[1]).T @ self._k_upper
        return (
            self._bulk_pattern.assemble(mass_e),
            self._bulk_pattern.assemble(stiff_e),
        )

    # -- surface ------------------------------------------------------------

    def surface_geometry(self, positions=None):
        """Facet quadrature geometry (tangential gradients, measures)."""
        pos = self.mesh.node_positions if positions is None else positions
        ref = self._surf_ref
        conn = self.mesh.boundary_elements
        coords = pos[conn]  # (B, n_loc, D)
        jac = geometry_jacobians(coords, ref.grad)
        metric = np.matmul(jac.transpose(0, 1, 3, 2), jac)
        adj, det = adjugate_det(metric)
        if (det <= 0.0).any():
            bad = int(np.argwhere((det <= 0.0).any(axis=1))[0, 0])
            raise GeometryError("degenerate boundary facet", element=bad)
        inv_metric = np.empty_like(metric)
        for i, row in enumerate(adj):
            for j, entry in enumerate(row):
                inv_metric[..., i, j] = entry / det
        # tangential gradient of shape i: J G^-1 grad_ref N_i
        proj = np.matmul(jac, inv_metric)
        tangrad = np.matmul(ref.grad[None, :, :, :], proj.transpose(0, 1, 3, 2))
        wmeasure = np.sqrt(det) * ref.quad_weights[None, :]
        return SurfaceGeometry(
            conn=conn, shape=ref.shape, tangrad=tangrad, wmeasure=wmeasure
        )

    def surface_matrices(self, geometry):
        """Assemble (mass, stiffness, tangential-gradient blocks) on the boundary
        from its facet geometry."""
        mass_e = geometry.wmeasure @ self._shape_upper_surf
        stiff_e = np.einsum(
            "eq,eqiD,eqjD->eij", geometry.wmeasure, geometry.tangrad, geometry.tangrad,
            optimize=True,
        )[:, self._surf_pairs[0], self._surf_pairs[1]]
        mass = self._surf_pattern.assemble(mass_e)
        stiff = self._surf_pattern.assemble(stiff_e)
        blocks = []
        for comp in range(self.dim):
            d_e = np.einsum(
                "eq,qi,eqjD->eij",
                geometry.wmeasure, geometry.shape, geometry.tangrad[..., comp : comp + 1],
                optimize=True,
            )
            blocks.append(self._surf_pattern.assemble_full(d_e))
        return mass, stiff, tuple(blocks)

    def system(self, positions=None):
        """All matrices of one configuration as a SystemMatrices bundle."""
        mass_b, stiff_b = self.bulk_matrices(positions)
        surface = self.surface_geometry(positions)
        mass_s, stiff_s, blocks = self.surface_matrices(surface)
        return SystemMatrices(
            mass_bulk=mass_b,
            stiff_bulk=stiff_b,
            mass_surf=mass_s,
            stiff_surf=stiff_s,
            tangrad=blocks,
            n_boundary=self.n_boundary,
            surface=surface,
            layout=self.layout,
        )

    # -- curvature-dependent loads -------------------------------------------

    def weingarten_norm_sq(self, normal, geometry):
        """|A_h|^2 at facet qps from the symmetrized tangential gradient of
        the (non-normalized) discrete normal field."""
        grad = geometry.tangential_gradient_at_qp(normal)  # (B, q, d, c)
        sym = 0.5 * (grad + grad.swapaxes(2, 3))
        return np.einsum("eqdc,eqdc->eq", sym, sym)

    def curvature_forcing_nu(self, normal, beta, geometry):
        """f_nu: rows beta * |A_h|^2 (nu_h)_l tested against psi_j.

        Returns an (N_Gamma, m+1) array, one column per component.
        """
        a2 = self.weingarten_norm_sq(normal, geometry)
        nu_qp = geometry.field_at_qp(normal)  # (B, q, c)
        weight = beta * geometry.wmeasure * a2
        contrib = np.einsum("eq,eqc,qi->eic", weight, nu_qp, geometry.shape, optimize=True)
        return self._scatter_boundary(contrib, geometry.conn)

    def curvature_forcing_H(self, normal, normal_speed, geometry):
        """f_H: -|A_h|^2 V_h tested against psi_j; returns (N_Gamma,)."""
        a2 = self.weingarten_norm_sq(normal, geometry)
        v_qp = geometry.field_at_qp(normal_speed)  # (B, q)
        weight = -geometry.wmeasure * a2 * v_qp
        contrib = np.einsum("eq,qi->ei", weight, geometry.shape, optimize=True)
        return np.bincount(
            geometry.conn.ravel(), weights=contrib.ravel(), minlength=self.n_boundary
        )

    def _scatter_boundary(self, contrib, conn):
        out = np.empty((self.n_boundary, contrib.shape[2]))
        flat = conn.ravel()
        for c in range(contrib.shape[2]):
            out[:, c] = np.bincount(
                flat, weights=contrib[:, :, c].ravel(), minlength=self.n_boundary
            )
        return out


def assemble_f_u(matrices, boundary_positions, curvature, beta, source, time):
    """Load vector of the generalized Robin problem.

    f_u = -M_bulk 1 + gamma^T M_surf (beta H + Q(x, t)), with the source Q
    evaluated at the boundary nodes and treated as a finite element function
    by nodal interpolation.
    """
    n = matrices.n_nodes
    q_vals = source(boundary_positions, time)
    boundary_load = matrices.mass_surf @ (beta * np.asarray(curvature) + q_vals)
    out = -(matrices.mass_bulk @ np.ones(n))
    out[: matrices.n_boundary] += boundary_load
    return out

"""Finite element assembly of the bulk-surface system matrices and loads.

All matrices are assembled by reference-element quadrature with rules exact
for degree-2k integrands on affine elements.  Surface quantities (tangential
gradients, facet measures) are computed from the facet's own reference map,
never through bulk element traces.  Assembly is vectorized over elements and
deterministic: element contributions are reduced into a precomputed CSR
pattern in a fixed order.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, ValidationError
from .mesh import BulkSurfaceMesh
from .refelem import adjugate_det, geometry_jacobians, reference_element


@dataclass(frozen=True)
class SystemMatrices:
    """Mass/stiffness matrices of one mesh configuration.

    The bulk matrices are N x N, the surface matrices N_Gamma x N_Gamma, and
    ``tangrad`` holds the component blocks D_l of the tangential gradient
    matrix, D_l[i, j] = integral of psi_i * (tangential grad psi_j)_l.
    ``surface`` is the facet geometry the surface matrices were built from,
    kept for the curvature loads of the same configuration.
    """

    mass_bulk: sp.csr_matrix
    stiff_bulk: sp.csr_matrix
    mass_surf: sp.csr_matrix
    stiff_surf: sp.csr_matrix
    tangrad: tuple
    n_boundary: int
    surface: "SurfaceGeometry"

    @property
    def n_nodes(self):
        return self.mass_bulk.shape[0]


def embed_boundary_block(surface_matrix, n_nodes):
    """Zero-pad an N_Gamma x N_Gamma matrix to N x N (boundary block first)."""
    s = surface_matrix.tocsr()
    ng = s.shape[0]
    indptr = np.concatenate([s.indptr, np.full(n_nodes - ng, s.indptr[-1])])
    return sp.csr_matrix((s.data, s.indices, indptr), shape=(n_nodes, n_nodes))


def assemble_L(matrices, alpha, mu=0.0):
    """System matrix of the generalized Robin problem.

    L = A_bulk + mu * A_surf (embedded) + alpha * M_surf (embedded); symmetric
    positive definite for alpha > 0.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be positive for an SPD Robin system")
    if mu < 0:
        raise ValidationError("mu must be nonnegative")
    n = matrices.n_nodes
    surf = alpha * matrices.mass_surf
    if mu != 0.0:
        surf = surf + mu * matrices.stiff_surf
    return (matrices.stiff_bulk + embed_boundary_block(surf, n)).tocsr()


class _Pattern:
    """CSR pattern for a fixed connectivity, with an entry-to-slot map."""

    def __init__(self, conn, size):
        n_loc = conn.shape[1]
        rows = np.repeat(conn, n_loc, axis=1).ravel()
        cols = np.tile(conn, (1, n_loc)).ravel()
        order = np.lexsort((cols, rows))
        sr, sc = rows[order], cols[order]
        new = np.empty(len(sr), dtype=bool)
        new[0] = True
        new[1:] = (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1])
        slot_sorted = np.cumsum(new) - 1
        self.slot = np.empty(len(rows), dtype=np.int64)
        self.slot[order] = slot_sorted
        self.indices = sc[new].astype(np.int32)
        self.nnz = int(new.sum())
        counts = np.bincount(sr[new], minlength=size)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.shape = (size, size)

    def assemble(self, element_data):
        data = np.bincount(
            self.slot, weights=element_data.ravel(), minlength=self.nnz
        )
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _stiffness_metric(jac):
    """(J^-1 J^-T) det(J) = adj(J) adj(J)^T / det(J), and det(J)."""
    adj, det = adjugate_det(jac)
    d = jac.shape[-1]
    out = np.empty_like(jac)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(d):
            for j in range(i, d):
                acc = adj[i][0] * adj[j][0]
                for k in range(1, d):
                    acc += adj[i][k] * adj[j][k]
                out[..., i, j] = acc / det
                if i != j:
                    out[..., j, i] = out[..., i, j]
    return out, det


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
        self._surf_pattern = _Pattern(mesh.boundary_elements, mesh.n_boundary)
        ref = self._bulk_ref
        # Precontracted reference tensors: mass (q; i j) and stiffness
        # (q a b; i j), so that per-element work reduces to two matmuls.
        n, q, d = ref.n_nodes, ref.n_qp, mesh.dim
        self._w_mass = (ref.quad_weights[:, None, None]
                        * ref.shape[:, :, None] * ref.shape[:, None, :])
        k_ref = np.einsum("q,qia,qjb->qabij", ref.quad_weights, ref.grad, ref.grad)
        self._k_ref = k_ref.reshape(q * d * d, n * n)
        sref = self._surf_ref
        # Quadrature weights live in SurfaceGeometry.wmeasure, so the shape
        # product tensor carries none.
        self._shape_outer_surf = sref.shape[:, :, None] * sref.shape[:, None, :]

    # -- bulk ---------------------------------------------------------------

    def bulk_matrices(self, positions=None):
        """Assemble (mass, stiffness) on the given node positions."""
        pos = self.mesh.node_positions if positions is None else positions
        ref = self._bulk_ref
        conn = self.mesh.bulk_elements
        coords = pos[conn]
        # J[e, q, D, r] = dx_D / dxi_r; inv[e, q, r, D] is its inverse.
        jac = geometry_jacobians(coords, ref.grad)
        # c[a,b] = (J^-1 J^-T)[a,b] det(J); quad weights live inside k_ref
        c, det = _stiffness_metric(jac)
        if (det <= 0.0).any():
            bad = int(np.argwhere((det <= 0.0).any(axis=1))[0, 0])
            raise GeometryError("singular element Jacobian", element=bad)
        mass_e = np.tensordot(det, self._w_mass, axes=(1, 0))
        e, q = det.shape
        d, n = self.dim, ref.n_nodes
        stiff_e = (c.reshape(e, q * d * d) @ self._k_ref).reshape(e, n, n)
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
        mass_e = np.tensordot(geometry.wmeasure, self._shape_outer_surf, axes=(1, 0))
        stiff_e = np.einsum(
            "eq,eqiD,eqjD->eij", geometry.wmeasure, geometry.tangrad, geometry.tangrad,
            optimize=True,
        )
        mass = self._surf_pattern.assemble(mass_e)
        stiff = self._surf_pattern.assemble(stiff_e)
        blocks = []
        for comp in range(self.dim):
            d_e = np.einsum(
                "eq,qi,eqjD->eij",
                geometry.wmeasure, geometry.shape, geometry.tangrad[..., comp : comp + 1],
                optimize=True,
            )
            blocks.append(self._surf_pattern.assemble(d_e))
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

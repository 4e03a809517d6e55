"""Finite element assembly of the bulk-surface system matrices and loads.

All matrices are assembled by reference-element quadrature with rules exact
for degree-2k integrands on affine elements.  Surface quantities (tangential
gradients, facet measures) are computed from the facet's own reference map,
never through bulk element traces.  Assembly is vectorized over elements and
deterministic: element contributions are reduced into a precomputed CSR
pattern in a fixed order.

The bulk and facet kernels are component-major (Cuvelier, Japhet &
Scarella, BIT Numer. Math. 56 (2016)): one GEMM gives each Jacobian entry as
a (q, E) array, from which the adjugate, the determinant and the metric
entries are formed entrywise -- (adj adj^T)_ab / det of the bulk Jacobian,
w adj(G)_rs / sqrt(det G) of the facet metric G = J^T J.  The stiffness
matrices (bulk and surface) and the surface mass are then one GEMM each
against precontracted reference tensors; they scatter only the n(n+1)/2
upper entries of each element matrix and mirror the sums through a
transpose map of the pattern, so they are exactly symmetric.

The bulk kernel runs over cache-sized blocks of elements
(:func:`mesh.bulk_blocks`, whose module notes give the measured size), so E
above is the block's element count.  Each block writes its rows of the
upper entries and of the element volume loads into the full-size arrays,
which the pattern then scatters once.

The bulk enters a time step only through the stiffness and the constant
sink of the Robin load, -M 1, so the step assembles the volume load
(M 1)_i = integral phi_i -- one (n_loc, q) x (q, E) contraction of the
determinants -- and not the bulk mass matrix.  :meth:`Assembler.bulk_mass`
assembles that matrix where a norm needs it.

The tangential-gradient coupling -alpha (psi_i, (grad_Gamma u_h)_l) is not
a matrix: it is assembled as a load from the tangential gradient of u_h at
the facet quadrature points, like the curvature forcings.

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

from .errors import SourceError, ValidationError
from .mesh import (
    BulkSurfaceMesh,
    CsrPattern,
    boundary_jacobians,
    bulk_blocks,
    check_positive,
)
from .refelem import adjugate_det, gram, reference_element


@dataclass(frozen=True)
class SystemMatrices:
    """Matrices and bulk load of one mesh configuration.

    The bulk stiffness is N x N, the surface matrices N_Gamma x N_Gamma;
    ``volume_load`` is the (N,) vector of integral phi_i, the bulk mass
    matrix times the ones vector, which is all of the bulk mass a time step
    reads.
    ``surface`` is the facet geometry the surface matrices were built from,
    kept for the surface loads of the same configuration.  ``layout``
    locates the step matrices in the bulk pattern; it is shared by every
    configuration of one :class:`Assembler`.
    """

    volume_load: np.ndarray
    stiff_bulk: sp.csr_matrix
    mass_surf: sp.csr_matrix
    stiff_surf: sp.csr_matrix
    n_boundary: int
    surface: "SurfaceGeometry"
    layout: "StepLayout"

    @property
    def n_nodes(self):
        return self.volume_load.shape[0]

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
        # Only the index arrays, which the matrices share anyway.
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


def _upper_tensors(ref, weights):
    """Precontracted reference tensors of the n(n+1)/2 upper element
    entries, p the local pair (i <= j): mass (q, p) and stiffness (s q, p),
    s the metric pair (a <= b) with the off-diagonal products symmetrized,
    both times ``weights`` per quadrature point.  Per-element work is then
    one GEMM each."""
    first, second = np.triu_indices(ref.n_nodes)
    g = ref.grad
    mass = weights[:, None] * ref.shape[:, first] * ref.shape[:, second]
    stiff = []
    for a, b in zip(*np.triu_indices(ref.dim)):
        k = g[:, first, a] * g[:, second, b]
        if a != b:
            k = k + g[:, first, b] * g[:, second, a]
        stiff.append(weights[:, None] * k)
    return mass, np.concatenate(stiff)


@dataclass
class SurfaceGeometry:
    """Facet quadrature data on one configuration of the boundary.

    Component-major, like the kernel that forms it: every per-quadrature-
    point quantity is a (n_qp, B) array, and fields at quadrature points are
    (n_qp, B), or (c, n_qp, B) for c components.
    """

    nodes: np.ndarray       # (n_loc, B) facet nodes
    shape: np.ndarray       # (n_qp, n_loc) reference shape values
    grad: np.ndarray        # (m * n_qp, n_loc) reference gradients, rows (r, q)
    proj: np.ndarray        # (d, m, n_qp, B) entries of J G^-1
    coeffs: np.ndarray      # (m(m+1)/2, n_qp, B) w adj(G)_rs / sqrt(det G), r <= s
    wmeasure: np.ndarray    # (n_qp, B) quadrature weight times area element

    def _gather(self, nodal):
        """Facet values of a boundary field: (n_loc, B) or (c, n_loc, B)."""
        nodal = np.asarray(nodal)
        if nodal.ndim == 1:
            return nodal[self.nodes]
        return np.take(nodal.T, self.nodes, axis=1)

    def field_at_qp(self, nodal):
        """Evaluate a boundary nodal field (scalar or vector) at facet qps."""
        return self.shape @ self._gather(nodal)

    def tangential_gradient_at_qp(self, nodal):
        """Tangential gradient J G^-1 grad_ref of a boundary field at qps.

        Scalar fields give (d, n_qp, B); vector fields (c, d, n_qp, B), the
        gradient of component c in ``[c]``.
        """
        vals = self._gather(nodal)
        d, m, n_qp, _ = self.proj.shape
        ref = (self.grad @ vals).reshape(vals.shape[:-2] + (1, m, n_qp, -1))
        out = self.proj[:, 0] * ref[..., 0, :, :]
        for r in range(1, m):
            out += self.proj[:, r] * ref[..., r, :, :]
        return out


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
        ref = reference_element(mesh.dim, mesh.degree_k)
        sref = reference_element(mesh.dim_m, mesh.degree_k)
        self._surf_ref = sref
        self._bulk_pattern = mesh.bulk_pattern
        self._surf_pattern = CsrPattern(mesh.boundary_elements, mesh.n_boundary)
        self.layout = StepLayout(self._bulk_pattern, self._surf_pattern, mesh.n_boundary)
        self._metric_pairs = list(zip(*np.triu_indices(mesh.dim)))
        self._facet_pairs = list(zip(*np.triu_indices(mesh.dim_m)))
        self._m_upper, self._k_upper = _upper_tensors(ref, ref.quad_weights)
        self._w_shape = ref.quad_weights[:, None] * ref.shape  # (q, n_loc)
        self._bulk_nodes = np.ascontiguousarray(mesh.bulk_elements.T)
        # The facet quadrature weights live in SurfaceGeometry.wmeasure and
        # .coeffs, so the facet tensors carry unit weights.
        self._m_upper_surf, self._k_upper_surf = _upper_tensors(sref, np.ones(sref.n_qp))
        self._facet_nodes = np.ascontiguousarray(mesh.boundary_elements.T)
        self._facet_grad = sref.grad.transpose(2, 0, 1).reshape(-1, sref.n_nodes)

    # -- bulk ---------------------------------------------------------------

    def bulk_matrices(self, positions=None):
        """Assemble (volume load, stiffness) on the given node positions.

        Block by block (:func:`mesh.bulk_blocks`), the component-major
        kernel gives the adjugate, the determinant and the metric entries
        c_ab = (adj adj^T)_ab / det (a <= b) as (q, b) arrays; the block's
        rows of the upper stiffness entries are then one GEMM against the
        reference tensor, and its columns of the element volume loads
        (w shape)^T det another.  The pattern scatters and mirrors the
        stiffness once, and the loads are summed over the element nodes.
        """
        nodes = self._bulk_nodes
        load_e = np.empty(nodes.shape)  # (n_loc, E)
        stiff_e = np.empty((nodes.shape[1], self._k_upper.shape[1]))
        for rows, adj, det in bulk_blocks(self.mesh, positions, adjugate=True):
            metric = np.empty((len(self._metric_pairs),) + det.shape)
            product = np.empty_like(det)
            for entry, (a, b) in zip(metric, self._metric_pairs):
                np.multiply(adj[a][0], adj[b][0], out=entry)
                for k in range(1, self.dim):
                    entry += np.multiply(adj[a][k], adj[b][k], out=product)
                entry /= det
            np.matmul(self._w_shape.T, det, out=load_e[:, rows])
            np.matmul(metric.reshape(-1, det.shape[1]).T, self._k_upper, out=stiff_e[rows])
        load = np.bincount(nodes.ravel(), weights=load_e.ravel(), minlength=self.mesh.n_nodes)
        return load, self._bulk_pattern.assemble(stiff_e)

    def bulk_mass(self, positions=None):
        """The bulk mass matrix on the given node positions, for norms: it
        needs only the Jacobian determinants.  The time step reads only its
        row sums, the volume load of :meth:`bulk_matrices`."""
        mass_e = np.empty((self._bulk_nodes.shape[1], self._m_upper.shape[1]))
        for rows, _, det in bulk_blocks(self.mesh, positions):
            np.matmul(det.T, self._m_upper, out=mass_e[rows])
        return self._bulk_pattern.assemble(mass_e)

    # -- surface ------------------------------------------------------------

    def surface_geometry(self, positions=None):
        """Facet quadrature geometry from the component-major facet kernel.

        With the facet Jacobian J (d x m) and metric G = J^T J, the
        tangential gradient of a field is J G^-1 grad_ref, the area element
        sqrt(det G), and T_i . T_j = g_i^T G^-1 g_j for the shape gradients,
        so the stiffness needs only the entries w adj(G)_rs / sqrt(det G).
        """
        jac = boundary_jacobians(self.mesh, positions)  # (q, B, d, m)
        adj, det = adjugate_det(gram(jac))
        check_positive(det, "degenerate boundary facet")
        d, m = jac.shape[2:]
        ref = self._surf_ref
        wmeasure = ref.quad_weights[:, None] * np.sqrt(det)
        inv = [[adj[r][s] / det for s in range(m)] for r in range(m)]
        proj = np.empty((d, m) + det.shape)
        for comp in range(d):
            for r in range(m):
                entry = proj[comp, r]
                np.multiply(jac[..., comp, 0], inv[0][r], out=entry)
                for s in range(1, m):
                    entry += jac[..., comp, s] * inv[s][r]
        coeffs = np.empty((len(self._facet_pairs),) + det.shape)
        for entry, (r, s) in zip(coeffs, self._facet_pairs):
            np.multiply(wmeasure, inv[r][s], out=entry)
        return SurfaceGeometry(
            nodes=self._facet_nodes, shape=ref.shape, grad=self._facet_grad,
            proj=proj, coeffs=coeffs, wmeasure=wmeasure,
        )

    def surface_matrices(self, geometry):
        """Assemble (mass, stiffness) on the boundary from its facet
        geometry: one GEMM each against the facet reference tensors."""
        n_facets = geometry.wmeasure.shape[1]
        mass_e = geometry.wmeasure.T @ self._m_upper_surf
        stiff_e = geometry.coeffs.reshape(-1, n_facets).T @ self._k_upper_surf
        return self._surf_pattern.assemble(mass_e), self._surf_pattern.assemble(stiff_e)

    def system(self, positions=None):
        """All matrices of one configuration as a SystemMatrices bundle."""
        load, stiff_b = self.bulk_matrices(positions)
        surface = self.surface_geometry(positions)
        mass_s, stiff_s = self.surface_matrices(surface)
        return SystemMatrices(
            volume_load=load,
            stiff_bulk=stiff_b,
            mass_surf=mass_s,
            stiff_surf=stiff_s,
            n_boundary=self.n_boundary,
            surface=surface,
            layout=self.layout,
        )

    # -- surface loads --------------------------------------------------------

    def _load(self, values, geometry):
        """Load of qp values (n_qp, B), or (c, n_qp, B), that already carry
        the quadrature weights, tested against each psi_j: (N_Gamma[, c])."""
        contrib = geometry.shape.T @ values  # ([c,] n_loc, B)
        flat = geometry.nodes.ravel()
        if contrib.ndim == 2:
            return np.bincount(flat, weights=contrib.ravel(), minlength=self.n_boundary)
        out = np.empty((self.n_boundary, contrib.shape[0]))
        for c, column in enumerate(contrib):
            out[:, c] = np.bincount(flat, weights=column.ravel(), minlength=self.n_boundary)
        return out

    def tangential_gradient_load(self, nodal, geometry):
        """(N_Gamma, d) load of rows integral psi_i (tangential grad u_h)_l
        for the boundary field u_h with nodal values ``nodal``."""
        return self._load(geometry.tangential_gradient_at_qp(nodal) * geometry.wmeasure,
                          geometry)

    def weingarten_norm_sq(self, normal, geometry):
        """|A_h|^2 at facet qps, (n_qp, B), from the symmetrized tangential
        gradient of the (non-normalized) discrete normal field."""
        grad = geometry.tangential_gradient_at_qp(normal)  # (c, d, q, B)
        sym = 0.5 * (grad + grad.swapaxes(0, 1))
        return (sym * sym).sum(axis=(0, 1))

    def curvature_forcing_nu(self, normal, weingarten, beta, geometry):
        """f_nu: rows beta * |A_h|^2 (nu_h)_l tested against psi_j, with
        ``weingarten`` the |A_h|^2 of :meth:`weingarten_norm_sq`.

        Returns an (N_Gamma, m+1) array, one column per component.
        """
        nu_qp = geometry.field_at_qp(normal)  # (c, q, B)
        return self._load(nu_qp * (beta * geometry.wmeasure * weingarten), geometry)

    def curvature_forcing_H(self, weingarten, normal_speed, geometry):
        """f_H: -|A_h|^2 V_h tested against psi_j, with ``weingarten`` the
        |A_h|^2 of :meth:`weingarten_norm_sq`; returns (N_Gamma,)."""
        v_qp = geometry.field_at_qp(normal_speed)  # (q, B)
        return self._load(-geometry.wmeasure * weingarten * v_qp, geometry)


def assemble_f_u(matrices, boundary_positions, curvature, beta, source, time):
    """Load vector of the generalized Robin problem.

    f_u = -M_bulk 1 + gamma^T M_surf (beta H + Q(x, t)), with the source Q
    evaluated at the boundary nodes and treated as a finite element function
    by nodal interpolation.  M_bulk 1 is the configuration's volume load
    (integral phi_i), so no bulk mass matrix is formed.  Raises SourceError
    if a value of Q is not finite.
    """
    q_vals = source(boundary_positions, time)
    if not np.isfinite(q_vals).all():
        raise SourceError(f"source Q is not finite on the boundary at t={time:.6g}")
    boundary_load = matrices.mass_surf @ (beta * np.asarray(curvature) + q_vals)
    out = -matrices.volume_load
    out[: matrices.n_boundary] += boundary_load
    return out

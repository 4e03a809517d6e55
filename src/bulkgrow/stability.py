"""Numerical probes of the h-uniform stability of two boundary-value maps.

Two ratios are measured on refinement sequences:

* Dirichlet: the discrete harmonic extension of boundary data g, with the
  bulk H1 norm of the extension over the discrete H^(1/2) norm of g.
* Robin: the solution map of the model Robin problem (unit coefficients,
  zero bulk load), with the boundary H1 norm of the trace over the L2 norm
  of g.

Bounded ratios across refinements are the testable content of the underlying
stability estimates.  Each level reports the maximum over seeded random
boundary fields plus a power-iteration search for the worst field, which
exploits that both ratios are Rayleigh quotients of symmetric pencils.
"""

import numpy as np

from .assembly import Assembler, assemble_L
from .errors import ValidationError
from .norms import norm_h_half, surface_spectrum
from .sparsela import SpdFactor, dirichlet_extension


# Sampled fields per multi-column solve.  At N = 77,281 (2d, P2) the 20
# interior solves of a level took 0.148 s one column at a time, 0.103 s in
# blocks of 5 and 0.100 s in one block of 20, whose work arrays raised the
# sweep's peak RSS by 15-40 MB.
_FIELD_BLOCK = 5


def _energy_norms(matrix, values):
    """sqrt(v^T K v) of each column of ``values``."""
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", values, matrix @ values), 0.0))


def _per_column(ratios, g):
    """``ratios(columns)`` on one field (a float) or on the columns of a 2d
    array (an array); zero fields have ratio 0 by convention."""
    g = np.asarray(g, dtype=float)
    columns = g[:, None] if g.ndim == 1 else g
    out = np.zeros(columns.shape[1])
    nonzero = np.flatnonzero(columns.any(axis=0))
    if nonzero.size:
        out[nonzero] = ratios(columns[:, nonzero])
    return float(out[0]) if g.ndim == 1 else out


class DirichletRatio:
    """Bulk H1 norm of the zero-load Dirichlet extension over ||g||_{H^1/2}
    on one level.

    Holds what the level's ratios share, each formed once: the surface
    spectrum, the interior block A_II factored in ``interior_perm``, the
    coupling block A_IB and the bulk H1 matrix K = A + M, from the level's
    ``mass_bulk`` (:meth:`Assembler.bulk_mass` on the configuration of
    ``matrices``).  Calling it on a field, or on fields in columns, extends
    all of them in one solve.
    """

    def __init__(self, matrices, mass_bulk, interior_perm=None):
        self.matrices = matrices
        self.spectrum = surface_spectrum(matrices.mass_surf, matrices.stiff_surf)
        interior, self.coupling = matrices.stiffness_blocks()
        self.interior = SpdFactor(interior, interior_perm)
        self.energy = matrices.stiff_bulk + mass_bulk

    def extend(self, g):
        return dirichlet_extension(self.coupling, g, self.interior.solve)

    def __call__(self, g):
        return _per_column(self._ratios, g)

    def _ratios(self, g):
        mats = self.matrices
        denom = [norm_h_half(col, mats.mass_surf, mats.stiff_surf, self.spectrum)
                 for col in g.T]
        return _energy_norms(self.energy, self.extend(g)) / denom

    def boost(self, g, iterations):
        """Power iteration on the Rayleigh structure of the ratio.

        The squared ratio is (g^T B g) / (g^T C g) with B the pulled-back bulk
        H1 form of the extension operator and C the H^(1/2) Gram matrix,
        whose inverse is available from the surface eigen-decomposition.
        """
        lam, phi = self.spectrum
        ng = self.matrices.n_boundary
        inv_weights = 1.0 / np.sqrt(1.0 + lam)
        for _ in range(iterations):
            y = self.energy @ self.extend(g)
            bg = y[:ng] - self.coupling.T @ self.interior.solve(y[ng:])
            g = phi @ (inv_weights * (phi.T @ bg))
            g /= np.linalg.norm(g)
        return g


class RobinRatio:
    """Boundary H1 norm of the Robin solution trace over ||g||_{L2} on one
    level.

    The Robin problem uses unit boundary coefficient and no surface
    diffusion: (A_bulk + M_surf embedded) u = gamma^T M_surf g.  Holds its
    matrix factored in ``bulk_perm`` and the surface H1 matrix K = A + M.
    Calling it on a field, or on fields in columns, solves for all of them
    at once.
    """

    def __init__(self, matrices, bulk_perm=None):
        self.matrices = matrices
        self.robin = SpdFactor(assemble_L(matrices, 1.0), bulk_perm)
        self.energy = matrices.surface_pencil(1.0, 1.0)

    def _trace(self, boundary_load):
        rhs = np.zeros((self.matrices.n_nodes,) + boundary_load.shape[1:])
        rhs[: self.matrices.n_boundary] = boundary_load
        return self.robin.solve(rhs)[: self.matrices.n_boundary]

    def __call__(self, g):
        return _per_column(self._ratios, g)

    def _ratios(self, g):
        mass = self.matrices.mass_surf
        trace = self._trace(mass @ g)
        return _energy_norms(self.energy, trace) / _energy_norms(mass, g)

    def boost(self, g, iterations):
        """Power iteration for the ratio.

        The squared ratio is a Rayleigh quotient with mass-matrix metric; one
        iteration maps g to the boundary trace of P^-1 gamma^T K_surf times
        the trace of P^-1 gamma^T M_surf g.
        """
        for _ in range(iterations):
            g = self._trace(self.energy @ self._trace(self.matrices.mass_surf @ g))
            g /= np.linalg.norm(g)
        return g


def stability_sweep(levels, mode, samples, seed, boost_iters, observer=None):
    """Max stability ratio per refinement level.

    Parameters
    ----------
    levels : sequence of (BulkSurfaceMesh, SystemMatrices)
        One mesh and its matrices assembled on its node positions per
        refinement level, coarse to fine; both modes of a study can share
        them.  The bulk factorizations use the mesh's ``bulk_orderings``, as
        in the time loop; the Dirichlet mode assembles each level's bulk
        mass once, for its H1 norm.
    mode : str
        "dirichlet" or "robin".
    samples : int
        Number of seeded pseudo-random unit-norm boundary fields per level.
    seed : int
        Base RNG seed; level l uses default_rng([seed, l]).
    boost_iters : int
        Power-iteration steps refining the worst sampled field.
    observer : callable, optional
        ``observer(row)`` is called with each level's row as it finishes, so
        a caller keeps the rows of the levels before a failure.

    Returns
    -------
    list of dict
        Rows with level, h, n_nodes, n_boundary, max_ratio and argmax_seed
        (-1 when the boosted field wins).
    """
    if mode not in ("dirichlet", "robin"):
        raise ValidationError(f"unknown sweep mode {mode!r}")
    if samples < 1:
        raise ValidationError("need at least one sample per level")
    rows = []
    for level, (mesh, matrices) in enumerate(levels):
        rows.append(_level_row(level, mesh, matrices, mode, samples, seed, boost_iters))
        if observer is not None:
            observer(rows[-1])
    return rows


def _level_row(level, mesh, matrices, mode, samples, seed, boost_iters):
    """One level of :func:`stability_sweep`; its factor and work arrays are
    freed on return, before the next level factors."""
    bulk_perm, interior_perm = mesh.bulk_orderings
    if mode == "dirichlet":
        ratio = DirichletRatio(matrices, Assembler(mesh).bulk_mass(), interior_perm)
    else:
        ratio = RobinRatio(matrices, bulk_perm)
    fields = np.random.default_rng([seed, level]).standard_normal(
        (samples, mesh.n_boundary)
    )
    for g in fields:
        g /= np.linalg.norm(g)
    ratios = np.concatenate([
        ratio(fields[i : i + _FIELD_BLOCK].T) for i in range(0, samples, _FIELD_BLOCK)
    ])
    best_seed = int(np.argmax(ratios))
    best_ratio = ratios[best_seed]
    if boost_iters > 0:
        r = ratio(ratio.boost(fields[best_seed].copy(), boost_iters))
        if r > best_ratio:
            best_ratio, best_seed = r, -1
    return {
        "level": level,
        "h": mesh.mesh_size_h,
        "n_nodes": mesh.n_nodes,
        "n_boundary": mesh.n_boundary,
        "max_ratio": float(best_ratio),
        "argmax_seed": best_seed,
    }

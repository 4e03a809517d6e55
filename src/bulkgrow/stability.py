"""Numerical probes of the h-uniform stability of two boundary-value maps.

Two ratios are measured on refinement sequences:

* Dirichlet: the discrete harmonic extension of boundary data g, with the
  bulk H1 norm of the extension over the discrete H^(1/2) norm of g.
* Robin: the solution map of the model Robin problem (unit coefficients,
  zero bulk load), with the boundary H1 norm of the trace over the L2 norm
  of g.

Bounded ratios across refinements are the testable content of the underlying
stability estimates.  Both are ||F g||_K / ||g||_C, the square root of the
Rayleigh quotient of the symmetric pencil (F^T K F, C) for a field map F, a
norm matrix K and a Gram matrix C.  Each level reports the maximum over
seeded random boundary fields plus a power iteration on that pencil, which
searches for the worst field.
"""

import numpy as np

from .assembly import Assembler, assemble_L
from .errors import ValidationError
from .norms import HalfNorm, energy_norms, surface_spectrum
from .sparsela import SpdFactor, dirichlet_extension


# Sampled fields per multi-column solve.  At N = 77,281 (2d, P2, one
# thread, best of 5) the 20 interior solves of a level took 346 ms one
# column at a time, 191 ms in blocks of 5, 187 ms in blocks of 10 and
# 176 ms in one block of 20 (the Robin solves 352, 207, 189 and 173 ms).
# A solve's numpy work arrays grow with its block: 20 MB at 5 columns,
# 41 MB at 10, 82 MB at 20.  Larger blocks save at most 16% of the time for
# 2-4x the memory, so 5 stays.
_FIELD_BLOCK = 5


class _RayleighRatio:
    """||F g||_K / ||g||_C on one level.  A mode supplies its field map F
    (``field``), the norms ||g||_C of the columns of a block
    (``base_norms``), the pull-back C^-1 F^T (``pull_back``) and K
    (``energy``)."""

    def __call__(self, g):
        """The ratio of one field (a float) or of each column of a 2d array
        (an array), solving for all columns at once; a zero field has ratio
        0 by convention."""
        g = np.asarray(g, dtype=float)
        columns = g[:, None] if g.ndim == 1 else g
        out = np.zeros(columns.shape[1])
        nonzero = np.flatnonzero(columns.any(axis=0))
        if nonzero.size:
            g_nz = columns[:, nonzero]
            out[nonzero] = energy_norms(self.energy, self.field(g_nz)) / self.base_norms(g_nz)
        return float(out[0]) if g.ndim == 1 else out

    def boost(self, g, iterations):
        """Power iteration g <- C^-1 F^T K F g, normalized, towards the
        pencil's top eigenvector, the worst field."""
        for _ in range(iterations):
            g = self.pull_back(self.energy @ self.field(g))
            g /= np.linalg.norm(g)
        return g


class DirichletRatio(_RayleighRatio):
    """Bulk H1 norm of the zero-load Dirichlet extension over ||g||_{H^1/2}
    on one level: F is the harmonic extension, K the bulk A + M and C the
    H^(1/2) Gram matrix.

    Holds what the level's ratios share, each formed once: the interior
    block A_II factored in ``interior_perm``, the coupling block A_IB, K,
    from the level's ``mass_bulk`` (:meth:`Assembler.bulk_mass` on the
    configuration of ``matrices``), and the :class:`HalfNorm` on the bound
    of the surface spectrum.  The H^(1/2) factor comes last: built before
    A_II's factor or before K, it left more freed heap resident, and the
    peak memory of three ``stability2d`` runs in one process read 265-287
    MB against 252-263 MB.
    """

    def __init__(self, matrices, mass_bulk, interior_perm=None):
        self.n_boundary = matrices.n_boundary
        interior, self.coupling = matrices.stiffness_blocks()
        self.interior = SpdFactor(interior, interior_perm)
        self.energy = matrices.stiff_bulk + mass_bulk
        self.half = HalfNorm(matrices, surface_spectrum(matrices.surface))

    def field(self, g):
        return dirichlet_extension(self.coupling, g, self.interior.solve)

    def base_norms(self, g):
        return self.half.norms(g)

    def pull_back(self, y):
        ng = self.n_boundary
        return self.half.gram_inverse(y[:ng] - self.coupling.T @ self.interior.solve(y[ng:]))


class RobinRatio(_RayleighRatio):
    """Boundary H1 norm of the Robin solution trace over ||g||_{L2} on one
    level: F = T M with T the Robin trace map, K the surface A + M and
    C = M, so C^-1 F^T = T, as T is symmetric.

    The Robin problem uses unit boundary coefficient and no surface
    diffusion: (A_bulk + M_surf embedded) u = gamma^T M_surf g, so
    T = gamma P^-1 gamma^T.  Holds its matrix P factored in ``bulk_perm``
    and K.
    """

    def __init__(self, matrices, bulk_perm=None):
        self.n_nodes, self.n_boundary = matrices.n_nodes, matrices.n_boundary
        self.mass = matrices.mass_surf
        self.robin = SpdFactor(assemble_L(matrices, 1.0), bulk_perm)
        self.energy = matrices.surface_pencil(1.0, 1.0)

    def pull_back(self, boundary_load):  # the trace map T
        rhs = np.zeros((self.n_nodes,) + boundary_load.shape[1:])
        rhs[: self.n_boundary] = boundary_load
        return self.robin.solve(rhs)[: self.n_boundary]

    def field(self, g):
        return self.pull_back(self.mass @ g)

    def base_norms(self, g):
        return energy_norms(self.mass, g)


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
        Rows with level, h, N (nodes), N_Gamma (boundary nodes), max_ratio
        and argmax_seed (-1 when the boosted field wins).
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
        "N": mesh.n_nodes,
        "N_Gamma": mesh.n_boundary,
        "max_ratio": float(best_ratio),
        "argmax_seed": best_seed,
    }

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

from .assembly import assemble_L
from .errors import ValidationError
from .norms import norm_K, norm_M, norm_h_half, surface_spectrum
from .sparsela import SpdFactor, dirichlet_extension


def dirichlet_ratio(matrices, g, spectrum, interior_factor):
    """Bulk H1 norm of the zero-load Dirichlet extension over ||g||_{H^1/2}.

    ``spectrum`` is the surface spectrum of ``matrices`` and
    ``interior_factor`` an SpdFactor of their interior stiffness block.
    Returns 0 for g = 0 by convention.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return 0.0
    denom = norm_h_half(g, matrices.mass_surf, matrices.stiff_surf, spectrum)
    u = dirichlet_extension(
        matrices.stiff_bulk, matrices.n_boundary, g, interior_factor.solve
    )
    return norm_K(u, matrices, "bulk") / denom


def robin_ratio(matrices, g, robin_factor):
    """Boundary H1 norm of the Robin solution trace over ||g||_{L2}.

    The Robin problem uses unit boundary coefficient and no surface
    diffusion: (A_bulk + M_surf embedded) u = gamma^T M_surf g, and
    ``robin_factor`` is an SpdFactor of its matrix.  Returns 0 for g = 0 by
    convention.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return 0.0
    ng = matrices.n_boundary
    rhs = np.zeros(matrices.n_nodes)
    rhs[:ng] = matrices.mass_surf @ g
    u = robin_factor.solve(rhs)
    return norm_K(u[:ng], matrices, "surface") / norm_M(g, matrices, "surface")


def _boost_dirichlet(matrices, g, spectrum, interior_factor, iterations):
    """Power iteration on the Rayleigh structure of the Dirichlet ratio.

    The squared ratio is (g^T B g) / (g^T C g) with B the pulled-back bulk
    H1 form of the extension operator and C the H^(1/2) Gram matrix, whose
    inverse is available from the surface eigen-decomposition.
    """
    lam, phi = spectrum
    ng = matrices.n_boundary
    a = matrices.stiff_bulk
    k_bulk = a + matrices.mass_bulk
    inv_weights = 1.0 / np.sqrt(1.0 + lam)

    def apply_c_inverse(vec):
        return phi @ (inv_weights * (phi.T @ vec))

    for _ in range(iterations):
        ext = dirichlet_extension(a, ng, g, interior_factor.solve)
        y = k_bulk @ ext
        bg = y[:ng] - a[:ng, ng:] @ interior_factor.solve(y[ng:])
        g = apply_c_inverse(bg)
        g /= np.linalg.norm(g)
    return g


def _boost_robin(matrices, g, robin_factor, iterations):
    """Power iteration for the Robin ratio.

    The squared ratio is a Rayleigh quotient with mass-matrix metric; one
    iteration maps g to the boundary trace of P^-1 gamma^T K_surf times the
    trace of P^-1 gamma^T M_surf g.
    """
    ng = matrices.n_boundary
    k_surf = matrices.stiff_surf + matrices.mass_surf
    rhs = np.zeros(matrices.n_nodes)
    for _ in range(iterations):
        rhs[:ng] = matrices.mass_surf @ g
        u = robin_factor.solve(rhs)
        rhs[:ng] = k_surf @ u[:ng]
        y = robin_factor.solve(rhs)
        g = y[:ng]
        g /= np.linalg.norm(g)
    return g


def stability_sweep(levels, mode, samples, seed, boost_iters):
    """Max stability ratio per refinement level.

    Parameters
    ----------
    levels : sequence of (BulkSurfaceMesh, SystemMatrices)
        One mesh and its assembled matrices per refinement level, coarse to
        fine; both modes of a study can share them.  The bulk factorizations
        use the mesh's ``bulk_orderings``, as in the time loop.
    mode : str
        "dirichlet" or "robin".
    samples : int
        Number of seeded pseudo-random unit-norm boundary fields per level.
    seed : int
        Base RNG seed; level l uses default_rng([seed, l]).
    boost_iters : int
        Power-iteration steps refining the worst sampled field.

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
        ng = mesh.n_boundary
        rng = np.random.default_rng([seed, level])
        bulk_perm, interior_perm = mesh.bulk_orderings
        if mode == "dirichlet":
            spectrum = surface_spectrum(matrices.mass_surf, matrices.stiff_surf)
            interior = SpdFactor(matrices.stiff_bulk[ng:, ng:], interior_perm)

            def ratio(g):
                return dirichlet_ratio(matrices, g, spectrum, interior)
        else:
            robin = SpdFactor(assemble_L(matrices, 1.0), bulk_perm)

            def ratio(g):
                return robin_ratio(matrices, g, robin)

        best_ratio = -np.inf
        best_seed = -1
        best_field = None
        for s in range(samples):
            g = rng.standard_normal(ng)
            g /= np.linalg.norm(g)
            r = ratio(g)
            if r > best_ratio:
                best_ratio, best_seed, best_field = r, s, g
        if boost_iters > 0:
            if mode == "dirichlet":
                boosted = _boost_dirichlet(
                    matrices, best_field.copy(), spectrum, interior, boost_iters
                )
            else:
                boosted = _boost_robin(matrices, best_field.copy(), robin, boost_iters)
            r = ratio(boosted)
            if r > best_ratio:
                best_ratio, best_seed = r, -1
        rows.append(
            {
                "level": level,
                "h": mesh.mesh_size_h,
                "n_nodes": mesh.n_nodes,
                "n_boundary": ng,
                "max_ratio": float(best_ratio),
                "argmax_seed": best_seed,
            }
        )
    return rows


"""Discrete norms and error measurement against the radial solution.

Norms are induced by the assembled matrices: H1 norms through K = A + M,
the combined bulk/boundary energy through the Robin system matrix, and a
discrete H^(1/2) boundary norm through the generalized eigenproblem of the
surface stiffness/mass pair.  Errors are measured against the nodal
interpolant of the radial solution, ``RadialOracle.exact_state``.
"""

import numpy as np
import scipy.linalg

from .assembly import assemble_L
from .errors import CapabilityError, ValidationError

H_HALF_SIZE_CAP = 4000


def energy_norms(matrix, values):
    """sqrt(v^T K v) of a field v (a float) or of each column of a block
    (an array).

    A block stays in its (n, c) layout: at N = 77,281 and 5 columns the sum
    along axis 0 took 2.9 ms with the product, and summing along contiguous
    rows 4.5 ms, as transposing both blocks costs more than it saves there.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != matrix.shape[0]:
        raise ValidationError(
            f"field length {values.shape[0]} does not match matrix "
            f"dimension {matrix.shape[0]}"
        )
    squares = np.einsum("i...,i...->...", values, matrix @ values)
    norms = np.sqrt(np.maximum(squares, 0.0))
    return float(norms) if values.ndim == 1 else norms


def norm_L(values, matrices):
    """Combined bulk H1 / boundary H1 energy norm sqrt(e^T L e).

    L has unit coefficients, so this is equivalent to the H1(bulk) norm plus
    the H1(boundary) norm of the trace, the norm in which pressure errors are
    reported.
    """
    return energy_norms(assemble_L(matrices, 1.0, 1.0), values)


def surface_spectrum(mass_surf, stiff_surf):
    """Dense generalized eigenpairs A phi = lambda M phi, M-orthonormal.

    Capped at N_Gamma = 4000 (dense eigensolver path).
    """
    n = mass_surf.shape[0]
    if n > H_HALF_SIZE_CAP:
        raise CapabilityError(
            f"H^(1/2) eigen-path capped at {H_HALF_SIZE_CAP} boundary nodes, got {n}"
        )
    eigenvalues, eigenvectors = scipy.linalg.eigh(
        stiff_surf.toarray(), mass_surf.toarray()
    )
    return np.maximum(eigenvalues, 0.0), eigenvectors


class HalfNorm:
    """Discrete interpolation norm of order 1/2 on the boundary.

    Built from the surface mass matrix M and the :func:`surface_spectrum`
    (lambda, phi) of the surface stiffness/mass pencil: a field's
    coefficients in the M-orthonormal eigenbasis, phi^T M g, are weighted by
    W = diag((1 + lambda)^(1/2)), so ||g||^2 = g^T C g with the Gram matrix
    C = M phi W phi^T M.
    """

    def __init__(self, mass_surf, spectrum):
        lam, self.phi = spectrum
        self.mass = mass_surf
        self.weights = np.sqrt(1.0 + lam)

    def norms(self, g):
        """The norm of a field, or of each column of a block in one GEMM."""
        coeffs = self.phi.T @ (self.mass @ g)
        return np.sqrt(self.weights @ coeffs ** 2)

    def gram_inverse(self, y):
        """C^-1 y = phi W^-1 phi^T y, as phi^T M phi = I."""
        return self.phi @ ((self.phi.T @ y).T * (1.0 / self.weights)).T


def estimated_orders(errors, steps):
    """EOC between consecutive (error, step-size) pairs: log ratios."""
    errors = np.asarray(errors, dtype=float)
    steps = np.asarray(steps, dtype=float)
    return list(np.log(errors[:-1] / errors[1:]) / np.log(steps[:-1] / steps[1:]))


# ---------------------------------------------------------------------------
# Errors against the radial solution
# ---------------------------------------------------------------------------

def oracle_errors(state, oracle, reference_mesh, matrices):
    """Per-quantity errors of a state against the nodal exact interpolant.

    The surface quantities are measured against ``oracle.exact_state`` on
    the reference (t=0) mesh, in the surface H1 norm; the pressure against
    the exact profile at the computed node radii, in the combined
    bulk/boundary H1 norm (unit coefficients).
    """
    t = state.time
    ng = reference_mesh.n_boundary
    exact = oracle.exact_state(reference_mesh, t)
    exact_u = oracle.pressure_extended(np.linalg.norm(state.positions, axis=1), t)
    k_surf = matrices.surface_pencil(1.0, 1.0)  # A_Gamma + M_Gamma, once

    def surface_norm(error):  # over all components of a vector field
        return float(np.linalg.norm(energy_norms(k_surf, error)))

    return {
        "u": norm_L(state.pressure - exact_u, matrices),
        "x": surface_norm(state.positions[:ng] - exact.positions[:ng]),
        "v": surface_norm(state.velocity[:ng] - exact.velocity[:ng]),
        "nu": surface_norm(state.normal - exact.normal),
        "H": surface_norm(state.curvature - exact.curvature),
    }


ERROR_QUANTITIES = ("u", "x", "v", "nu", "H")

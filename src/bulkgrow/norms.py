"""Discrete norms and error measurement against the radial solution.

Norms are induced by the assembled matrices: H1 norms through K = A + M,
the combined bulk/boundary energy through the Robin system matrix, and a
discrete H^(1/2) boundary norm through the generalized eigenproblem of the
surface stiffness/mass pair.  Errors are measured against the nodal
interpolation of the exact solution on the current discrete configuration.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import assemble_L
from .errors import CapabilityError, ValidationError

H_HALF_SIZE_CAP = 4000


def _quadratic_form(matrix, values):
    values = np.asarray(values, dtype=float)
    if values.shape[0] != matrix.shape[0]:
        raise ValidationError(
            f"field length {values.shape[0]} does not match matrix "
            f"dimension {matrix.shape[0]}"
        )
    if values.ndim == 1:
        return float(values @ (matrix @ values))
    return float(sum(col @ (matrix @ col) for col in values.T))


def _norm(matrix, values):
    return np.sqrt(max(_quadratic_form(matrix, values), 0.0))


def norm_L(values, matrices):
    """Combined bulk H1 / boundary H1 energy norm sqrt(e^T L e).

    L has unit coefficients, so this is equivalent to the H1(bulk) norm plus
    the H1(boundary) norm of the trace, the norm in which pressure errors are
    reported.
    """
    return _norm(assemble_L(matrices, 1.0, 1.0), values)


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


def norm_h_half(values, mass_surf, stiff_surf, spectrum=None):
    """Discrete interpolation norm of order 1/2 on the boundary.

    Expands the field in the M-orthonormal eigenbasis of the surface
    stiffness/mass pencil and weights the coefficients by (1 + lambda)^(1/2).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != mass_surf.shape[0]:
        raise ValidationError("field length does not match the boundary block")
    lam, phi = spectrum if spectrum is not None else surface_spectrum(
        mass_surf, stiff_surf
    )
    coeffs = phi.T @ (mass_surf @ values)
    if coeffs.ndim == 1:
        return float(np.sqrt(np.sqrt(1.0 + lam) @ coeffs ** 2))
    return float(np.sqrt(sum(np.sqrt(1.0 + lam) @ c ** 2 for c in coeffs.T)))


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

    The exact positions carry the reference (t=0) nodes along the radial
    flow; normal, curvature and boundary velocity are interpolated at these
    exact material positions, the pressure at the computed node positions
    (``state.positions``).  Pressure is measured in the combined
    bulk/boundary H1 norm (unit coefficients), the surface quantities in the
    surface H1 norm.
    """
    t = state.time
    ng = reference_mesh.n_boundary
    exact_x = oracle.exact_positions(reference_mesh.node_positions, t)
    node_r = np.linalg.norm(state.positions, axis=1)
    exact_u = oracle.pressure_extended(node_r, t)
    radius = oracle.radius(t)
    exact_nu = exact_x[:ng] / radius
    exact_h = np.full(ng, oracle.curvature(t))
    exact_v_gamma = oracle.normal_speed(t) * exact_nu
    k_surf = matrices.surface_pencil(1.0, 1.0)  # A_Gamma + M_Gamma, once

    return {
        "u": norm_L(state.pressure - exact_u, matrices),
        "x": _norm(k_surf, state.positions[:ng] - exact_x[:ng]),
        "v": _norm(k_surf, state.velocity[:ng] - exact_v_gamma),
        "nu": _norm(k_surf, state.normal - exact_nu),
        "H": _norm(k_surf, state.curvature - exact_h),
    }


ERROR_QUANTITIES = ("u", "x", "v", "nu", "H")


@dataclass
class ErrorReport:
    """Sampled errors of one run plus sup-in-time aggregates."""

    samples: list = field(default_factory=list)

    def add(self, errors):
        if any(errors[q] < 0 for q in ERROR_QUANTITIES):
            raise ValidationError("error values must be nonnegative")
        self.samples.append({q: float(errors[q]) for q in ERROR_QUANTITIES})

    def sup_errors(self):
        """Max over recorded sample times, per quantity."""
        if not self.samples:
            raise ValidationError("no samples recorded")
        return {
            q: max(s[q] for s in self.samples) for q in ERROR_QUANTITIES
        }

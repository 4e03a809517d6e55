"""Discrete norms and error measurement against the radial solution.

Norms are induced by the assembled matrices: H1 norms through K = A + M,
the combined bulk/boundary energy through the Robin system matrix, and a
discrete H^(1/2) boundary norm through a rational approximation of the
inverse square root of the surface pencil.  Errors are measured against the
nodal interpolant of the radial solution, ``RadialOracle.exact_state``.
"""

import math

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_L
from .errors import ValidationError
from .sparsela import SpdFactor

# Largest error |r(x) sqrt(x) - 1| on [1, top] of the rational function r
# of :func:`inverse_sqrt_rule`, and so the relative error of ||g||^2 in
# :class:`HalfNorm`.  Of it, the rule's truncation error takes all but
# _RULE_ROUNDING, a bound on the rounding of its sum: that measured at most
# 8e-16 up to 60 poles and top = 1e8.
HALF_EPS = 1e-13
_RULE_ROUNDING = 1e-15


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


def surface_spectrum(surface):
    """An upper bound ``top`` of the spectrum of B = M^-1 (A + M), for the
    surface mass M and stiffness A assembled from the facet geometry
    ``surface`` (:class:`SurfaceGeometry`): 1 + the largest eigenvalue of
    any facet pencil (A_e, M_e).

    It bounds B's spectrum, as x^T A x = sum_e x_e^T A_e x_e <= max_e
    lambda_e sum_e x_e^T M_e x_e = max_e lambda_e x^T M x.  Each facet's
    matrices are formed from its quadrature data, and the facet pencils are
    solved as one batch of small symmetric eigenproblems.
    """
    n_qp, n_loc = surface.shape.shape
    n_facets = surface.wmeasure.shape[1]
    products = (surface.shape[:, :, None] * surface.shape[:, None, :]).reshape(n_qp, -1)
    mass = (surface.wmeasure.T @ products).reshape(n_facets, n_loc, n_loc)
    grad = surface.grad.reshape(-1, n_qp, n_loc)  # (m, n_qp, n_loc)
    stiff = np.zeros_like(mass)
    for coeff, (r, s) in zip(surface.coeffs, zip(*np.triu_indices(len(grad)))):
        outer = (grad[r][:, :, None] * grad[s][:, None, :]).reshape(n_qp, -1)
        term = (coeff.T @ outer).reshape(n_facets, n_loc, n_loc)
        stiff += term if r == s else term + term.transpose(0, 2, 1)
    inv_chol = np.linalg.inv(np.linalg.cholesky(mass))
    pencil = inv_chol @ stiff @ inv_chol.transpose(0, 2, 1)
    return 1.0 + float(np.linalg.eigvalsh(pencil)[:, -1].max())


def _agm(a, b):
    """Arithmetic-geometric mean of two positive numbers."""
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def inverse_sqrt_rule(top):
    """Shifts s_j > 0 and weights w_j > 0 of r(x) = sum_j w_j / (x + s_j),
    with |r(x) sqrt(x) - 1| <= ``HALF_EPS`` on [1, top].

    r is a quadrature of x^(-1/2) = (2/pi) int_0^inf (t^2 + x)^-1 dt
    (Bonito & Pasciak, Math. Comp. 84 (2015)).  The substitution
    t = sc(u, k), with modulus k = sqrt(1 - 1/top), maps the integral onto
    [0, K] with an integrand that is 2K-periodic and analytic in the strip
    |Im u| < K', K and K' the complete elliptic integrals of k and of
    k' = top^(-1/2) (Hale, Higham & Trefethen, SIAM J. Numer. Anal. 46
    (2008), method 3).  So N midpoints u_j give t_j^2 = s_j and
    w_j = (2/pi)(K/N) dn/cn^2 (u_j), with error 4 exp(-2 pi N K'/K), which
    is about 4 exp(-2 pi^2 N / log(16 top)); N is the least count that
    takes it below ``HALF_EPS`` less the rounding: 16 poles at top = 1e3,
    23 at 1e5 and 34 at 1e8.

    sc and dn/cn^2 are evaluated through Jacobi's imaginary transformation
    as theta series of modulus k', and only on [0, K/2]: the midpoints come
    in pairs u, K - u, with s(K - u) = top / s(u) and w(K - u) =
    w(u) sqrt(top) / s(u).  No cancellation occurs there, unlike a
    library sn/cn/dn at a modulus this close to 1.  A ``top`` below 2 (a
    surface whose facets are large against 1, so K is nearly M) is raised
    to 2, where the nome q = exp(-pi K/K') is e^-pi: on [1, 2] the rule
    holds as well, and five terms of each series are exact in floating
    point for q <= e^-pi.
    """
    top = max(top, 2.0)
    kp = 1.0 / math.sqrt(top)
    big_k = math.pi / (2.0 * _agm(1.0, kp))                      # K(k)
    small_k = math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - kp * kp)))  # K(k')
    n_poles = math.ceil(math.log(4.0 / (HALF_EPS - _RULE_ROUNDING))
                        * big_k / (2.0 * math.pi * small_k))
    q = math.exp(-math.pi * big_k / small_k)
    u = (np.arange((n_poles + 1) // 2) + 0.5) * big_k / n_poles
    v = math.pi * u / (2.0 * small_k)
    n = np.arange(5)[:, None]
    sign = (-1.0) ** n
    theta1 = 2.0 * (sign * q ** ((n + 0.5) ** 2) * np.sinh((2 * n + 1) * v)).sum(0)
    theta2 = 2.0 * (q ** ((n + 0.5) ** 2) * np.cosh((2 * n + 1) * v)).sum(0)
    theta3 = 1.0 + 2.0 * (q ** (n[1:] ** 2) * np.cosh(2 * n[1:] * v)).sum(0)
    theta4 = 1.0 + 2.0 * (sign[1:] * q ** (n[1:] ** 2) * np.cosh(2 * n[1:] * v)).sum(0)
    shifts = (theta1 / theta4) ** 2 / kp
    weights = (2.0 * big_k / (math.pi * n_poles) * math.sqrt((1.0 - kp * kp) / kp)
               * theta2 * theta3 / theta4 ** 2)
    pairs = n_poles // 2  # the u < K/2, each with its image K - u
    return (np.concatenate([shifts, (top / shifts)[:pairs]]),
            np.concatenate([weights, (weights * math.sqrt(top) / shifts)[:pairs]]))


class HalfNorm:
    """Discrete interpolation norm of order 1/2 on the boundary.

    With the surface mass M, K = A + M and B = M^-1 K, whose spectrum lies
    in [1, ``top``] (:func:`surface_spectrum`), ||g||^2 = g^T K B^(-1/2) g:
    the coefficients of g in the M-orthonormal eigenbasis of B, weighted by
    the square roots of its eigenvalues.  B^(-1/2) is replaced by
    r(B) = sum_j w_j (B + s_j)^-1 of :func:`inverse_sqrt_rule`, so the
    squared norm is within a relative ``HALF_EPS``, and
    (B + s)^-1 = (K + s M)^-1 M.  The Gram matrix is C = K B^(-1/2), so
    C^-1 = B^(-1/2) M^-1 = sum_j w_j (K + s_j M)^-1, with no solve in M.

    One :class:`SpdFactor` holds the block diagonal of the K + s_j M, built
    on the matrices' shared surface pattern, so each application is one
    verified solve of the right-hand side stacked once per pole.
    """

    def __init__(self, matrices, top):
        shifts, self.weights = inverse_sqrt_rule(top)
        self.mass = matrices.mass_surf
        self.energy = matrices.surface_pencil(1.0, 1.0)
        n, nnz, poles = self.mass.shape[0], self.mass.nnz, len(shifts)
        block = np.arange(poles)[:, None]
        stacked = sp.csr_matrix((
            (shifts[:, None] * self.mass.data + self.energy.data).ravel(),
            (self.mass.indices + n * block).ravel(),
            np.append((self.mass.indptr[:-1] + nnz * block).ravel(), nnz * poles),
        ), shape=(n * poles, n * poles))
        self.factor = SpdFactor(stacked)

    def norms(self, g):
        """The norm of a field, or of each column of a block, from
        g^T K r(B) g = g^T K C^-1 M g."""
        g = np.asarray(g, dtype=float)
        squares = np.einsum("i...,i...->...", self.energy @ g, self.gram_inverse(self.mass @ g))
        return np.sqrt(np.maximum(squares, 0.0))

    def gram_inverse(self, y):
        """C^-1 y = sum_j w_j (K + s_j M)^-1 y, for a field or a block."""
        y = np.asarray(y, dtype=float)
        poles = len(self.weights)
        x = self.factor.solve(np.concatenate([y] * poles))
        return np.tensordot(self.weights, x.reshape((poles,) + y.shape), axes=1)


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

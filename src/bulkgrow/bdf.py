"""Backward differentiation formulas: coefficients, history sums, extrapolation.

Coefficients are expanded from their generating polynomials in exact rational
arithmetic and converted to floats once, so the tabulated identities
(sum delta_j = 0, sum j*delta_j = -1, sum gamma_j = 1) hold to roundoff.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError

MAX_ORDER = 6


@dataclass(frozen=True)
class BdfScheme:
    """Coefficients of the q-step backward differentiation formula."""

    order: int
    delta: np.ndarray  # q+1 coefficients, newest state first
    gamma: np.ndarray  # q extrapolation coefficients, newest history first

    def __post_init__(self):
        self.delta.setflags(write=False)
        self.gamma.setflags(write=False)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _one_minus_zeta_power(ell):
    """Coefficients of (1 - zeta)^ell in ascending powers."""
    poly = [Fraction(1)]
    for _ in range(ell):
        poly = _poly_mul(poly, [Fraction(1), Fraction(-1)])
    return poly


def bdf_coefficients(order):
    """Build the BDF scheme of the given order (1..6).

    delta comes from expanding sum_{l=1}^{q} (1/l) (1 - zeta)^l and gamma from
    (1 - (1 - zeta)^q) / zeta.
    """
    if not isinstance(order, int) or not (1 <= order <= MAX_ORDER):
        raise ValidationError(f"BDF order must be an integer in 1..{MAX_ORDER}")
    delta = [Fraction(0)] * (order + 1)
    for ell in range(1, order + 1):
        for j, c in enumerate(_one_minus_zeta_power(ell)):
            delta[j] += c / ell
    # (1 - (1-zeta)^q) / zeta: the constant term cancels, shift down by one.
    top = _one_minus_zeta_power(order)
    gamma = [-c for c in top[1:]]
    return BdfScheme(
        order=order,
        delta=np.array([float(c) for c in delta]),
        gamma=np.array([float(c) for c in gamma]),
    )


def weighted_sum(coeffs, states):
    """sum_j coeffs[j] * states[j], accumulated in order from j = 0.

    The one combination of history states behind the BDF derivative, the
    extrapolation and the stepper's history terms; pairs beyond the shorter
    of the two sequences are ignored.
    """
    acc = coeffs[0] * np.asarray(states[0], dtype=float)
    for coeff, state in zip(coeffs[1:], states[1:]):
        acc = acc + coeff * np.asarray(state, dtype=float)
    return acc


def extrapolate(scheme, history):
    """Extrapolated value from the last q states, newest first."""
    if len(history) != scheme.order:
        raise ValidationError(f"need {scheme.order} states, got {len(history)}")
    return weighted_sum(scheme.gamma, history)

"""Backward differentiation formulas: coefficients, history sums, extrapolation.

The coefficients have closed forms, summed in exact rational arithmetic and
converted to floats once, so the tabulated identities (sum delta_j = 0,
sum j*delta_j = -1, sum gamma_j = 1) hold to roundoff:

  delta_j = sum_{l=max(j,1)}^{q} (-1)^j C(l, j) / l,   j = 0..q,
  gamma_j = (-1)^j C(q, j+1),                          j = 0..q-1,

the coefficients of sum_{l=1}^{q} (1/l) (1 - zeta)^l and of
(1 - (1 - zeta)^q) / zeta.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

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


def bdf_coefficients(order):
    """Build the BDF scheme of the given order (1..6)."""
    if not isinstance(order, int) or not (1 <= order <= MAX_ORDER):
        raise ValidationError(f"BDF order must be an integer in 1..{MAX_ORDER}")
    delta = [sum(Fraction((-1) ** j * comb(ell, j), ell)
                 for ell in range(max(j, 1), order + 1))
             for j in range(order + 1)]
    gamma = [(-1) ** j * comb(order, j + 1) for j in range(order)]
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

"""Convergence rates of the scheme against the radial solution (Tier-1 subset).

P2 elements on the disk (R0 = 1.5, Q = 1.5, alpha = beta = 1), BDF2 to
T = 0.2, errors sampled 20 times.  The full-discretization error bound is
O(h^k + tau^q), so both rates are 2 here:

* in h at tau = 1e-3, pressure u and curvature H (the tau error is far
  below the h error on these meshes).  Positions x, velocity v and normal nu
  converge faster than k in h on this radial solution (about 3.5 to 3.9),
  so only the lower bound k - 0.3 is pinned for them;
* in tau at h = 0.1, positions x and velocity v, from tau = 4e-3 to 2e-3.
  The next halving (2e-3 -> 1e-3) already reaches the spatial error floor
  at h = 0.1 (x EOC about 1.7), so it is not used.

On the unit ball (P2, same model, BDF2, tau = 1e-3, T = 0.02, 5 error
samples) the pair h = 0.51 -> 0.37 gave EOCs of 2.23 for u, 2.16 for H,
2.91 for x, 2.98 for v and 3.11 for nu, in about 2.2 s; the same bounds are
pinned there.
"""

import pytest

from bulkgrow.experiments import run_convergence_cell
from bulkgrow.norms import estimated_orders
from bulkgrow.oracle import RadialOracle

BASE_CELL = {"oracle": RadialOracle(dim_m=1, initial_radius=1.5, source=1.5,
                                    alpha=1.0, beta=1.0),
             "k": 2, "q": 2, "T": 0.2, "error_samples": 20}
BALL_CELL = {"oracle": RadialOracle(dim_m=2, initial_radius=1.0, source=1.5,
                                    alpha=1.0, beta=1.0),
             "k": 2, "q": 2, "T": 0.02, "tau": 1e-3, "error_samples": 5}
RATE = 2.0
RATE_TOL = 0.3


def eoc(rows, key, quantity):
    return estimated_orders([row[f"err_{quantity}"] for row in rows],
                            [row[key] for row in rows])[0]


@pytest.fixture(scope="module")
def h_rows():
    return [run_convergence_cell({**BASE_CELL, "h": h, "tau": 1e-3}) for h in (0.4, 0.2)]


@pytest.fixture(scope="module")
def tau_rows():
    return [run_convergence_cell({**BASE_CELL, "h": 0.1, "tau": tau})
            for tau in (4e-3, 2e-3)]


@pytest.mark.parametrize("quantity", ["u", "H"])
def test_h_convergence_order(h_rows, quantity):
    assert eoc(h_rows, "h", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.mark.parametrize("quantity", ["x", "v", "nu"])
def test_h_convergence_at_least_k(h_rows, quantity):
    assert eoc(h_rows, "h", quantity) >= BASE_CELL["k"] - RATE_TOL


@pytest.mark.parametrize("quantity", ["x", "v"])
def test_tau_convergence_order(tau_rows, quantity):
    assert eoc(tau_rows, "tau", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.fixture(scope="module")
def ball_h_rows():
    return [run_convergence_cell({**BALL_CELL, "h": h}) for h in (0.51, 0.37)]


@pytest.mark.parametrize("quantity", ["u", "H"])
def test_ball_h_convergence_order(ball_h_rows, quantity):
    assert eoc(ball_h_rows, "h", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.mark.parametrize("quantity", ["x", "v", "nu"])
def test_ball_h_convergence_at_least_k(ball_h_rows, quantity):
    assert eoc(ball_h_rows, "h", quantity) >= BALL_CELL["k"] - RATE_TOL

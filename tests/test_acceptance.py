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

The ball's rate in tau is measured by self-convergence on one mesh (P2,
h = 0.5, BDF2, T = 0.02): max-norm differences of the final states for tau
= 4e-3, 2e-3 and 1e-3, which leaves out the spatial error.  Pressure u and
velocity v give 2.02 and 2.04 and are pinned at 2 +- 0.3.  Positions,
normal and curvature give 1.61, 2.28 and 2.40: the exact seed states are
not on the discrete trajectory, and that O(h^k) start defect adds a
difference of first order in tau (positions 1.65 at T = 0.04 and 1.85 at
T = 0.1), so they are not pinned.
"""

import numpy as np
import pytest

from bulkgrow.experiments import (
    build_geometry,
    build_params,
    compatible_oracle,
    run_convergence_cell,
)
from bulkgrow.norms import estimated_orders
from bulkgrow.stepper import Stepper, evolve

MODEL = {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": "const:1.5"}
BASE = {"model": MODEL,
        "geometry": {"kind": "disk", "radii": [1.5]},
        "discretization": {"k": 2, "q": 2, "T": 0.2},
        "run": {"kind": "converge", "error_samples": 20}}
BALL = {"model": MODEL,
        "geometry": {"kind": "ball", "radii": [1.0]},
        "discretization": {"k": 2, "q": 2, "T": 0.02, "tau": 1e-3},
        "run": {"kind": "converge", "error_samples": 5}}
RATE = 2.0
RATE_TOL = 0.3


def cell(config, h, **overrides):
    """The convergence cell of ``config`` at mesh size h; ``overrides`` maps
    a section to the keys it changes."""
    cell_config = {**config, "geometry": {**config["geometry"], "h": h}}
    for section, values in overrides.items():
        cell_config[section] = {**cell_config[section], **values}
    return run_convergence_cell(cell_config)


def eoc(rows, key, quantity):
    return estimated_orders([row[f"err_{quantity}"] for row in rows],
                            [row[key] for row in rows])[0]


@pytest.fixture(scope="module")
def h_rows():
    return [cell(BASE, h, discretization={"tau": 1e-3}) for h in (0.4, 0.2)]


@pytest.fixture(scope="module")
def tau_rows():
    return [cell(BASE, 0.1, discretization={"tau": tau}) for tau in (4e-3, 2e-3)]


@pytest.mark.parametrize("quantity", ["u", "H"])
def test_h_convergence_order(h_rows, quantity):
    assert eoc(h_rows, "h", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.mark.parametrize("quantity", ["x", "v", "nu"])
def test_h_convergence_at_least_k(h_rows, quantity):
    assert eoc(h_rows, "h", quantity) >= BASE["discretization"]["k"] - RATE_TOL


@pytest.mark.parametrize("quantity", ["x", "v"])
def test_tau_convergence_order(tau_rows, quantity):
    assert eoc(tau_rows, "tau", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.fixture(scope="module")
def mu_h_rows():
    return [cell(BASE, h, model={"mu": 0.1}, discretization={"tau": 1e-3})
            for h in (0.4, 0.2)]


@pytest.mark.parametrize("quantity", ["u", "H"])
def test_surface_diffusion_h_convergence_at_least_k(mu_h_rows, quantity):
    assert eoc(mu_h_rows, "h", quantity) >= BASE["discretization"]["k"] - RATE_TOL


@pytest.fixture(scope="module")
def ball_h_rows():
    return [cell(BALL, h) for h in (0.51, 0.37)]


@pytest.mark.parametrize("quantity", ["u", "H"])
def test_ball_h_convergence_order(ball_h_rows, quantity):
    assert eoc(ball_h_rows, "h", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.mark.parametrize("quantity", ["x", "v", "nu"])
def test_ball_h_convergence_at_least_k(ball_h_rows, quantity):
    assert eoc(ball_h_rows, "h", quantity) >= BALL["discretization"]["k"] - RATE_TOL


@pytest.fixture(scope="module")
def fine_ball_h_rows():
    return [cell(BALL, h, discretization={"T": 0.05}) for h in (0.37, 0.26)]


@pytest.mark.slow
@pytest.mark.parametrize("quantity", ["u", "H"])
def test_fine_ball_h_convergence_order(fine_ball_h_rows, quantity):
    assert eoc(fine_ball_h_rows, "h", quantity) == pytest.approx(RATE, abs=RATE_TOL)


@pytest.mark.slow
@pytest.mark.parametrize("quantity", ["x", "v", "nu"])
def test_fine_ball_h_convergence_at_least_k(fine_ball_h_rows, quantity):
    assert eoc(fine_ball_h_rows, "h", quantity) >= BALL["discretization"]["k"] - RATE_TOL


BALL_TAUS = (4e-3, 2e-3, 1e-3)


@pytest.fixture(scope="module")
def ball_tau_finals():
    """Final states at T = 0.02 of one h = 0.5 ball run per tau."""
    disc = BALL["discretization"]
    q, end = disc["q"], disc["T"]
    mesh = build_geometry({**BALL["geometry"], "h": 0.5}, disc["k"])[0]
    oracle = compatible_oracle(BALL)
    params = build_params(BALL, mesh)
    finals = []
    for tau in BALL_TAUS:
        # The seed states end at t = (q - 1) tau.
        history = oracle.seed_history(mesh, tau, q)
        evolve(Stepper(mesh, params, q, tau), history, round(end / tau) - (q - 1))
        assert history[0].time == pytest.approx(end, rel=1e-12)
        finals.append(history[0])
    return finals


@pytest.mark.parametrize("field", ["pressure", "velocity"])
def test_ball_tau_self_convergence_order(ball_tau_finals, field):
    differences = [np.abs(getattr(a, field) - getattr(b, field)).max()
                   for a, b in zip(ball_tau_finals, ball_tau_finals[1:])]
    rate = estimated_orders(differences, BALL_TAUS[:-1])[0]
    assert rate == pytest.approx(RATE, abs=RATE_TOL)

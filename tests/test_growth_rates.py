"""Growth rates of perturbed disks: an exact reference off the radial solution.

A disk boundary r = R(t) + eta(t) cos(l theta) with small eta evolves, to
first order in eta, by

    R' = Q - R / d,    eta' = sigma_l(R) eta,

    sigma_l(R) = [(l - 1) alpha R / d - P_l (l + mu lambda_l / R)]
                 / (l + alpha R + mu lambda_l / R),

with d = 2, lambda_l = l^2 and P_l = beta (lambda_l - 1) / R^2.  It follows
from three first-order facts: the pressure perturbation is the harmonic
a r^l cos(l theta), the curvature perturbation is (lambda_l - 1) eta / R^2,
and the Robin condition and the velocity law hold to first order.  On the
steady disk R = 2Q the rate is sigma_l itself; large steady disks grow in low
modes and shrink in high ones.

The discrete run starts from a P2 disk mapped by x -> x (1 + eps Re((z/R0)^l)),
a polynomial map that puts every boundary node on r = R0 (1 + eps cos l theta),
with the normal and curvature of that polar curve, and steps from the one
seed state (bootstrap start).  The amplitude is the cos(l theta) coefficient of
a least-squares fit of the boundary radii; the rate is log(eta(T)/eta(0)) / T,
compared with the same quantity of the two ODEs above.  The check exercises
what the radial solution cannot: grad_Gamma H in the normal equation, a
non-constant |A|^2, the tangential gradient of u and a non-radial pressure.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bulkgrow.mesh import generate_disk_mesh
from bulkgrow.stepper import (
    History,
    ModelParams,
    Stepper,
    constant_source,
    evolve,
    initial_state,
)

EPS = 1e-3  # the perturbation's size relative to R0
# The rate error that is not the tau error: the h error and the O(eps)
# nonlinear part, measured below 2.2e-5 on the steady disk at h = 0.3.
FLOOR = 3e-5


def sigma(l, radius, alpha, beta, mu):
    """Linear growth rate of mode l on a disk of the given radius (d = 2)."""
    lam = l * l
    p_l = beta * (lam - 1) / radius ** 2
    surface = mu * lam / radius
    return ((l - 1) * alpha * radius / 2 - p_l * (l + surface)) / (l + alpha * radius + surface)


def exact_rate(radius0, source, alpha, beta, mu, l, T):
    """log(eta(T) / eta(0)) / T of the two first-order ODEs."""
    def rhs(t, y):
        return [source - y[0] / 2, sigma(l, y[0], alpha, beta, mu) * y[1]]

    sol = solve_ivp(rhs, (0.0, T), [radius0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return np.log(sol.y[1, -1]) / T


def perturbed_disk(radius0, h, l):
    """(mesh, normal, curvature) of the P2 disk whose boundary nodes lie on
    r = R0 (1 + EPS cos l theta), with that curve's normal and curvature."""
    mesh = generate_disk_mesh(radius0, h, degree=2)
    x = mesh.node_positions
    z = (x[:, 0] + 1j * x[:, 1]) / radius0
    mesh = dataclasses.replace(
        mesh, node_positions=x * (1.0 + EPS * np.real(z ** l))[:, None])
    b = mesh.boundary_positions
    theta = np.arctan2(b[:, 1], b[:, 0])
    r = radius0 * (1.0 + EPS * np.cos(l * theta))
    dr = -radius0 * EPS * l * np.sin(l * theta)
    ddr = -radius0 * EPS * l * l * np.cos(l * theta)
    speed = np.hypot(r, dr)
    normal = np.column_stack([r * np.cos(theta) + dr * np.sin(theta),
                              r * np.sin(theta) - dr * np.cos(theta)]) / speed[:, None]
    curvature = (r ** 2 + 2.0 * dr ** 2 - r * ddr) / speed ** 3
    return mesh, normal, curvature


def amplitude(boundary, l):
    """cos(l theta) coefficient of the least-squares fit of the radii to
    (1, cos l theta, sin l theta)."""
    theta = np.arctan2(boundary[:, 1], boundary[:, 0])
    basis = np.column_stack([np.ones_like(theta), np.cos(l * theta), np.sin(l * theta)])
    return np.linalg.lstsq(basis, np.hypot(boundary[:, 0], boundary[:, 1]), rcond=None)[0][1]


@lru_cache(maxsize=None)
def discrete_rate(radius0, source, alpha, beta, mu, l, h, tau, T, q):
    """log(eta(T) / eta(0)) / T of the scheme of order q, bootstrap start."""
    mesh, normal, curvature = perturbed_disk(radius0, h, l)
    params = ModelParams(alpha=alpha, beta=beta, mu=mu, source=constant_source(source))
    stepper = Stepper(mesh, params, q, tau)
    history = History([initial_state(stepper, normal, curvature)])
    # evolve adds q - 1 start steps before the counted ones.
    evolve(stepper, history, round(T / tau) - (q - 1))
    assert history[0].time == pytest.approx(T, abs=1e-12)
    eta = amplitude(history[0].positions[: mesh.n_boundary], l)
    return np.log(eta / amplitude(mesh.boundary_positions, l)) / T


def assert_within_pair(coarse, fine, exact):
    """Rates at tau and tau/2 of an order-2 run are as close to ``exact`` as
    their difference supports: Richardson puts 4/3 and 1/3 of it on them,
    allowed here with half again for margin, plus FLOOR."""
    diff = abs(coarse - fine)
    assert abs(coarse - exact) <= 1.5 * 4 / 3 * diff + FLOOR
    assert abs(fine - exact) <= 1.5 / 3 * diff + FLOOR


class TestSteadyDisk:
    # R0 = 3 = 2Q with alpha = beta = 1: modes 2 and 3 grow, 4 decays.
    CASE = dict(radius0=3.0, source=1.5, alpha=1.0, beta=1.0, mu=0.0)
    TAU = 0.01

    def rates(self, l):
        return [discrete_rate(**self.CASE, l=l, h=0.3, tau=tau, T=0.5, q=2)
                for tau in (self.TAU, self.TAU / 2)]

    @pytest.mark.parametrize("l, grows", [(2, True), (3, True), (4, False)])
    def test_rate_is_sigma(self, l, grows):
        exact = sigma(l, 3.0, 1.0, 1.0, 0.0)
        assert exact_rate(**self.CASE, l=l, T=0.5) == pytest.approx(exact, rel=1e-10)
        coarse, fine = self.rates(l)
        assert (coarse > 0) == grows and (fine > 0) == grows
        assert_within_pair(coarse, fine, exact)


# A disk that grows towards R = 2Q = 3, with surface diffusion and
# alpha != 1 != beta; sigma_3 changes along the run.
MOVING = dict(radius0=1.5, source=1.5, alpha=0.7, beta=1.3, mu=0.1, l=3, T=0.3)
TAUS = (0.01, 0.005, 0.0025)


def moving_rate(tau, q):
    return discrete_rate(**MOVING, h=0.15, tau=tau, q=q)


def test_surface_diffusion_case():
    reference = exact_rate(**MOVING)
    assert reference - exact_rate(**{**MOVING, "mu": 0.0}) < -0.1  # mu damps visibly
    assert_within_pair(moving_rate(TAUS[1], 2), moving_rate(TAUS[2], 2), reference)


@pytest.mark.parametrize("q", [
    1,
    2,
    # The bootstrap start steps are accurate to O(tau^2) only, so q = 3
    # converges at order 2 (measured 1.96 and 2.01).
    pytest.param(3, marks=pytest.mark.xfail(
        strict=True, reason="start steps of order 2 cap the tau-order at 2")),
])
def test_tau_order(q):
    errors = np.array([moving_rate(tau, q) for tau in TAUS]) - exact_rate(**MOVING)
    orders = np.log2(np.abs(errors[:-1] / errors[1:]))
    assert np.all(np.abs(orders - q) < 0.1), orders

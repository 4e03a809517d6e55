import numpy as np
import pytest

from bulkgrow.bdf import bdf_coefficients, extrapolate, weighted_sum
from bulkgrow.errors import ValidationError


def discrete_derivative(scheme, history, tau):
    """BDF time derivative (1/tau) sum_j delta_j history[j], newest first."""
    assert len(history) == scheme.order + 1
    return weighted_sum(scheme.delta, history) / tau


def test_order_one_coefficients():
    scheme = bdf_coefficients(1)
    assert np.allclose(scheme.delta, [1.0, -1.0])
    assert np.allclose(scheme.gamma, [1.0])


def test_order_two_coefficients():
    scheme = bdf_coefficients(2)
    assert np.allclose(scheme.delta, [1.5, -2.0, 0.5])
    assert np.allclose(scheme.gamma, [2.0, -1.0])


@pytest.mark.parametrize("q", range(1, 7))
def test_coefficient_identities(q):
    scheme = bdf_coefficients(q)
    assert abs(scheme.delta.sum()) < 1e-12
    assert abs(np.arange(q + 1) @ scheme.delta + 1.0) < 1e-12
    assert abs(scheme.gamma.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("q", range(1, 7))
def test_derivative_exact_on_monomials(q):
    tau = 0.1
    t_n = 1.3
    times = t_n - tau * np.arange(q + 1)
    for power in range(q + 1):
        history = [t ** power for t in times]
        deriv = discrete_derivative(bdf_coefficients(q), history, tau)
        exact = power * t_n ** (power - 1) if power else 0.0
        assert deriv == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))


@pytest.mark.parametrize("q", range(1, 7))
def test_extrapolation_exact_on_polynomials(q):
    tau = 0.05
    t_n = 0.7
    times = t_n - tau * np.arange(1, q + 1)
    for power in range(q):
        history = [t ** power for t in times]
        value = extrapolate(bdf_coefficients(q), history)
        assert value == pytest.approx(t_n ** power, abs=1e-12)


def test_constant_history():
    scheme = bdf_coefficients(3)
    const = [np.full(4, 2.5)] * 4
    assert np.allclose(discrete_derivative(scheme, const, 0.2), 0.0, atol=1e-12)
    assert np.allclose(extrapolate(scheme, const[:3]), 2.5, atol=1e-12)


def test_bdf2_exact_on_quadratic():
    scheme = bdf_coefficients(2)
    tau = 0.1
    history = [0.2 ** 2, 0.1 ** 2, 0.0]
    assert discrete_derivative(scheme, history, tau) == pytest.approx(0.4, abs=1e-14)


def test_vector_history():
    scheme = bdf_coefficients(2)
    hist = [np.array([2.0, 4.0]), np.array([1.0, 2.0])]
    assert np.allclose(extrapolate(scheme, hist), [3.0, 6.0])


def test_validation():
    with pytest.raises(ValidationError):
        bdf_coefficients(0)
    with pytest.raises(ValidationError):
        bdf_coefficients(7)
    with pytest.raises(ValidationError):
        extrapolate(bdf_coefficients(2), [1.0])

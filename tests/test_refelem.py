import math

import numpy as np
import pytest

from bulkgrow.errors import ValidationError
from bulkgrow.refelem import (
    EDGE_VERTICES,
    FACE_NODES,
    adjugate_det,
    determinant,
    local_nodes,
    quadrature_rule,
    reference_element,
    shape_gradients,
    shape_values,
)


def exact_monomial_integral(dim, exponents):
    """Integral of prod(x_i**a_i) over the reference simplex.

    Uses the Dirichlet formula: prod(a_i!) / (d + sum a_i)!.
    """
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(dim + sum(exponents))


def monomial_exponents(dim, total_degree):
    if dim == 1:
        return [(a,) for a in range(total_degree + 1)]
    if dim == 2:
        return [
            (a, b)
            for a in range(total_degree + 1)
            for b in range(total_degree + 1 - a)
        ]
    return [
        (a, b, c)
        for a in range(total_degree + 1)
        for b in range(total_degree + 1 - a)
        for c in range(total_degree + 1 - a - b)
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("quad_degree", [2, 4])
def test_quadrature_exactness(dim, quad_degree):
    pts, wts = quadrature_rule(dim, quad_degree)
    # The measure of the reference d-simplex, 1/d!.
    assert wts.sum() == pytest.approx(1.0 / math.factorial(dim), rel=1e-14)
    for exps in monomial_exponents(dim, quad_degree):
        vals = np.ones(len(pts))
        for axis, a in enumerate(exps):
            vals *= pts[:, axis] ** a
        assert wts @ vals == pytest.approx(
            exact_monomial_integral(dim, exps), rel=1e-13, abs=1e-15
        ), f"monomial {exps} misintegrated"


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(dim, degree):
    elem = reference_element(dim, degree)
    sums = elem.shape.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-14
    grad_sums = elem.grad.sum(axis=1)
    assert np.max(np.abs(grad_sums)) < 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_nodal_interpolation_property(dim, degree):
    nodes = local_nodes(dim, degree)
    vals = shape_values(dim, degree, nodes)
    assert np.allclose(vals, np.eye(len(nodes)), atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_reproduces_quadratics(dim):
    rng = np.random.default_rng(7)
    pts = rng.random((20, dim))
    pts /= np.maximum(1.0, pts.sum(axis=1))[:, None] * 1.01
    coeffs = rng.standard_normal((dim, dim))
    coeffs = coeffs + coeffs.T
    lin = rng.standard_normal(dim)

    def poly(x):
        return x @ lin + np.einsum("pi,ij,pj->p", x, coeffs, x) + 0.75

    nodal = poly(local_nodes(dim, 2))
    interp = shape_values(dim, 2, pts) @ nodal
    assert np.allclose(interp, poly(pts), atol=1e-12)

    grads = shape_gradients(dim, 2, pts)
    exact_grad = lin + 2.0 * pts @ coeffs
    assert np.allclose(np.einsum("pnd,n->pd", grads, nodal), exact_grad, atol=1e-12)


def test_edge_slots_match_midpoints():
    for dim in (1, 2, 3):
        nodes = local_nodes(dim, 2)
        for s, (a, b) in enumerate(EDGE_VERTICES[dim]):
            mid = (nodes[a] + nodes[b]) / 2.0
            assert np.allclose(nodes[dim + 1 + s], mid)


def test_bad_degree_rejected():
    with pytest.raises(ValidationError):
        reference_element(2, 3)
    with pytest.raises(ValidationError):
        reference_element(4, 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_adjugate_det_kernel(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((5, 4, dim, dim))
    adj, det = adjugate_det(a)
    assert np.allclose(det, np.linalg.det(a), rtol=1e-12, atol=1e-13)
    adj = np.moveaxis(np.array(adj), (0, 1), (-2, -1))
    eye = np.broadcast_to(np.eye(dim), a.shape)
    assert np.allclose(adj @ a, det[..., None, None] * eye, atol=1e-12)
    # The det-only path is the same expansion, bit for bit.
    assert np.array_equal(determinant(a), det)


@pytest.mark.parametrize("dim", [2, 3])
def test_face_table(dim):
    nodes = local_nodes(dim, 2)
    bary = np.hstack([1.0 - nodes.sum(axis=1, keepdims=True), nodes])
    for omit, face in enumerate(FACE_NODES[dim]):
        corners, mids = face[:dim], face[dim:]
        assert list(corners) == [v for v in range(dim + 1) if v != omit]
        # Every node of face i lies on the face (barycentric coordinate i is 0).
        assert np.all(bary[face, omit] == 0.0)
        # Midpoints follow the (dim-1)-simplex's edge order.
        for mid, (a, b) in zip(mids, EDGE_VERTICES[dim - 1], strict=True):
            assert np.array_equal(nodes[mid], (nodes[corners[a]] + nodes[corners[b]]) / 2)

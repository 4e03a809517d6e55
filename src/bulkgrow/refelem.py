"""Reference simplices: Lagrange shape functions and quadrature rules.

The reference simplex in dimension d has vertices at the origin and the unit
coordinate vectors.  Local node ordering is vertices first, then edge
midpoints in the order given by ``EDGE_VERTICES[d]`` (the same ordering used
by VTK quadratic cells).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
import math

import numpy as np

from .errors import ValidationError

# Edge slots for quadratic elements, per simplex dimension.
EDGE_VERTICES = {
    1: ((0, 1),),
    2: ((0, 1), (1, 2), (2, 0)),
    3: ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)),
}


def _face_nodes(dim):
    slot = {frozenset(e): dim + 1 + s for s, e in enumerate(EDGE_VERTICES[dim])}
    corners = [[v for v in range(dim + 1) if v != omit] for omit in range(dim + 1)]
    table = np.array([
        c + [slot[frozenset((c[a], c[b]))] for a, b in EDGE_VERTICES[dim - 1]]
        for c in corners
    ])
    table.setflags(write=False)
    return table


#: Faces of the reference d-simplex, d = 2, 3, as read-only (d+1, n) arrays;
#: face i omits vertex i.  A row lists the face's corners in ascending order,
#: then the midpoint slots of its edges in ``EDGE_VERTICES[d - 1]`` order, i.e.
#: the face's nodes in the local order of a degree-2 (d-1)-simplex.  Degree 1
#: uses the first d entries.
FACE_NODES = {dim: _face_nodes(dim) for dim in (2, 3)}

def gram(jac):
    """Metric tensors G = J^T J of a batch of (..., D, r) Jacobians.

    Each entry is formed as one contiguous (...)-shaped array, as the
    component-major Jacobians give them; returns the (..., r, r) view.
    """
    r = jac.shape[-1]
    out = np.empty((r, r) + jac.shape[:-2])
    for a in range(r):
        for b in range(a, r):
            entry = out[a, b]
            np.multiply(jac[..., 0, a], jac[..., 0, b], out=entry)
            for k in range(1, jac.shape[-2]):
                entry += jac[..., k, a] * jac[..., k, b]
            out[b, a] = entry
    return np.moveaxis(out, (0, 1), (-2, -1))


def _adjugate_entry(a, i, j):
    """Entry (i, j) of adj(a) for a batch of (..., d, d) matrices, d in 1..3."""
    d = a.shape[-1]
    if d == 1:
        return np.ones(a.shape[:-2])
    if d == 2:
        return a[..., 1 - i, 1 - i] if i == j else -a[..., i, j]
    j1, j2, i1, i2 = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
    return a[..., j1, i1] * a[..., j2, i2] - a[..., j1, i2] * a[..., j2, i1]


def _expand_first_row(a, adjugate_column):
    """det(a) = sum_k a[0, k] adj(a)[k, 0], accumulated in k order.

    ``adjugate_column(k)`` returns adj(a)[k, 0]; a fresh array from it is
    multiplied and summed in place, which keeps large batches cheap.
    """
    det = a[..., 0, 0] * adjugate_column(0)
    for k in range(1, a.shape[-1]):
        det += a[..., 0, k] * adjugate_column(k)
    return det


def determinant(a):
    """Determinants of a batch of (..., d, d) matrices, d in 1..3.

    Expands along the first row, so only the first adjugate column is formed;
    bitwise equal to the determinant returned by :func:`adjugate_det`.
    """
    return _expand_first_row(a, lambda k: _adjugate_entry(a, k, 0))


def adjugate_det(a):
    """Adjugates and determinants of a batch of (..., d, d) matrices, d in 1..3.

    Returns (adj, det) with adj[i][j] the (...)-shaped array of adjugate
    entry (i, j), so that a^-1[..., i, j] = adj[i][j] / det where det != 0.
    Entries stay separate arrays (in 2d, views of ``a``) because callers
    combine them entrywise.
    """
    d = a.shape[-1]
    adj = [[_adjugate_entry(a, i, j) for j in range(d)] for i in range(d)]
    return adj, _expand_first_row(a, lambda k: adj[k][0])


def nodes_per_element(dim, degree):
    """Number of Lagrange nodes on the reference simplex."""
    n_vert = dim + 1
    if degree == 1:
        return n_vert
    if degree == 2:
        return n_vert + len(EDGE_VERTICES[dim])
    raise ValidationError(f"unsupported polynomial degree {degree}")


def shape_values(dim, degree, points):
    """Evaluate the shape functions at reference points, shape (n_pts, n_nodes)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.empty((pts.shape[0], dim + 1))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    if degree == 1:
        return lam
    vert = lam * (2.0 * lam - 1.0)
    mids = np.stack([4.0 * lam[:, a] * lam[:, b] for a, b in EDGE_VERTICES[dim]], axis=1)
    return np.hstack([vert, mids])


def shape_gradients(dim, degree, points):
    """Reference gradients of the shape functions, shape (n_pts, n_nodes, dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = pts.shape[0]
    lam = np.empty((n_pts, dim + 1))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    dlam = np.vstack([-np.ones(dim), np.eye(dim)])  # (dim+1, dim), constant
    if degree == 1:
        return np.broadcast_to(dlam, (n_pts, dim + 1, dim)).copy()
    grads = np.empty((n_pts, nodes_per_element(dim, degree), dim))
    for i in range(dim + 1):
        grads[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
    for s, (a, b) in enumerate(EDGE_VERTICES[dim]):
        grads[:, dim + 1 + s, :] = 4.0 * (
            lam[:, a][:, None] * dlam[b] + lam[:, b][:, None] * dlam[a]
        )
    return grads


# Symmetric rules on the reference triangle and tetrahedron, keyed by
# (dimension, degree integrated exactly): each orbit is a barycentric
# generator and the weight of each of its points (Dunavant, IJNME 21 (1985);
# Keast, CMAME 55 (1986)).
_TRI_A, _TRI_B = 0.445948490915965, 0.091576213509771
_TET_A, _TET_B = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0, (5.0 - math.sqrt(5.0)) / 20.0
_TET_C, _TET_D = (1.0 + math.sqrt(5.0 / 14.0)) / 4.0, (1.0 - math.sqrt(5.0 / 14.0)) / 4.0
_ORBITS = {
    (2, 2): [((2 / 3, 1 / 6, 1 / 6), 1 / 6)],
    (2, 4): [((1 - 2 * _TRI_A, _TRI_A, _TRI_A), 0.223381589678011 / 2.0),
             ((1 - 2 * _TRI_B, _TRI_B, _TRI_B), 0.109951743655322 / 2.0)],
    (3, 2): [((_TET_A, _TET_B, _TET_B, _TET_B), 1 / 24)],
    (3, 4): [((0.25, 0.25, 0.25, 0.25), -74.0 / 5625.0),
             ((11.0 / 14.0, 1.0 / 14.0, 1.0 / 14.0, 1.0 / 14.0), 343.0 / 45000.0),
             ((_TET_C, _TET_C, _TET_D, _TET_D), 56.0 / 2250.0)],
}
_SIMPLEX = {2: "triangle", 3: "tetrahedron"}


def quadrature_rule(dim, degree):
    """Points and weights exact for polynomials of the given total degree.

    Weights sum to the reference simplex measure.  The segment takes
    Gauss-Legendre; a triangle or tetrahedron takes the ``_ORBITS`` rule of
    least degree >= ``degree``.  An orbit expands to the distinct
    permutations of its generator in first-seen order, each with the orbit's
    weight; a point is a permutation less its first barycentric coordinate.
    """
    if dim == 1:
        n = max(1, math.ceil((degree + 1) / 2))
        x, w = np.polynomial.legendre.leggauss(n)
        return (x[:, None] + 1.0) / 2.0, w / 2.0
    if dim not in _SIMPLEX:
        raise ValidationError(f"unsupported simplex dimension {dim}")
    exact = min((d for m, d in _ORBITS if m == dim and d >= degree), default=None)
    if exact is None:
        raise ValidationError(f"no {_SIMPLEX[dim]} rule of degree {degree}")
    points, weights = zip(*((bary[1:], weight) for generator, weight in _ORBITS[dim, exact]
                            for bary in dict.fromkeys(permutations(generator))))
    return np.array(points), np.array(weights)


@dataclass(frozen=True)
class ReferenceElement:
    """Shape-function and quadrature data on one reference simplex."""

    dim: int
    degree: int
    quad_weights: np.ndarray   # (n_qp,)
    shape: np.ndarray          # (n_qp, n_nodes)
    grad: np.ndarray           # (n_qp, n_nodes, dim)

    @property
    def n_nodes(self):
        return self.shape.shape[1]

    @property
    def n_qp(self):
        return self.quad_weights.size


@lru_cache(maxsize=None)
def reference_element(dim, degree):
    """Build (and cache) a reference element.

    The quadrature rule has degree ``2 * degree``, which integrates the mass
    matrix exactly on affine elements.
    """
    if degree not in (1, 2):
        raise ValidationError(f"unsupported polynomial degree {degree}")
    if dim not in (1, 2, 3):
        raise ValidationError(f"unsupported simplex dimension {dim}")
    pts, wts = quadrature_rule(dim, 2 * degree)
    elem = ReferenceElement(
        dim=dim,
        degree=degree,
        quad_weights=wts,
        shape=shape_values(dim, degree, pts),
        grad=shape_gradients(dim, degree, pts),
    )
    for arr in (elem.quad_weights, elem.shape, elem.grad):
        arr.setflags(write=False)
    return elem

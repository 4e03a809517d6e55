"""Sparse symmetric positive definite solves.

Matrices are scipy CSR matrices with structurally symmetric patterns.  Two
solve paths share one residual contract, ||Ax - b|| <= TOL * ||b|| with
``TOL = 1e-11``, the accuracy every linear system of the scheme is solved to:

* :class:`SpdFactor` -- a direct sparse factorization, for one-off systems
  and for matrices solved against many right-hand sides;
  :func:`solve_spd` is the one-off form, ``SpdFactor(matrix).solve(rhs)``.
  The factor's precision follows its matrix: a float64 matrix gives a
  float64 factor, a float32 matrix a float32 one.
* :class:`CachedSpdSolver` -- conjugate gradients from a caller's initial
  guess, preconditioned by a float32 factorization that is refreshed only
  when convergence degrades; used inside the time loop where the matrix
  drifts slowly between steps and the extrapolated fields of the BDF scheme
  are good guesses.  A low-precision factor inside a float64 residual loop
  costs iterations, not accuracy (Carson & Higham, SIAM J. Sci. Comput. 40
  (2018)), while it stores its values in half the bytes and factors and
  applies faster.

Every solve verifies the float64 true residual of each right-hand-side
column before returning.

Both paths factor in SuperLU's minimum-degree ordering unless the caller
passes a permutation.  The ordering is chosen per dimension, by measurement:
on 3d volume meshes minimum degree fills badly, and the Robin matrix and
interior stiffness block are factored in the mesh's
:func:`nested_dissection` ordering, computed once per mesh from its node
coordinates (P2 ball, 24,389 nodes: fill 34x -> 28x, factor time 2.4x
lower; P1 ball of the same size: 112x -> 40x).  In 2d and on the surface
pencil minimum degree is the faster one and is kept.

:func:`dirichlet_extension` solves a Dirichlet problem on a boundary-first
partitioned matrix with whichever of these the caller binds to the interior
block.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError, ValidationError

#: Relative true-residual target of every solve.
TOL = 1e-11

_SPLU_OPTS = dict(
    permc_spec="MMD_AT_PLUS_A",
    options={"SymmetricMode": True},
)

# A matrix reordered beforehand: SuperLU keeps the order and its diagonal
# pivots, which an SPD matrix can always take.
_SPLU_ORDERED_OPTS = dict(
    permc_spec="NATURAL",
    diag_pivot_thresh=0.0,
    options={"SymmetricMode": True},
)

# Largest node set that nested_dissection orders without splitting it.
_DISSECTION_LEAF = 16


def nested_dissection(graph, points):
    """Fill-reducing ordering of a mesh graph by coordinate bisection.

    Recursively splits the nodes at the median of their longest coordinate
    extent.  The split is by value, so nodes with equal coordinates stay on
    one side; those at the median go to the lower half.  The separator is
    one-sided: the nodes of the lower half with a neighbour in the upper
    half.  Each split orders the rest of the lower half first, then the
    upper half, then the separator, down to leaves of 16 nodes, which keep
    their index order.  Separators of a volume mesh are surfaces, which is
    why nested dissection fills less than minimum degree there (George,
    SIAM J. Numer. Anal. 10 (1973)).

    Parameters
    ----------
    graph : scipy sparse matrix, (n, n)
        Its nonzero pattern gives the neighbours of each node; the values
        are ignored.
    points : ndarray, (n, d)
        Node coordinates.

    Returns ``perm``, a permutation of ``range(n)``: the new i-th node is the
    old node ``perm[i]``, so ``matrix[perm][:, perm]`` is the reordered matrix.
    """
    graph = sp.csr_matrix(graph)
    points = np.asarray(points, dtype=float)
    n = graph.shape[0]
    if graph.shape != (n, n) or points.ndim != 2 or points.shape[0] != n:
        raise ValidationError("graph and points must describe the same nodes")
    pattern = sp.csr_matrix(
        (np.ones(graph.nnz), graph.indices, graph.indptr), shape=graph.shape
    )
    upper = np.zeros(n)  # indicator of the upper half being split
    order = []

    def dissect(nodes):
        if nodes.size <= _DISSECTION_LEAF:
            order.append(np.sort(nodes))
            return
        coords = points[nodes]
        c = coords[:, np.argmax(coords.max(axis=0) - coords.min(axis=0))]
        below = c <= np.median(c)
        if below.all():  # over half the nodes share the largest value
            below = c < c.max()
        if not below.any():  # the nodes coincide; nothing to split
            order.append(np.sort(nodes))
            return
        lower, higher = nodes[below], nodes[~below]
        upper[higher] = 1.0
        cut = (pattern[lower] @ upper) > 0.0
        upper[higher] = 0.0
        dissect(lower[~cut])
        dissect(higher)
        order.append(np.sort(lower[cut]))

    dissect(np.arange(n))
    return np.concatenate(order)


def _column_norms(a):
    """2-norm of each column of ``a`` (of ``a`` itself if 1d), without a
    squared copy of it."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


def _pcg(matrix, rhs, precondition, maxiter, x0):
    """Preconditioned conjugate gradients from ``x0``; returns (x, iterations,
    residual), with the largest relative true residual over the columns.

    Handles 2d right-hand sides column by column with batched matrix and
    preconditioner applications (scalars become per-column vectors), which is
    exact columnwise CG at a fraction of the traversal cost.  Zero columns of
    ``rhs`` have the zero solution, whatever their guess.
    """
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    b_norm = np.sqrt((b * b).sum(axis=0))
    target = TOL * b_norm
    x = (x0[:, None] if single else x0).copy()
    x[:, b_norm == 0.0] = 0.0
    r = b - matrix @ x
    it = 0
    res0 = np.sqrt((r * r).sum(axis=0))
    if np.any(res0 > 0.25 * target):
        z = precondition(r)
        p = z.copy()
        rz = (r * z).sum(axis=0)
        for it in range(1, maxiter + 1):
            ap = matrix @ p
            pap = (p * ap).sum(axis=0)
            alpha = np.where(pap > 0.0, rz / np.where(pap > 0.0, pap, 1.0), 0.0)
            x += alpha * p
            r -= alpha * ap
            res = np.sqrt((r * r).sum(axis=0))
            if np.all(res <= 0.25 * target):
                break
            z = precondition(r)
            rz_new = (r * z).sum(axis=0)
            beta = np.where(rz > 0.0, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
            p = z + beta * p
            rz = rz_new
    true = b - matrix @ x
    true_res = np.sqrt((true * true).sum(axis=0)) / np.where(b_norm > 0.0, b_norm, 1.0)
    return (x[:, 0] if single else x), it, float(true_res.max())


class SpdFactor:
    """Direct sparse LU factorization of an SPD matrix with residual checks.

    The factorization is computed in the matrix's own dtype.  Without
    ``perm`` SuperLU orders the matrix by minimum degree; with a permutation
    (such as :func:`nested_dissection`'s) it factors ``matrix[perm][:, perm]``
    in that order, and right-hand sides and solutions are permuted to match.
    Raises SolverError for a non-positive diagonal entry, which no SPD
    matrix has.
    """

    def __init__(self, matrix, perm=None):
        self.matrix = matrix.tocsr()
        if (self.matrix.diagonal() <= 0).any():
            raise SolverError("non-positive diagonal entry; matrix is not SPD")
        self._perm = perm
        if perm is None:
            self._lu = spla.splu(sp.csc_matrix(self.matrix), **_SPLU_OPTS)
        else:
            reordered = self.matrix[perm][:, perm]
            self._lu = spla.splu(sp.csc_matrix(reordered), **_SPLU_ORDERED_OPTS)
            self._inverse_perm = np.argsort(perm)

    def apply_inverse(self, rhs):
        """One triangular solve in the factor's precision, returned in
        float64; no residual verification (preconditioner use)."""
        rhs = rhs.astype(self.matrix.dtype, copy=False)
        if self._perm is None:
            x = self._lu.solve(rhs)
        else:
            x = self._lu.solve(rhs[self._perm])[self._inverse_perm]
        return x.astype(np.float64, copy=False)

    def solve(self, rhs):
        """Solve for ``rhs``; each column of a 2d array must meet ``TOL`` in
        float64, which a float32 factor cannot."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.matrix.shape[0]:
            raise ValidationError("rhs length does not match matrix dimension")
        x = self.apply_inverse(rhs)
        b_norm = _column_norms(rhs)
        if not b_norm.any():
            return np.zeros_like(rhs)
        r = self.matrix @ x
        r -= rhs
        res = _column_norms(r) / np.where(b_norm > 0.0, b_norm, 1.0)
        if np.any(res > TOL):
            raise SolverError("factorized solve residual too large", residual=res.max())
        return x


def solve_spd(matrix, rhs):
    """One-off SPD solve: ``SpdFactor(matrix).solve(rhs)``."""
    return SpdFactor(matrix).solve(rhs)


class CachedSpdSolver:
    """PCG preconditioned by a lazily refreshed float32 factorization.

    Designed for sequences of SPD systems whose matrices drift slowly (moving
    meshes): the factorization of an earlier matrix remains an excellent
    preconditioner for many steps.  Every solve, the first included, runs PCG
    from the caller's initial guess to the float64 ``TOL`` of each column.
    The factorization is refreshed when PCG needs more than ``REFRESH_ITERS``
    iterations, and the current solve is repeated with the fresh factor.
    Every factorization uses the fill-reducing ``perm`` given here (see
    :class:`SpdFactor`).  Deterministic for a fixed call sequence.
    """

    #: PCG iterations beyond which the factorization is refreshed.
    REFRESH_ITERS = 12

    def __init__(self, perm=None):
        self._perm = perm
        self._factor = None

    def solve(self, matrix, rhs, x0):
        """Solve ``matrix x = rhs`` starting from the guess ``x0`` (the shape
        of ``rhs``); SolverError if a fresh factor cannot reach ``TOL``."""
        matrix = matrix.tocsr()
        rhs = np.asarray(rhs, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != rhs.shape:
            raise ValidationError("initial guess shape does not match rhs")

        def pcg():
            return _pcg(matrix, rhs, self._factor.apply_inverse,
                        maxiter=2 * self.REFRESH_ITERS, x0=x0)

        if self._factor is not None:
            x, iters, residual = pcg()
            if residual <= TOL and iters <= self.REFRESH_ITERS:
                return x
        self._factor = SpdFactor(matrix.astype(np.float32), self._perm)
        x, _, residual = pcg()
        if residual > TOL:
            raise SolverError("PCG with a fresh factor did not reach TOL",
                              residual=residual)
        return x


def dirichlet_extension(coupling, trace, solve_interior):
    """Solve a Dirichlet problem for a boundary-first partitioned SPD matrix.

    Returns the full vector v with v[:n_boundary] = trace and
    A_II v_I = -A_IB trace on the interior block.

    Parameters
    ----------
    coupling : scipy sparse matrix, (N - n_boundary, n_boundary)
        The interior-boundary block A_IB.
    trace : ndarray, (n_boundary,) or (n_boundary, c)
        Prescribed trace; each column is extended.
    solve_interior : callable
        ``solve_interior(rhs)`` returns A_II^-1 rhs for a right-hand side of
        the shape of ``trace`` restricted to the interior.  The caller binds
        A_II, so it chooses where the block is formed and factorized.
    """
    trace = np.asarray(trace, dtype=float)
    n_interior, n_boundary = coupling.shape
    if trace.shape[0] != n_boundary:
        raise ValidationError("trace length does not match the boundary block")
    out = np.empty((n_boundary + n_interior,) + trace.shape[1:])
    out[:n_boundary] = trace
    rhs = coupling @ trace
    out[n_boundary:] = solve_interior(np.negative(rhs, out=rhs))
    return out

"""Sparse symmetric positive definite solves.

Matrices are scipy CSR matrices with structurally symmetric patterns.  Every
solve meets one contract, ||Ax - b|| <= TOL * ||b|| in the float64 true
residual of each right-hand-side column with ``TOL = 1e-11``, the accuracy
every linear system of the scheme is solved to, or raises SolverError.  One
loop keeps it, :func:`_pcg`: conjugate gradients from a guess, preconditioned
by a sparse LU factorization, which returns a guess within a quarter of the
bound as it is.  The two solve paths differ only in how long their factor
lives:

* :class:`SpdFactor` -- one factorization for one matrix, for one-off
  systems and for matrices solved against many right-hand sides;
  :func:`solve_spd` is the one-off form, ``SpdFactor(matrix).solve(rhs)``.
  Its guess is the direct solution.  The factor's precision follows its
  matrix: a float64 matrix gives a float64 factor, a float32 matrix a
  float32 one.
* :class:`CachedSpdSolver` -- one float32 factorization kept across a
  sequence of matrices and refreshed only when convergence degrades; used
  inside the time loop where the matrix drifts slowly between steps and the
  extrapolated fields of the BDF scheme are good guesses.

A direct solve finished by PCG on its own factor generalizes iterative
refinement, and a low-precision factor inside the float64 residual loop
costs iterations, not accuracy (Carson & Higham, SIAM J. Sci. Comput. 40
(2018)), while it stores its values in half the bytes and factors and
applies faster.

Both paths factor in SuperLU's minimum-degree ordering unless the caller
passes a permutation.  The ordering follows the dimension and the node
count, by measurement: on 3d volume meshes, and on 2d meshes of at least
50,000 nodes, the Robin matrix and interior stiffness block are factored in
the mesh's :func:`nested_dissection` ordering, computed once per mesh from
its node coordinates.  Its separators are minimum vertex covers of the
edges that cross each coordinate split (Karypis & Kumar, SIAM J. Sci.
Comput. 20 (1998)).  On the P2 ball of 24,389 nodes the Robin matrix fills
21x against minimum degree's 34x, and its float32 factor takes 1.0 s
against 3.8 s; on a P1 ball of the same size, 36x against 112x.  In 2d the
advantage grows with the mesh: on the P2 disk of 77,281 nodes L fills 8.3x
against 14.5x and its float32 factor takes 0.37 s against 1.12 s, while at
30,301 nodes the cheaper factorizations do not yet pay for the ordering and
the slower interior solves.  Smaller 2d meshes and the surface pencil keep
minimum degree.

:func:`dirichlet_extension` solves a Dirichlet problem on a boundary-first
partitioned matrix with whichever of these the caller binds to the interior
block.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

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

# PCG iterations a solve may take before it fails: twice the iterations past
# which CachedSpdSolver refreshes its factor.
_MAXITER = 24

# Largest node set that nested_dissection orders without splitting it.
_DISSECTION_LEAF = 16


def _crossing_cover(lower, upper, n):
    """Minimum vertex cover of the bipartite graph of the edges
    ``lower[i]``--``upper[i]`` between two node sets, whose nodes are
    numbered below ``n``.  Returns the covering nodes, sorted.

    König's construction from a maximum matching: Z holds the nodes that
    alternating paths reach from the unmatched lower nodes (any edge from a
    lower node, the matched edge from an upper one), and the cover is the
    lower nodes outside Z with the upper nodes inside it, one node for each
    matched edge.
    """
    if lower.size == 0:
        return np.empty(0, dtype=np.intp)
    edges = sp.csr_matrix((np.ones(lower.size, bool), (lower, upper)), shape=(n, n))
    mate = maximum_bipartite_matching(edges, perm_type="row")  # of each upper node
    matched = np.zeros(n, dtype=bool)
    matched[mate[mate >= 0]] = True
    free = np.unique(lower[~matched[lower]])
    # The alternating paths as a graph on the lower nodes, u -> the mate of
    # each upper neighbour of u, searched from an extra node n joined to the
    # unmatched ones.
    hop = mate[upper] >= 0
    paths = sp.csr_matrix(
        (
            np.ones(np.count_nonzero(hop) + free.size, bool),
            (np.concatenate((lower[hop], np.full(free.size, n))),
             np.concatenate((mate[upper[hop]], free))),
        ),
        shape=(n + 1, n + 1),
    )
    in_z = np.zeros(n + 1, dtype=bool)
    in_z[breadth_first_order(paths, n, return_predecessors=False)] = True
    reached = in_z[lower]
    cover = np.zeros(n, dtype=bool)
    cover[lower[~reached]] = True
    cover[upper[reached]] = True
    return np.flatnonzero(cover)


def nested_dissection(graph, points):
    """Fill-reducing ordering of a mesh graph by coordinate bisection.

    Recursively splits the nodes at the median of their longest coordinate
    extent.  The split is by value, so nodes with equal coordinates stay on
    one side; those at the median go to the lower half.  The separator is a
    minimum vertex cover of the edges between the two halves
    (:func:`_crossing_cover`), the smallest separator the split allows; it
    may take nodes from both halves.  Karypis & Kumar (SIAM J. Sci. Comput.
    20 (1998)) turn an edge separator into a vertex separator the same way.
    Each split orders the rest of the lower half first, then the rest of the
    upper half, then the separator, down to leaves of 16 nodes.  Leaves and
    separators keep their index order.  Separators of a volume mesh are
    surfaces, which is why nested dissection fills less than minimum degree
    there (George, SIAM J. Numer. Anal. 10 (1973)).  On P2 tetrahedra every
    node couples to every node of its elements, so the cover is much thinner
    than a one-sided separator, the lower nodes with an upper neighbour: on
    the P2 ball of 24,389 nodes it takes the LU fill of the Robin matrix
    from 28x to 21x and its float32 factorization from 1.5 s to 1.0 s, and
    on the ball of 68,921 nodes the fill from 45x to 33x.

    The splits of one depth are made together, on the edge list of the
    pattern, with one matching for all of their crossings; the order is the
    one the recursion gives.

    Parameters
    ----------
    graph : scipy sparse matrix, (n, n)
        Its nonzero pattern, structurally symmetric, gives the neighbours of
        each node; the values are ignored.
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
    # Each edge once, as tail < head.
    tails = np.repeat(np.arange(n, dtype=np.int32), np.diff(graph.indptr))
    heads = graph.indices.astype(np.int32, copy=False)
    once = tails < heads
    tails, heads = tails[once], heads[once]
    # perm[start:start + size] holds the nodes of each segment to split.
    perm = np.arange(n)
    starts, sizes = np.zeros(1, dtype=np.intp), np.array([n])
    segment = np.empty(n, dtype=np.intp)  # of each node being split, else -1
    lower = np.zeros(n, dtype=bool)
    while True:
        big = sizes > _DISSECTION_LEAF
        starts, sizes = starts[big], sizes[big]
        k = sizes.size
        if k == 0:
            return perm
        offsets = np.cumsum(sizes) - sizes  # of each segment in `nodes`
        seg = np.repeat(np.arange(k), sizes)
        where = np.repeat(starts - offsets, sizes) + np.arange(seg.size)
        nodes = perm[where]

        coords = points[nodes]
        extent = np.maximum.reduceat(coords, offsets) - np.minimum.reduceat(coords, offsets)
        c = coords[np.arange(nodes.size), np.argmax(extent, axis=1)[seg]]
        ranked = c[np.lexsort((c, seg))]
        median = (ranked[offsets + (sizes - 1) // 2] + ranked[offsets + sizes // 2]) / 2
        below = c <= median[seg]
        # Over half of the segment shares its largest value: split that off.
        crowded = (np.bincount(seg[below], minlength=k) == sizes)[seg]
        below[crowded] = c[crowded] < ranked[offsets + sizes - 1][seg[crowded]]

        # Keep the edges inside a segment; find those crossing its split.
        segment.fill(-1)
        segment[nodes] = seg
        tail_seg = segment[tails]
        inside = (tail_seg >= 0) & (tail_seg == segment[heads])
        tails, heads = tails[inside], heads[inside]
        lower[nodes] = below
        tail_low = lower[tails]
        crossing = tail_low != lower[heads]
        lower[nodes] = False
        t, h, t_low = tails[crossing], heads[crossing], tail_low[crossing]
        separator = np.zeros(n, dtype=bool)
        separator[_crossing_cover(np.where(t_low, t, h), np.where(t_low, h, t), n)] = True

        # Each segment becomes [lower rest, upper rest, separator]; a segment
        # with no node below holds coincident nodes and is not split.
        part = np.where(separator[nodes], 2, np.where(below, 0, 1))
        perm[where] = nodes[np.lexsort((nodes, part, seg))]
        counts = np.bincount(3 * seg + part, minlength=3 * k).reshape(k, 3)
        split = counts[:, 1] < sizes
        starts = np.column_stack((starts, starts + counts[:, 0]))[split].ravel()
        sizes = counts[split, :2].ravel()


def _column_norms(a):
    """2-norm of each column of ``a`` (of ``a`` itself if 1d), without a
    squared copy of it."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


def _pcg(matrix, rhs, precondition, x0):
    """Preconditioned conjugate gradients from ``x0``; returns (x, iterations,
    residual), with the largest relative true residual over the columns.

    Handles 2d right-hand sides column by column with batched matrix and
    preconditioner applications (scalars become per-column vectors), which is
    exact columnwise CG at a fraction of the traversal cost.  Zero columns of
    ``rhs`` have the zero solution, whatever their guess.  A guess that meets
    a quarter of ``TOL`` is returned as it is.
    """
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    b_norm = _column_norms(b)
    target = TOL * b_norm
    x = (x0[:, None] if single else x0).copy()
    x[:, b_norm == 0.0] = 0.0
    r = b - matrix @ x
    it = 0
    res = _column_norms(r)
    if np.any(res > 0.25 * target):
        z = precondition(r)
        p = z.copy()
        rz = (r * z).sum(axis=0)
        for it in range(1, _MAXITER + 1):
            ap = matrix @ p
            pap = (p * ap).sum(axis=0)
            alpha = np.where(pap > 0.0, rz / np.where(pap > 0.0, pap, 1.0), 0.0)
            x += alpha * p
            r -= alpha * ap
            res = _column_norms(r)
            if np.all(res <= 0.25 * target):
                break
            z = precondition(r)
            rz_new = (r * z).sum(axis=0)
            beta = np.where(rz > 0.0, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
            p = z + beta * p
            rz = rz_new
        res = _column_norms(b - matrix @ x)
    residual = res / np.where(b_norm > 0.0, b_norm, 1.0)
    return (x[:, 0] if single else x), it, float(residual.max())


class SpdFactor:
    """Direct sparse LU factorization of an SPD matrix, with verified solves.

    ``solve`` runs the one PCG loop from the direct solution, preconditioned
    by this factor, so every factor meets ``TOL`` or raises, a float32 one
    included.  The factorization is computed in the matrix's own dtype.
    Without ``perm`` SuperLU orders the matrix by minimum degree; with a
    permutation (such as :func:`nested_dissection`'s) it factors
    ``matrix[perm][:, perm]`` in that order, and right-hand sides and
    solutions are permuted to match.  Raises SolverError for a non-positive
    diagonal entry, which no SPD matrix has.
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
        float64.  The direct solution is returned as it is when it meets a
        quarter of ``TOL``, and is otherwise finished by PCG on this factor."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.matrix.shape[0]:
            raise ValidationError("rhs length does not match matrix dimension")
        x, _, residual = _pcg(self.matrix, rhs, self.apply_inverse,
                              x0=self.apply_inverse(rhs))
        if residual > TOL:
            raise SolverError("factorized solve residual too large", residual=residual)
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
            return _pcg(matrix, rhs, self._factor.apply_inverse, x0=x0)

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

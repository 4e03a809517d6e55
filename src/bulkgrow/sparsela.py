"""Sparse symmetric positive definite solves.

Matrices are scipy CSR matrices with structurally symmetric patterns.  Every
solve meets one contract, ||Ax - b|| <= TOL * ||b|| in the float64 true
residual of each right-hand-side column with ``TOL = 1e-11``, the accuracy
every linear system of the scheme is solved to, or raises SolverError.  One
loop keeps it, :func:`_pcg`: conjugate gradients from a guess, preconditioned
by a sparse factorization, which returns a guess within a quarter of the
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
  inside the time loop, where the matrix drifts slowly between steps and
  the stepper's extrapolations of its previous solutions are good guesses.
* Both solve a block of right-hand sides, (n, c), as columnwise CG on its
  columns held as contiguous (c, n) rows, and a single column, 1d or
  (n, 1), bitwise as before.  numpy reduces an (n, c) array along axis 0
  with an inner loop over only its c columns: on the ``sim2d`` interior
  block (10,621 x 2, one thread) a column dot took 186 us that way against
  13 us along rows, and ``x += alpha * p`` 77 us against 13 us.  In 10
  alternating benchmark pairs the ``sim2d`` step median fell from 11.93 to
  11.14 ms (lower in all 10), and in 6 the ``sim3d`` one by 1.6% (5 of 6).

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
against 14.5x and its float32 factor takes 0.37 s against 1.12 s.  On P2
unit disks of 30,301 / 48,007 / 77,281 nodes (one thread, best of 5,
ordering included) a float64 stability sweep level took 1.35 / 3.05 / 5.09
s in minimum degree and 1.36 / 2.65 / 4.55 s in nested dissection, and 300
applies each of the float32 L and A_II 4.14 / 9.51 / 14.9 s against
4.76 / 9.40 / 14.1 s: below about 48k nodes A_II's solves, slower in this
ordering, outweigh the cheaper factorizations.  So 2d meshes switch at
50,000 nodes (``mesh._MIN_DISSECTION_NODES_2D``); smaller ones and the
surface pencil keep minimum degree.

The factor follows the dimension as well.  In 3d the Robin matrix and the
interior block, in the time loop and in the stability sweeps, get a
supernodal multifrontal Cholesky factor on the separator tree of their
:class:`Dissection`, with dense LAPACK fronts, that stores L alone
(:class:`_SupernodalCholesky`).  On the ``sim3d`` ball it factors the
float32 Robin matrix 3.7-3.9x faster than SuperLU, stores 9.1M entries
against 13.9M, and applies to 1 column in 0.69-0.75 and to 3 columns in
0.57-0.64 of its time.
Every 2d system and the surface pencil stay on SuperLU, because their
solves outnumber their factorizations: on the P2 disk of 77,281 nodes the
float64 Cholesky factor of L took 0.28 s against SuperLU's 0.76 s, but
45 ms against 27 ms per 1-column apply over its 1,323 fronts, and stored
8.4M entries against 7.4M.

:func:`dirichlet_extension` solves a Dirichlet problem on a boundary-first
partitioned matrix with whichever of these the caller binds to the interior
block.
"""

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack
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

# PCG iterations a solve may take before it fails: twice the iterations a
# cached factor gets before CachedSpdSolver refreshes it.
_MAXITER = 24

# Largest node set that nested_dissection orders without splitting it.
_DISSECTION_LEAF = 16

# Largest subtree of the dissection tree that the Cholesky factor holds as
# one dense front.  On the sim3d matrices (float32, one thread) 64 gave
# slower 1-column applies, from twice the fronts, and 256 stored more
# explicit zeros.
_FRONT_COLUMNS = 128

# Child update columns extend-added into a parent front at a time.
_EXTEND_COLUMNS = 64

# Fronts of more columns solve a multi-column right-hand side one column at
# a time (trsv), narrower ones all columns in one trsm: for 3 columns OpenBLAS
# trsm took 13 us against 16 us at 110 columns, 90 us against 52 us at 400.
_TRSV_COLUMNS = 160


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

    Returns the :class:`Dissection` ``(perm, tree)``.  ``perm`` is a
    permutation of ``range(n)``: the new i-th node is the old node
    ``perm[i]``, so ``matrix[perm][:, perm]`` is the reordered matrix.
    ``tree`` is its :class:`DissectionTree`, one node per split segment
    (owning its separator) and per leaf.
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
    # perm[start:start + size] holds the nodes of each segment to split, a
    # child of tree node `parents`.
    perm = np.arange(n)
    starts, sizes, parents = np.zeros(1, dtype=np.intp), np.array([n]), np.array([-1])
    segment = np.empty(n, dtype=np.intp)  # of each node being split, else -1
    lower = np.zeros(n, dtype=bool)
    nodes_of_depth = []  # (start, own, stop, parent) of the tree nodes found
    n_tree = 0
    while True:
        big = sizes > _DISSECTION_LEAF
        leaf = ~big & (sizes > 0)
        nodes_of_depth.append((starts[leaf], starts[leaf], starts[leaf] + sizes[leaf],
                               parents[leaf]))
        n_tree += np.count_nonzero(leaf)
        starts, sizes, parents = starts[big], sizes[big], parents[big]
        k = sizes.size
        if k == 0:
            return Dissection(perm, DissectionTree(*(np.concatenate(column).astype(np.intp)
                                                     for column in zip(*nodes_of_depth))))
        ids = n_tree + np.arange(k)
        n_tree += k
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
        own = np.where(split, starts + counts[:, 0] + counts[:, 1], starts)
        nodes_of_depth.append((starts, own, starts + sizes, parents))
        starts = np.column_stack((starts, starts + counts[:, 0]))[split].ravel()
        sizes = counts[split, :2].ravel()
        parents = np.repeat(ids[split], 2)


class DissectionTree(NamedTuple):
    """Separator tree of a :func:`nested_dissection` ordering, one entry per
    tree node: its subtree holds positions ``start:stop`` of the ordering, of
    which it owns ``own:stop`` (its separator, or all of a leaf), and
    ``parent`` is the index of the node that split it, -1 at the root.
    Parents precede their children."""

    start: np.ndarray
    own: np.ndarray
    stop: np.ndarray
    parent: np.ndarray


class Dissection(NamedTuple):
    """A :func:`nested_dissection` ordering with its separator tree; as the
    ``perm`` of :class:`SpdFactor` it selects the supernodal Cholesky factor.
    """

    perm: np.ndarray
    tree: DissectionTree

    def restrict(self, first):
        """The ordering of the nodes from ``first`` on, numbered from 0 (the
        interior block of a boundary-first matrix); each tree node keeps the
        nodes it held among them."""
        keep = self.perm >= first
        before = np.concatenate(([0], np.cumsum(keep)))
        start, own, stop, parent = self.tree
        return Dissection(self.perm[keep] - first,
                          DissectionTree(before[start], before[own], before[stop], parent))


class _Symbolic:
    """Supernodal structure of the Cholesky factor of one CSR pattern in a
    :class:`Dissection`, and the maps that place a matrix's values in it.

    Each subtree of at most ``_FRONT_COLUMNS`` columns is one front, and
    each larger tree node's own columns another; a node that owns no columns
    passes its children on to its parent.  Front f owns the consecutive
    columns ``c0[f]:c1[f]`` of the ordering, and its rows are those columns
    followed by ``rows[f]``: the matrix's rows below those columns and the
    rows of its children's fronts, past ``c1[f]`` (Liu, SIAM Rev. 34
    (1992)).  Fronts are numbered in column order, so children precede their
    parents.  The pattern must be canonical (no duplicate entries).  Raises
    ValidationError if it has an entry that the separators do not allow.
    ``nnz`` counts the factor's entries, the explicit zeros of the dense
    fronts included.
    """

    def __init__(self, matrix, dissection):
        perm, (start, own, stop, parent) = dissection.perm, dissection.tree
        n = perm.size
        if matrix.shape != (n, n):
            raise ValidationError("matrix and ordering describe different nodes")
        # The fronts: merged subtrees, then the own columns of larger nodes.
        size, merge = stop - start, _FRONT_COLUMNS
        merged = (size > 0) & (size <= merge) & ((parent < 0) | (size[parent] > merge))
        is_front = merged | ((size > merge) & (own < stop))
        up = parent.copy()  # each node's nearest ancestor front
        while True:
            climb = (up >= 0) & ~is_front[up]
            if not climb.any():
                break
            up[climb] = parent[up[climb]]
        c0 = np.where(merged, start, own)[is_front]
        order = np.argsort(c0)
        number = np.full(size.size, -1)
        number[np.flatnonzero(is_front)[order]] = np.arange(order.size)
        up = up[is_front][order]
        self.parent = np.where(up >= 0, number[up], -1)
        self.c0, self.c1 = c0[order], stop[is_front][order]
        n_fronts = order.size
        k = self.c1 - self.c0
        self.children = [[] for _ in range(n_fronts)]
        for f in np.flatnonzero(self.parent >= 0):
            self.children[self.parent[f]].append(f)

        # The lower triangle of the reordered matrix, grouped by front.
        inverse = np.empty(n, dtype=np.intp)
        inverse[perm] = np.arange(n)
        row = inverse[np.repeat(np.arange(n), np.diff(matrix.indptr))]
        col = inverse[matrix.indices]
        entry = np.flatnonzero(row >= col)
        front = np.repeat(np.arange(n_fronts), k)[col[entry]]
        by_front = np.argsort(front, kind="stable")
        self.src = entry[by_front]
        row, col, front = row[self.src], col[self.src], front[by_front]
        self.bounds = np.searchsorted(front, np.arange(n_fronts + 1))
        # The rows of each front, and the place of each of its entries and
        # of each of its children's rows among them.
        self.rows, self.relative = [], [None] * n_fronts
        local = np.empty_like(row)
        mark = np.zeros(n, dtype=bool)
        place = np.empty(n, dtype=np.intp)
        for f, (c0, c1) in enumerate(zip(self.c0.tolist(), self.c1.tolist())):
            a, b = self.bounds[f], self.bounds[f + 1]
            mark[row[a:b]] = True
            for c in self.children[f]:
                mark[self.rows[c]] = True
            rows = np.flatnonzero(mark)
            mark[rows] = False
            if rows.size and rows[0] < c0:
                raise ValidationError("matrix pattern does not fit the dissection tree")
            rows = rows[np.searchsorted(rows, c1):]
            self.rows.append(rows)
            place[c0:c1] = np.arange(c1 - c0)
            place[rows] = np.arange(c1 - c0, c1 - c0 + rows.size)
            local[a:b] = place[row[a:b]]
            for c in self.children[f]:
                self.relative[c] = place[self.rows[c]]
        n_rows = np.array([rows.size for rows in self.rows])
        self.nnz = int((k * (k + 1) // 2 + k * n_rows).sum())
        # Each entry's position in its column-major front.
        self.dst = local + (k + n_rows)[front] * (col - self.c0[front])


def _extend_add(front, update, relative):
    """Add a child front's update matrix, lower triangle with zeros above,
    into the rows and columns ``relative`` of its parent's front.

    A block of update columns at a time is scattered by rows into a zero
    panel, which is then added into the parent's columns in one gather.
    Row by row or by runs of consecutive parent columns the scatter costs
    one numpy call per few entries."""
    end = relative[-1] + 1
    for a in range(0, relative.size, _EXTEND_COLUMNS):
        b = min(a + _EXTEND_COLUMNS, relative.size)
        low = relative[a]
        panel = np.zeros((end - low, b - a), dtype=front.dtype, order="F")
        panel[relative[a:] - low] = update[a:, a:b]
        front[low:end, relative[a:b]] += panel


class _SupernodalCholesky:
    """Multifrontal supernodal Cholesky factor L L^T of a matrix reordered by
    a :class:`Dissection`, in the matrix's precision.

    Each front of the symbolic analysis is assembled densely from the
    matrix's entries and its children's update matrices; ``potrf`` factors
    its own columns, ``trsm`` gives the rows below them and ``syrk`` the
    update matrix it passes to its parent (Duff & Reid, ACM TOMS 9 (1983);
    Liu, SIAM Rev. 34 (1992); Ng & Peyton, SIAM J. Sci. Comput. 14 (1993)).
    Only L is kept: per front, the triangle of its own columns and the dense
    block below it.  Raises SolverError if a pivot is not positive, that is,
    if the matrix is not positive definite.
    """

    def __init__(self, matrix, dissection):
        sym = _Symbolic(matrix, dissection)
        data = matrix.data
        potrf = lapack.get_lapack_funcs("potrf", (data,))
        trsm, syrk = blas.get_blas_funcs(("trsm", "syrk"), (data,))
        self.nnz = sym.nnz
        self.fronts = []  # (c0, c1, rows, triangle, block below)
        self._flat_rows = {}  # column count -> rows of each front in a flat rhs
        updates = {}
        for f, (c0, c1, rows) in enumerate(zip(sym.c0.tolist(), sym.c1.tolist(), sym.rows)):
            k = c1 - c0
            m = k + rows.size
            values = np.zeros(m * m, dtype=data.dtype)
            a, b = sym.bounds[f], sym.bounds[f + 1]
            values[sym.dst[a:b]] = data[sym.src[a:b]]
            front = values.reshape((m, m), order="F")
            for child in sym.children[f]:
                if child in updates:  # a child front with rows below it
                    _extend_add(front, updates.pop(child), sym.relative[child])
            triangle, info = potrf(front[:k, :k], lower=1, clean=0, overwrite_a=1)
            if info > 0:
                raise SolverError("matrix is not positive definite: Cholesky pivot of "
                                  f"column {dissection.perm[c0 + info - 1]} is not positive")
            below = None
            if rows.size:
                below = trsm(1.0, triangle, front[k:, :k], side=1, lower=1, trans_a=1,
                             overwrite_b=1)
                updates[f] = syrk(-1.0, below, beta=1.0, c=front[k:, k:], lower=1,
                                  overwrite_c=1)
            self.fronts.append((c0, c1, rows, triangle, below))

    def solve(self, rhs):
        """Solve L L^T x = rhs for ``rhs`` in the dissection's order and the
        factor's dtype, 1d or one column per right-hand side; returns x, in
        ``rhs`` itself when it is C-contiguous and in a C-ordered copy
        otherwise (the fronts solve and scatter in place on that layout).  A
        1d ``rhs`` is solved as its one column."""
        rhs = np.ascontiguousarray(rhs)
        block = rhs.reshape(rhs.shape[0], -1)  # a view: solved in place
        trsv, trsm = blas.get_blas_funcs(("trsv", "trsm"), (rhs,))

        def triangular(triangle, x, trans):
            if triangle.shape[0] > _TRSV_COLUMNS:
                columns = x.T.copy()
                for column in columns:
                    trsv(triangle, column, lower=1, trans=trans, overwrite_x=1)
                x[...] = columns.T
            else:  # x.T is Fortran-ordered, so trsm solves it in place
                trsm(1.0, triangle, x.T, side=1, lower=1, trans_a=1 - trans, overwrite_b=1)

        # Each front's rows as indices into the flattened right-hand side: a
        # 1d gather or scatter is a third of the cost of a 2d one by rows.
        r = block.shape[1]
        if r not in self._flat_rows:
            self._flat_rows[r] = [(rows[:, None] * r + np.arange(r)).ravel()
                                  for _, _, rows, _, _ in self.fronts]
        flat = rhs.reshape(-1)
        fronts = list(zip(self.fronts, self._flat_rows[r]))
        for (c0, c1, _, triangle, below), rows in fronts:
            x = block[c0:c1]
            triangular(triangle, x, 0)
            if below is not None:
                flat[rows] -= (below @ x).reshape(-1)
        for (c0, c1, _, triangle, below), rows in reversed(fronts):
            x = block[c0:c1]
            if below is not None:
                x -= below.T @ flat[rows].reshape(-1, r)
            triangular(triangle, x, 1)
        return rhs


def _row_norms(a):
    """2-norm of each row of the (c, n) block ``a``, without a squared copy
    of it."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _row_products(matrix, rows):
    """``matrix`` times each row of the (c, n) block ``rows``, as (c, n)
    rows.  Each row is one single-vector product, bitwise what scipy's
    product with the c columns gives.  That is faster for the time loop's
    blocks (one thread): on the ``sim2d`` interior block (10,621 nodes) two
    rows took 173 us against 244 us for the (n, 2) product, on the ``sim3d``
    one (19,683 nodes) three rows 1.04 ms against 1.20 ms.  It is slower at
    5 columns on the 77,281-node disk (3.5 ms against 2.7 ms) and on the
    smallest pencils, where each product costs a call of about 4 us (three
    rows of 48 nodes 14 us against 5 us)."""
    out = np.empty(rows.shape)
    for row, product in zip(rows, out):
        product[...] = matrix @ row
    return out


def _pcg(matrix, rhs, precondition, x0, maxiter=_MAXITER):
    """Preconditioned conjugate gradients from ``x0`` for at most ``maxiter``
    iterations; returns (x, iterations, residual), with the largest relative
    true residual over the columns.

    A 2d ``rhs`` of c columns is solved as columnwise CG on its columns held
    as contiguous (c, n) rows, with per-column scalars: the dots and norms
    reduce along rows, and each matrix product is one product per row.  So
    a single column, 1d or (n, 1), takes the arithmetic of a 1d solve, and
    each block column's dots and products are bitwise those of its own
    single-column solve (the preconditioner and the shared stopping test
    may still differ).  ``precondition`` gets the rows as an F-ordered
    (n, c) view and returns an (n, c) block; x comes back in the shape of
    ``rhs``, a 2d one C-ordered.  Zero columns of ``rhs`` have the zero
    solution, whatever their guess.  A guess that meets a quarter of ``TOL``
    is returned as it is.  The preconditioner is applied at the start and
    after each iteration but the last.  A ``rhs`` entry that is not finite
    raises SolverError before the first residual is formed (its column norm
    is tested), a guess entry that is not finite before the preconditioner
    is applied.
    """
    single = rhs.ndim == 1
    b = rhs[None] if single else np.ascontiguousarray(rhs.T)
    b_norm = _row_norms(b)
    if not np.isfinite(b_norm).all():  # before b - A x can form inf - inf
        raise SolverError("right-hand side has an entry that is not finite")
    quarter = 0.25 * TOL * b_norm
    x = (x0[None] if single else x0.T).copy()
    x[b_norm == 0.0] = 0.0
    r = b - _row_products(matrix, x)
    it = 0
    res = _row_norms(r)
    if not np.isfinite(res).all():
        raise SolverError("guess or matrix has an entry that is not finite")
    if np.any(res > quarter):
        z = np.ascontiguousarray(precondition(r.T).T)
        p = z.copy()
        rz = (r * z).sum(axis=1, keepdims=True)
        for it in range(1, maxiter + 1):
            ap = _row_products(matrix, p)
            pap = (p * ap).sum(axis=1, keepdims=True)
            alpha = np.divide(rz, pap, out=np.zeros_like(pap), where=pap > 0.0)
            x += alpha * p
            r -= alpha * ap
            res = _row_norms(r)
            if np.all(res <= quarter) or it == maxiter:
                break
            z = np.ascontiguousarray(precondition(r.T).T)
            rz_new = (r * z).sum(axis=1, keepdims=True)
            beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=rz > 0.0)
            p *= beta
            p += z
            rz = rz_new
        res = _row_norms(b - _row_products(matrix, x))
    residual = res / np.where(b_norm > 0.0, b_norm, 1.0)
    return (x[0] if single else np.ascontiguousarray(x.T)), it, float(residual.max())


class SpdFactor:
    """Direct sparse factorization of an SPD matrix, with verified solves.

    ``solve`` runs the one PCG loop from the direct solution, preconditioned
    by this factor, so every factor meets ``TOL`` or raises, a float32 one
    included.  The factorization is computed in the matrix's own dtype.
    ``perm`` selects the factor:

    * None: SuperLU's LU in minimum-degree order;
    * a permutation (such as the first result of :func:`nested_dissection`):
      SuperLU's LU of ``matrix[perm][:, perm]``, with right-hand sides and
      solutions permuted to match;
    * a :class:`Dissection`: the supernodal Cholesky factor on its separator
      tree, which stores L alone.  The 3d Robin matrix and interior block
      take this one, 2d systems stay on SuperLU; the module notes give the
      figures.

    ``nnz`` counts the factor's stored entries.  Raises SolverError for an
    entry that is not finite, for a diagonal entry that is not positive,
    which no SPD matrix has, for a Cholesky pivot that is not positive and
    for an LU factor that SuperLU finds singular.  A solve whose residual
    is NaN fails the contract like one above ``TOL``; a right-hand side
    that is not finite raises before any triangular solve.
    """

    def __init__(self, matrix, perm=None):
        self.matrix = matrix.tocsr()
        if not np.isfinite(self.matrix.data).all():
            raise SolverError("matrix has an entry that is not finite")
        if not (self.matrix.diagonal() > 0).all():
            raise SolverError("non-positive diagonal entry; matrix is not SPD")
        if isinstance(perm, Dissection):
            if not self.matrix.has_canonical_format:
                self.matrix = self.matrix.copy()
                self.matrix.sum_duplicates()
            self._factor = _SupernodalCholesky(self.matrix, perm)
            perm = perm.perm
        else:
            try:
                if perm is None:
                    self._factor = spla.splu(sp.csc_matrix(self.matrix), **_SPLU_OPTS)
                else:
                    reordered = self.matrix[perm][:, perm]
                    self._factor = spla.splu(sp.csc_matrix(reordered),
                                             **_SPLU_ORDERED_OPTS)
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"LU factorization failed: {exc}") from None
        self._perm = perm
        if perm is not None:
            self._inverse_perm = np.argsort(perm)

    @property
    def nnz(self):
        """Entries the factor stores: the dense fronts of L for the Cholesky
        factor, nnz(L) + nnz(U) for SuperLU, whose L and U are copied out
        to count them."""
        if isinstance(self._factor, _SupernodalCholesky):
            return self._factor.nnz
        return self._factor.L.nnz + self._factor.U.nnz

    @property
    def _lu(self):
        # Shim for bench/layers.py, which reads the stored count as SuperLU's
        # ``_lu.L.nnz + _lu.U.nnz``; ROADMAP item 6 reads ``nnz`` and deletes it.
        return SimpleNamespace(L=SimpleNamespace(nnz=self.nnz), U=SimpleNamespace(nnz=0))

    def apply_inverse(self, rhs):
        """One triangular solve in the factor's precision, returned in
        float64; no residual verification (preconditioner use)."""
        rhs = rhs.astype(self.matrix.dtype, copy=False)
        if self._perm is None:
            x = self._factor.solve(rhs)
        else:
            x = self._factor.solve(rhs[self._perm])[self._inverse_perm]
        return x.astype(np.float64, copy=False)

    def solve(self, rhs):
        """Solve for ``rhs``; each column of a 2d array must meet ``TOL`` in
        float64.  The direct solution is returned as it is when it meets a
        quarter of ``TOL``, and is otherwise finished by PCG on this factor.
        A block of no columns returns its zero solution."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.matrix.shape[0]:
            raise ValidationError("rhs length does not match matrix dimension")
        if rhs.size == 0:  # the contract holds vacuously
            return np.zeros(rhs.shape)
        if not np.isfinite(rhs).all():
            raise SolverError("right-hand side has an entry that is not finite")
        x, _, residual = _pcg(self.matrix, rhs, self.apply_inverse,
                              x0=self.apply_inverse(rhs))
        if not residual <= TOL:  # NaN included
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
    A float32 factor of an earlier matrix cuts the residual by only about
    1e-3 to 1e-4 per iteration, so the guess sets the count: on the
    ``sim2d`` disk the Robin solve takes two iterations from the BDF2
    extrapolation and mostly one or none from the stepper's cubic
    extrapolation of its last four solutions (see ``stepper.Stepper``).
    A cached factor gets ``REFRESH_ITERS`` PCG iterations; when they do not
    reach ``TOL``, the factorization is refreshed and the current solve is
    repeated with the fresh factor.
    Every factorization uses the fill-reducing ``perm`` given here (see
    :class:`SpdFactor`).  Deterministic for a fixed call sequence.
    """

    #: PCG iterations a cached factor gets before it is refreshed.
    REFRESH_ITERS = 12

    def __init__(self, perm=None):
        self._perm = perm
        self._factor = None

    def solve(self, matrix, rhs, x0):
        """Solve ``matrix x = rhs`` starting from the guess ``x0`` (the shape
        of ``rhs``); SolverError if a fresh factor cannot reach ``TOL``, or,
        before any factorization, if ``rhs`` or ``x0`` is not finite or a
        matrix entry is finite but past the float32 range.  A block of no
        columns returns its zero solution without factoring."""
        matrix = matrix.tocsr()
        rhs = np.asarray(rhs, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != rhs.shape:
            raise ValidationError("initial guess shape does not match rhs")
        if rhs.shape[0] != matrix.shape[0]:
            raise ValidationError("rhs length does not match matrix dimension")
        if rhs.size == 0:
            return np.zeros(rhs.shape)

        def pcg(maxiter):
            # A residual entry past the float32 range overflows to inf in the
            # factor's cast; the residual then turns NaN and fails the solve,
            # so the warnings on the way say nothing more.
            with np.errstate(over="ignore", invalid="ignore"):
                return _pcg(matrix, rhs, self._factor.apply_inverse, x0, maxiter)

        if self._factor is not None:
            x, _, residual = pcg(self.REFRESH_ITERS)  # rejects a non-finite rhs or guess
            if residual <= TOL:
                return x
        # A cached factor's PCG has checked them; a first solve has not.
        if not (np.isfinite(rhs).all() and np.isfinite(x0).all()):
            raise SolverError("right-hand side or guess has an entry that is not finite")
        # The cast stops at a finite entry it would overflow to inf, without
        # the warning it gives otherwise; SpdFactor rejects NaN and inf.
        try:
            with np.errstate(over="raise"):
                single = matrix.astype(np.float32)
        except FloatingPointError:
            raise SolverError("matrix has an entry past the float32 range of the "
                              "cached factor") from None
        self._factor = SpdFactor(single, self._perm)
        x, _, residual = pcg(_MAXITER)
        if not residual <= TOL:  # NaN included
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

import warnings
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from bulkgrow.assembly import Assembler, assemble_L
from bulkgrow.errors import SolverError, ValidationError
from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh
from bulkgrow.sparsela import (
    _DISSECTION_LEAF,
    _MAXITER,
    TOL,
    CachedSpdSolver,
    Dissection,
    SpdFactor,
    _crossing_cover,
    _pcg,
    _Symbolic,
    dirichlet_extension,
    nested_dissection,
    solve_spd,
)


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return sp.csr_matrix(a.T @ a + n * np.eye(n))


def test_identity_solve():
    b = np.array([1.0, -2.0, 3.0])
    x = solve_spd(sp.identity(3, format="csr"), b)
    assert np.allclose(x, b, atol=1e-12)


def test_mass_matrix_constructed_solution():
    mesh = generate_disk_mesh(1.0, 0.3)
    mass = Assembler(mesh).bulk_mass()
    ones = np.ones(mesh.n_nodes)
    x = solve_spd(mass, mass @ ones)
    assert np.allclose(x, ones, atol=1e-9)


def test_residual_contract_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        a = random_spd(n, rng)
        b = rng.standard_normal(n)
        x = solve_spd(a, b)
        dense = np.linalg.solve(a.toarray(), b)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)
        assert np.allclose(x, dense, atol=1e-6 * max(1.0, np.abs(dense).max()))


def test_nonconvergence_reports_residual():
    # Indefinite matrix: its negative diagonal entry is rejected before factoring.
    a = sp.csr_matrix(np.diag([1.0, 1.0, -1.0]) + 0.01)
    with pytest.raises(SolverError):
        solve_spd(a, np.ones(3))


class TestNonFinite:
    """A NaN or inf right-hand side, guess or matrix entry raises
    SolverError on both solve paths: a NaN residual never meets TOL."""

    N = 5

    def tridiagonal(self):
        off = -np.ones(self.N - 1)
        return sp.diags([off, 4.0 * np.ones(self.N), off], [-1, 0, 1], format="csr")

    def with_bad(self, value, index=2):
        v = np.ones(self.N)
        v[index] = value
        return v

    def paths(self, matrix, rhs, x0):
        """Each solve path, fresh and with a factor cached from a good solve."""
        warm = CachedSpdSolver()
        warm.solve(self.tridiagonal(), np.ones(self.N), np.zeros(self.N))
        return {
            "factor": lambda: SpdFactor(matrix).solve(rhs),
            "cached-fresh": lambda: CachedSpdSolver().solve(matrix, rhs, x0),
            "cached-warm": lambda: warm.solve(matrix, rhs, x0),
        }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rhs(self, value):
        for solve in self.paths(self.tridiagonal(), self.with_bad(value),
                                np.zeros(self.N)).values():
            with pytest.raises(SolverError):
                solve()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_guess(self, value):
        paths = self.paths(self.tridiagonal(), np.ones(self.N), self.with_bad(value))
        del paths["factor"]  # its guess is its own direct solution
        for solve in paths.values():
            with pytest.raises(SolverError):
                solve()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rhs_and_guess_at_one_entry(self, value):
        # The rhs is rejected before the first residual, which would form
        # inf - inf and warn in place of the SolverError.
        bad = self.with_bad(value)
        for solve in self.paths(self.tridiagonal(), bad, bad).values():
            with pytest.raises(SolverError, match="not finite"):
                solve()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(2, 2), (1, 2)])
    def test_matrix(self, value, entry):
        dense = self.tridiagonal().toarray()
        dense[entry] = dense[entry[::-1]] = value
        matrix = sp.csr_matrix(dense)
        for solve in self.paths(matrix, np.ones(self.N), np.zeros(self.N)).values():
            with pytest.raises(SolverError):
                solve()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad", ["rhs", "x0"])
    def test_rejected_before_factor_and_pcg(self, monkeypatch, value, bad):
        # A bad vector is rejected before any factorization or factor apply,
        # also when a cached factor fails on it.
        matrix = self.tridiagonal()
        warm = CachedSpdSolver()
        warm.solve(matrix, np.ones(self.N), np.zeros(self.N))
        factor = SpdFactor(matrix)
        calls = []
        init, apply_inverse = SpdFactor.__init__, SpdFactor.apply_inverse

        def counting_init(self, *args):
            calls.append("factor")
            init(self, *args)

        def counting_apply(self, rhs):
            calls.append("apply")
            return apply_inverse(self, rhs)

        monkeypatch.setattr(SpdFactor, "__init__", counting_init)
        monkeypatch.setattr(SpdFactor, "apply_inverse", counting_apply)
        vectors = {"rhs": np.ones(self.N), "x0": np.zeros(self.N)}
        vectors[bad] = self.with_bad(value)
        solves = [partial(warm.solve, matrix, **vectors),
                  partial(CachedSpdSolver().solve, matrix, **vectors)]
        if bad == "rhs":
            solves.append(partial(factor.solve, vectors["rhs"]))
        for solve in solves:
            with pytest.raises(SolverError, match="not finite"):
                solve()
        assert calls == []

    @pytest.mark.parametrize("other", [4.0, np.nan, np.inf])
    def test_matrix_past_float32(self, other):
        # The cached factor's float32 cast would overflow the entry to inf,
        # with a warning, whatever another entry holds; a warm PCG may name
        # a non-finite entry first.  SpdFactor's float64 factor takes it.
        matrix = self.tridiagonal()
        matrix.data[0], matrix.data[-1] = 1e300, other
        paths = self.paths(matrix, np.ones(self.N), np.zeros(self.N))
        del paths["factor"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in paths.values():
                with pytest.raises(SolverError, match="float32 range|not finite"):
                    solve()

    def test_residual_past_float32(self):
        # The factor's cast overflows the residual to inf; the solve then
        # fails on its NaN residual, without a warning on the way.
        rhs = np.full(self.N, 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="did not reach TOL"):
                CachedSpdSolver().solve(self.tridiagonal(), rhs, np.zeros(self.N))

    def test_nan_matrix_cholesky(self):
        ball = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=1)
        matrix = assemble_L(Assembler(ball).system(), 1.0)
        matrix.data[matrix.data.size // 2] = np.nan
        with pytest.raises(SolverError):
            SpdFactor(matrix, ball.bulk_orderings[0])

    def test_singular_lu(self):
        matrix = sp.csr_matrix(np.ones((2, 2)))
        with pytest.raises(SolverError, match="LU factorization failed"):
            SpdFactor(matrix)


@pytest.fixture
def calls(monkeypatch):
    """Dtypes of the matrices factorized and the count of preconditioner
    applications (PCG iterations), recorded through the public methods."""
    record = {"factored": [], "applies": 0}
    init, apply_inverse = SpdFactor.__init__, SpdFactor.apply_inverse

    def counting_init(self, matrix, *args, **kwargs):
        record["factored"].append(matrix.dtype)
        init(self, matrix, *args, **kwargs)

    def counting_apply(self, rhs):
        record["applies"] += 1
        return apply_inverse(self, rhs)

    monkeypatch.setattr(SpdFactor, "__init__", counting_init)
    monkeypatch.setattr(SpdFactor, "apply_inverse", counting_apply)
    return record


def relative_residuals(a, x, b):
    return np.linalg.norm(a @ x - b, axis=0) / np.linalg.norm(b, axis=0)


def ordering_fill(matrix, dissection):
    """(2 nnz(L) - n) / nnz(A) of the Cholesky factor of ``matrix`` in the
    ordering of ``dissection``, counted on its unmerged separator tree."""
    return (2 * _Symbolic(matrix, dissection, merge=0).nnz - matrix.shape[0]) / matrix.nnz


def test_spd_factor_matches_pcg(calls):
    rng = np.random.default_rng(1)
    a = random_spd(40, rng)
    solver = CachedSpdSolver()
    solver.solve(a, rng.standard_normal(40), np.zeros(40))
    # A symmetric drift: the factor of ``a`` preconditions PCG on ``drifted``.
    e = rng.standard_normal((40, 40))
    drifted = sp.csr_matrix(a.toarray() + 0.5 * (e + e.T))
    b = rng.standard_normal(40)
    x = solver.solve(drifted, b, np.zeros(40))
    assert calls["factored"] == [np.float32]  # solved by PCG, not by a refresh
    assert np.allclose(SpdFactor(drifted).solve(b), x, atol=1e-8)


def test_first_cached_solve_meets_tol_per_column(calls):
    rng = np.random.default_rng(5)
    a = random_spd(50, rng)
    b = rng.standard_normal((50, 3)) * [1.0, 1e-6, 1e6]
    x = CachedSpdSolver().solve(a, b, np.zeros_like(b))
    assert calls["factored"] == [np.float32]
    assert calls["applies"] > 0  # through PCG, not a direct solve
    assert np.all(relative_residuals(a, x, b) <= 1e-11)


def test_exact_guess_takes_no_iteration(calls):
    rng = np.random.default_rng(6)
    a = random_spd(30, rng)
    b = rng.standard_normal((30, 2))
    exact = np.linalg.solve(a.toarray(), b)
    x = CachedSpdSolver().solve(a, b, exact)
    assert calls["applies"] == 0
    assert np.array_equal(x, exact)


def test_refresh_on_a_distant_matrix_meets_tol(calls):
    rng = np.random.default_rng(7)
    solver = CachedSpdSolver()
    solver.solve(random_spd(40, rng), rng.standard_normal(40), np.zeros(40))
    far = sp.csr_matrix(np.diag(np.geomspace(1.0, 1e4, 40)) + 0.1)
    b = rng.standard_normal(40)
    x = solver.solve(far, b, np.zeros(40))
    assert calls["factored"] == [np.float32, np.float32]
    assert relative_residuals(far, x, b) <= 1e-11


def test_float32_factor_meets_tol_through_pcg(calls):
    rng = np.random.default_rng(8)
    a = random_spd(30, rng).astype(np.float32)
    b = rng.standard_normal(30)
    x = SpdFactor(a).solve(b)
    assert calls["applies"] > 1  # the float32 direct solution was finished by PCG
    assert relative_residuals(a.astype(float), x, b) <= TOL


@pytest.mark.parametrize("shape", [(30,), (30, 3)], ids=["1d", "2d"])
def test_direct_solution_meeting_tol_is_returned_bitwise(calls, shape):
    rng = np.random.default_rng(14)
    a = random_spd(30, rng)
    b = rng.standard_normal(shape)
    if b.ndim == 2:
        b[:, 1] = 0.0
    factor = SpdFactor(a)
    x = factor.solve(b)
    assert calls["applies"] == 1
    direct = factor.apply_inverse(b)
    assert x.shape == shape
    assert x.tobytes() == direct.tobytes()
    assert factor.solve(np.zeros(shape)).tobytes() == np.zeros(shape).tobytes()


def test_guess_shape_checked():
    rng = np.random.default_rng(9)
    a = random_spd(20, rng)
    with pytest.raises(ValidationError):
        CachedSpdSolver().solve(a, rng.standard_normal((20, 2)), np.zeros(20))


def test_spd_factor_checks_each_column(monkeypatch):
    rng = np.random.default_rng(4)
    a = random_spd(30, rng)
    b = rng.standard_normal((30, 2)) * [1.0, 1e6]
    x = np.linalg.solve(a.toarray(), b)
    # Column 0 at relative residual 1e-7; the Frobenius norm would hide it.
    x[:, 0] += np.linalg.solve(a.toarray(), 1e-7 * np.linalg.norm(b[:, 0]) * np.eye(30)[0])

    class StubLU:
        """The perturbed solution, then a dead factor: PCG cannot move."""

        calls = 0

        def solve(self, rhs):
            self.calls += 1
            return x.copy() if self.calls == 1 else np.zeros_like(rhs)

    factor = SpdFactor(a)
    monkeypatch.setattr(factor, "_factor", StubLU())
    with pytest.raises(SolverError) as err:
        factor.solve(b)
    assert err.value.residual == pytest.approx(1e-7, rel=1e-3)
    # The direct solve, then one apply at the start of PCG and one after each
    # iteration but the last.
    assert factor._factor.calls == 1 + _MAXITER


@pytest.mark.parametrize("perturbed", ["every"])
def test_spd_factor_refines_once_before_raising(monkeypatch, perturbed):
    # The PCG loop on the factor has replaced the single refinement step: a
    # factor whose every apply stays wrong is refined up to the iteration cap,
    # then raises with the true residual instead of returning a wrong solution.
    rng = np.random.default_rng(12)
    a = random_spd(30, rng)
    b = rng.standard_normal((30, 2))
    # The k-th apply is off by its own offset, whatever its rhs, so no PCG
    # step can cancel the error of the ones before it.
    offsets = 1e-6 * rng.standard_normal((1 + _MAXITER, 30, 1))
    apply_inverse = SpdFactor.apply_inverse
    applies = []

    def perturbed_apply(self, rhs):
        applies.append(rhs)
        return apply_inverse(self, rhs) + offsets[len(applies) - 1]

    monkeypatch.setattr(SpdFactor, "apply_inverse", perturbed_apply)
    with pytest.raises(SolverError) as err:
        SpdFactor(a).solve(b)
    assert err.value.residual > TOL
    assert len(applies) == 1 + _MAXITER


@pytest.mark.parametrize("miss", [0.5 * TOL, 1e-6])
def test_pcg_finishes_a_direct_solution_that_misses_tol(monkeypatch, miss):
    rng = np.random.default_rng(12)
    a = random_spd(30, rng)
    b = rng.standard_normal((30, 2))
    # The direct solution, the first apply, is off by an error whose residual
    # is ``miss`` relative to its column; the applies of PCG are exact.
    w = rng.standard_normal((30, 2))
    w *= miss * np.linalg.norm(b, axis=0) / np.linalg.norm(w, axis=0)
    error = np.linalg.solve(a.toarray(), w)
    apply_inverse = SpdFactor.apply_inverse
    applies = []

    def perturbed_apply(self, rhs):
        applies.append(rhs)
        x = apply_inverse(self, rhs)
        return x + error if len(applies) == 1 else x

    monkeypatch.setattr(SpdFactor, "apply_inverse", perturbed_apply)
    x = SpdFactor(a).solve(b)
    assert len(applies) > 1
    assert np.all(relative_residuals(a, x, b) <= TOL)


def test_dead_fresh_factor_raises_after_one_factorization(calls, monkeypatch):
    # A preconditioner that returns zeros leaves x at the zero guess.
    monkeypatch.setattr(SpdFactor, "apply_inverse", lambda self, rhs: np.zeros(rhs.shape))
    rng = np.random.default_rng(8)
    a = random_spd(30, rng)
    with pytest.raises(SolverError, match="PCG with a fresh factor did not reach TOL") as err:
        CachedSpdSolver().solve(a, rng.standard_normal(30), np.zeros(30))
    assert err.value.residual == 1.0
    assert calls["factored"] == [np.float32]


def test_cached_solver_tracks_drifting_matrices():
    rng = np.random.default_rng(2)
    base = random_spd(60, rng).toarray()
    solver = CachedSpdSolver()
    for step in range(25):
        a = sp.csr_matrix(base * (1.0 + 1e-3 * step))
        b = rng.standard_normal(60)
        x = solver.solve(a, b, np.zeros(60))
        assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_multicolumn_rhs_solved_per_column():
    rng = np.random.default_rng(3)
    a = random_spd(30, rng)
    b = rng.standard_normal((30, 3))
    x = solve_spd(a, b)
    assert x.shape == (30, 3)
    for c in range(3):
        assert np.array_equal(x[:, c], solve_spd(a, b[:, c]))


def stale_solver(rng, n=60):
    """(a matrix, a CachedSpdSolver holding the float32 factor of the matrix
    it drifted from): its solves on the matrix take a few PCG iterations and
    no refresh."""
    base = random_spd(n, rng)
    solver = CachedSpdSolver()
    solver.solve(base, rng.standard_normal(n), np.zeros(n))
    e = rng.standard_normal((n, n))
    return sp.csr_matrix(base.toarray() + 0.5 * (e + e.T)), solver


class TestBlockContract:
    """A 2d right-hand side is a block of independent columns: each is solved
    as its own single-column solve would be, and the block comes back as a
    C-ordered float64 (n, c) array."""

    def test_cached_block_columns_match_their_own_solves(self, calls):
        rng = np.random.default_rng(21)
        a, solver = stale_solver(rng)
        b = rng.standard_normal((60, 3)) * [1.0, 1e-6, 1e6]
        applies = calls["applies"]
        x = solver.solve(a, b, np.zeros_like(b))
        assert calls["applies"] - applies >= 2  # PCG iterated on the stale factor
        for c in range(3):
            alone = solver.solve(a, b[:, c], np.zeros(60))
            assert np.linalg.norm(x[:, c] - alone) <= 1e-13 * np.linalg.norm(alone)
        assert calls["factored"] == [np.float32]  # no refresh

    def test_1d_rhs_and_its_one_column_block_agree_bitwise(self):
        rng = np.random.default_rng(22)
        a, solver = stale_solver(rng)
        b = rng.standard_normal(60)
        x = solver.solve(a, b, np.zeros(60))
        block = solver.solve(a, b[:, None], np.zeros((60, 1)))
        assert block.shape == (60, 1)
        assert block.tobytes() == x.tobytes()
        factor = SpdFactor(a.astype(np.float32))  # its direct solution misses TOL
        assert factor.solve(b[:, None]).tobytes() == factor.solve(b).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_solutions_are_c_ordered_float64(self, columns, order):
        rng = np.random.default_rng(23)
        a, solver = stale_solver(rng)
        b = np.asarray(rng.standard_normal((60, columns)), order=order)
        exact = np.linalg.solve(a.toarray(), b)
        solutions = [
            solver.solve(a, b, np.zeros_like(b)),  # through PCG
            solver.solve(a, b, exact),  # the guess as it is
            SpdFactor(a).solve(b),
            SpdFactor(a.astype(np.float32)).solve(b),
        ]
        for x in solutions:
            assert x.shape == (60, columns)
            assert x.dtype == np.float64
            assert x.flags.c_contiguous

    def test_one_apply_at_the_start_and_one_per_iteration(self):
        # The benchmark's pcg_iters_per_solve counts these applies.
        rng = np.random.default_rng(24)
        a, solver = stale_solver(rng)
        b = rng.standard_normal((60, 2))
        applies = []

        def precondition(rhs):
            applies.append(rhs.shape)
            return solver._factor.apply_inverse(rhs)

        x, iterations, residual = _pcg(a, b, precondition, np.zeros_like(b))
        assert iterations >= 2 and residual <= TOL
        # The first iteration takes the apply made at the start.
        assert applies == [(60, 2)] * iterations

        applies.clear()
        _, iterations, _ = _pcg(a, b, precondition, x)
        assert iterations == 0 and applies == []

        def dead(rhs):
            applies.append(rhs.shape)
            return np.zeros_like(rhs)

        applies.clear()
        _, iterations, residual = _pcg(a, b, dead, np.zeros_like(b))
        assert iterations == _MAXITER and residual > TOL
        # No apply after the last iteration: its result would go unused.
        assert len(applies) == _MAXITER

    def test_dead_cached_factor_gets_refresh_iters_applies(self, monkeypatch):
        rng = np.random.default_rng(26)
        a, solver = stale_solver(rng)
        dead = solver._factor
        applies = []

        def dead_apply(rhs):
            applies.append(rhs.shape)
            return np.zeros_like(rhs)

        monkeypatch.setattr(dead, "apply_inverse", dead_apply)
        b = rng.standard_normal(60)
        x = solver.solve(a, b, np.zeros(60))
        assert len(applies) == CachedSpdSolver.REFRESH_ITERS
        assert solver._factor is not dead  # refreshed, and the solve repeated
        assert relative_residuals(a, x, b) <= TOL

    def test_empty_block_is_solved_without_factoring(self, calls):
        rng = np.random.default_rng(25)
        a = random_spd(20, rng)
        empty = np.zeros((20, 0))
        x = CachedSpdSolver().solve(a, empty, empty)
        assert x.shape == (20, 0)
        assert calls["factored"] == []
        x = SpdFactor(a).solve(empty)
        assert x.shape == (20, 0)
        assert calls["applies"] == 0

    def test_rhs_length_checked(self):
        rng = np.random.default_rng(26)
        a = random_spd(20, rng)
        for columns in ((), (0,), (2,)):
            b = np.zeros((19,) + columns)
            with pytest.raises(ValidationError):
                CachedSpdSolver().solve(a, b, b)
            with pytest.raises(ValidationError):
                SpdFactor(a).solve(b)


def max_matching_size(lower, upper):
    """Size of a maximum matching of the bipartite edges lower[i]-upper[i],
    by augmenting paths one lower node at a time."""
    neighbours = {}
    for u, v in zip(lower.tolist(), upper.tolist()):
        neighbours.setdefault(u, []).append(v)
    mate = {}

    def augment(u, seen):
        for v in neighbours[u]:
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in neighbours)


class TestCrossingCover:
    def test_complete_bipartite_is_covered_by_its_small_side(self):
        lower = np.repeat([0, 1], 5)
        upper = np.tile(np.arange(2, 7), 2)
        assert np.array_equal(_crossing_cover(lower, upper, 7), [0, 1])

    def test_perfect_matching_takes_one_node_per_edge(self):
        cover = _crossing_cover(np.arange(4), np.arange(4, 8), 8)
        assert cover.size == 4

    def test_no_crossing_edges_give_an_empty_separator(self):
        empty = np.empty(0, dtype=int)
        assert _crossing_cover(empty, empty, 5).size == 0

    def test_random_crossings_minimum_cover(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n_low, n_up = rng.integers(1, 15, size=2)
            m = int(rng.integers(1, 40))
            lower = rng.integers(0, n_low, m)
            upper = n_low + rng.integers(0, n_up, m)
            cover = _crossing_cover(lower, upper, n_low + n_up)
            covered = np.isin(lower, cover) | np.isin(upper, cover)
            assert covered.all()
            assert cover.size == max_matching_size(lower, upper)


def recursive_dissection(graph, points):
    """nested_dissection split by split, the reference for its batched splits."""
    rows, cols = sp.coo_matrix(graph).nonzero()
    n = graph.shape[0]
    side = np.full(n, -1)
    order = []

    def dissect(nodes):
        if nodes.size <= _DISSECTION_LEAF:
            order.append(np.sort(nodes))
            return
        coords = points[nodes]
        c = coords[:, np.argmax(np.ptp(coords, axis=0))]
        below = c <= np.median(c)
        if below.all():
            below = c < c.max()
        if not below.any():
            order.append(np.sort(nodes))
            return
        side[nodes] = below
        crossing = (side[rows] == 1) & (side[cols] == 0)
        side[nodes] = -1
        cut = np.isin(nodes, _crossing_cover(rows[crossing], cols[crossing], n))
        dissect(nodes[below & ~cut])
        dissect(nodes[~below & ~cut])
        order.append(np.sort(nodes[cut]))

    dissect(np.arange(n))
    return np.concatenate(order)


class TestNestedDissection:
    @pytest.fixture(scope="class")
    def ball(self):
        mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2)
        _, stiff = Assembler(mesh).bulk_matrices()
        return mesh, stiff

    def test_returns_a_permutation(self, ball):
        mesh, stiff = ball
        dissection = nested_dissection(stiff, mesh.node_positions)
        assert isinstance(dissection, Dissection)
        assert np.array_equal(np.sort(dissection.perm), np.arange(mesh.n_nodes))

    def test_batched_splits_match_the_recursion(self, ball):
        mesh, stiff = ball
        perm, _ = nested_dissection(stiff, mesh.node_positions)
        assert np.array_equal(perm, recursive_dissection(stiff, mesh.node_positions))

    def test_fill_of_the_step_matrices(self, ball):
        # The fill (2 nnz(L) - n) / nnz(A) of the ordering itself, from the
        # symbolic count of the unmerged separator tree.
        mesh, _ = ball
        system = Assembler(mesh).system()
        bulk, interior = mesh.bulk_orderings
        # The lower half's boundary layer as separator filled 12.7x and 11.4x.
        for matrix, dissection, bound in ((assemble_L(system, 1.0), bulk, 11.5),
                                          (system.stiffness_blocks()[0], interior, 10.8)):
            assert ordering_fill(matrix, dissection) <= bound

    def test_coincident_points_are_one_leaf(self):
        graph = sp.csr_matrix(np.ones((40, 40)))
        perm, tree = nested_dissection(graph, np.zeros((40, 3)))
        assert np.array_equal(perm, np.arange(40))
        assert [list(column) for column in tree] == [[0], [0], [40], [-1]]

    def test_tree_owns_each_column_once(self, ball):
        mesh, stiff = ball
        perm, (start, own, stop, parent) = nested_dissection(stiff, mesh.node_positions)
        owned = np.zeros(mesh.n_nodes, dtype=int)
        for a, b in zip(own, stop):
            owned[a:b] += 1
        assert np.all(owned == 1)
        # A subtree is its own columns after its children's subtrees, and
        # parents precede their children.
        child = parent >= 0
        assert np.all(parent[child] < np.flatnonzero(child))
        assert np.all((start[parent[child]] <= start[child])
                      & (stop[child] <= own[parent[child]]))
        held = own - start
        np.add.at(held, parent[child], -(stop - start)[child])
        assert np.all(held == 0)

    def test_length_mismatch_rejected(self, ball):
        mesh, stiff = ball
        with pytest.raises(ValidationError):
            nested_dissection(stiff, mesh.node_positions[:-1])

    def test_permuted_factor_meets_tol(self, ball):
        mesh, stiff = ball
        ng = mesh.n_boundary
        interior = stiff[ng:, ng:]
        perm, _ = nested_dissection(interior, mesh.node_positions[ng:])
        b = np.random.default_rng(10).standard_normal((interior.shape[0], 2))
        x = SpdFactor(interior, perm).solve(b)
        assert np.all(relative_residuals(interior, x, b) <= TOL)
        plain = SpdFactor(interior).solve(b)
        gap = np.linalg.norm(interior @ (x - plain), axis=0) / np.linalg.norm(b, axis=0)
        assert np.all(gap <= TOL)


class TestSupernodalCholesky:
    """SpdFactor with a Dissection: the Cholesky factor of the 3d bulk
    systems, on the P2 ball."""

    @pytest.fixture(scope="class")
    def systems(self):
        mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2)
        system = Assembler(mesh).system()
        bulk, interior = mesh.bulk_orderings
        return {"robin": (assemble_L(system, 1.0), bulk),
                "interior": (system.stiffness_blocks()[0], interior)}

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("name", ["robin", "interior"])
    def test_float64_solutions_match_superlu(self, systems, name, columns):
        # The direct solutions, before PCG could mend an error of either.
        matrix, dissection = systems[name]
        n = matrix.shape[0]
        b = np.random.default_rng(5).standard_normal(n if columns == 1 else (n, columns))
        x = SpdFactor(matrix, dissection).apply_inverse(b)
        lu = SpdFactor(matrix, dissection.perm).apply_inverse(b)
        gap = np.linalg.norm(x - lu, axis=0) / np.linalg.norm(lu, axis=0)
        assert np.all(gap <= 1e-11)

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("name", ["robin", "interior"])
    def test_float32_factor_meets_tol(self, systems, name, columns):
        matrix, dissection = systems[name]
        n = matrix.shape[0]
        b = np.random.default_rng(6).standard_normal(n if columns == 1 else (n, columns))
        factor = SpdFactor(matrix.astype(np.float32), dissection)
        direct = factor.apply_inverse(b)
        x = factor.solve(b)
        exact = factor.matrix.astype(np.float64)
        assert x.shape == b.shape
        # The float32 factor alone misses TOL, and PCG on it finishes the job.
        assert np.all(relative_residuals(exact, direct, b) > TOL)
        assert np.all(relative_residuals(exact, x, b) <= TOL)

    @pytest.mark.parametrize("name", ["robin", "interior"])
    def test_any_layout_solves_like_c_order(self, systems, name):
        # The fronts solve a C-ordered block in place; an F-ordered block, or
        # a strided column, is solved in a C-ordered copy of itself.
        matrix, dissection = systems[name]
        factor = SpdFactor(matrix, dissection)._factor
        b = np.random.default_rng(7).standard_normal((matrix.shape[0], 3))
        c_order = factor.solve(b.copy())
        f_order = np.asfortranarray(b)
        assert np.array_equal(factor.solve(f_order), c_order)
        assert np.array_equal(f_order, b)  # the caller's block is left alone
        assert np.array_equal(factor.solve(b[:, 1]), factor.solve(b[:, 1].copy()))
        reordered = matrix[dissection.perm][:, dissection.perm]  # the factor's order
        assert np.all(relative_residuals(reordered, c_order, b) <= 1e-12)

    def test_stores_fewer_entries_than_superlu(self, systems):
        for matrix, dissection in systems.values():
            factor = SpdFactor(matrix, dissection)
            assert factor.nnz == _Symbolic(matrix, dissection).nnz
            assert factor.nnz < SpdFactor(matrix, dissection.perm).nnz
            # The count as the benchmark reads it.
            assert factor._lu.L.nnz + factor._lu.U.nnz == factor.nnz

    def test_indefinite_matrix_names_the_failing_column(self, systems):
        matrix, dissection = systems["robin"]
        indefinite = matrix.copy()
        # One off-diagonal pair larger than its diagonal entries' geometric
        # mean: the diagonal stays positive, a 2x2 minor turns negative.
        i = 0
        j = indefinite.indices[indefinite.indptr[i]:indefinite.indptr[i + 1]].max()
        big = 2.0 * np.sqrt(matrix[i, i] * matrix[j, j])
        indefinite.data[(indefinite.indices == j) & (np.arange(indefinite.nnz)
                                                     < indefinite.indptr[i + 1])
                        & (np.arange(indefinite.nnz) >= indefinite.indptr[i])] = big
        indefinite.data[(indefinite.indices == i) & (np.arange(indefinite.nnz)
                                                     < indefinite.indptr[j + 1])
                        & (np.arange(indefinite.nnz) >= indefinite.indptr[j])] = big
        assert (indefinite - indefinite.T).count_nonzero() == 0
        assert (indefinite.diagonal() > 0).all()
        with pytest.raises(SolverError, match=r"column \d+ is not positive"):
            SpdFactor(indefinite, dissection)

    def test_pattern_outside_the_tree_rejected(self, systems):
        matrix, dissection = systems["robin"]
        n = matrix.shape[0]
        # A node of each half of the first split: its separator parts them.
        halves = np.flatnonzero(dissection.tree.parent == 0)
        a, b = dissection.perm[dissection.tree.start[halves]]
        coupled = (matrix + sp.csr_matrix(([1e-3, 1e-3], ([a, b], [b, a])),
                                          shape=(n, n))).tocsr()
        with pytest.raises(ValidationError, match="dissection tree"):
            SpdFactor(coupled, dissection)


@pytest.mark.parametrize("layout", ["reversed", "split"])
def test_cholesky_factor_of_a_non_canonical_matrix(layout):
    # The P1 ball Robin matrix with each row's columns in reverse order, or
    # with each entry stored as two halves, solves like the canonical one.
    mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.5)
    matrix = assemble_L(Assembler(mesh).system(), 1.0).tocsr()
    dissection = mesh.bulk_orderings[0]
    assert isinstance(dissection, Dissection) and matrix.has_canonical_format
    if layout == "reversed":
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        order = np.lexsort((-np.arange(matrix.nnz), rows))
        other = sp.csr_matrix((matrix.data[order], matrix.indices[order], matrix.indptr),
                              shape=matrix.shape)
    else:
        other = sp.csr_matrix((np.repeat(matrix.data / 2, 2), np.repeat(matrix.indices, 2),
                               2 * matrix.indptr), shape=matrix.shape)
    assert not other.has_canonical_format
    b = np.random.default_rng(9).standard_normal(matrix.shape[0])
    assert np.array_equal(SpdFactor(other, dissection).solve(b),
                          SpdFactor(matrix, dissection).solve(b))
    assert not other.has_canonical_format  # the caller's matrix is left alone


class TestSchurDirichlet:
    """dirichlet_extension with each interior solver its callers bind."""

    def setup_method(self):
        self.mesh = generate_disk_mesh(1.0, 0.25)
        _, self.stiff = Assembler(self.mesh).bulk_matrices()
        ng = self.mesh.n_boundary
        self.a_ii = self.stiff[ng:, ng:]
        self.a_ib = self.stiff[ng:, :ng]

    def extend(self, g):
        return dirichlet_extension(self.a_ib, g, partial(solve_spd, self.a_ii))

    def test_constant_trace_extends_to_constant(self):
        c = 2.5
        g = np.full(self.mesh.n_boundary, c)
        v = self.extend(g)
        assert np.allclose(v, c, atol=1e-9)

    def test_affine_trace_extends_exactly(self):
        coeffs = np.array([0.3, -1.2])
        affine = self.mesh.node_positions @ coeffs + 0.7
        g = affine[: self.mesh.n_boundary]
        v = self.extend(g)
        assert np.allclose(v, affine, atol=1e-9)

    def test_zero_trace(self):
        g = np.zeros(self.mesh.n_boundary)
        v = self.extend(g)
        assert np.allclose(v, 0.0, atol=1e-13)

    def test_energy_minimality(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(self.mesh.n_boundary)
        v = self.extend(g)
        competitor = np.zeros(self.mesh.n_nodes)
        competitor[: self.mesh.n_boundary] = g
        energy_v = v @ (self.stiff @ v)
        energy_w = competitor @ (self.stiff @ competitor)
        assert energy_v <= energy_w + 1e-9 * max(1.0, energy_w)

    def test_multicolumn(self):
        g = np.column_stack(
            [np.ones(self.mesh.n_boundary), np.zeros(self.mesh.n_boundary)]
        )
        v = self.extend(g)
        assert v.shape == (self.mesh.n_nodes, 2)
        assert np.allclose(v[:, 0], 1.0, atol=1e-9)
        assert np.allclose(v[:, 1], 0.0, atol=1e-13)

    def test_interior_solvers_agree(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((self.mesh.n_boundary, 2))
        ng = self.mesh.n_boundary
        reference = self.extend(g)
        guess = np.zeros((self.mesh.n_nodes - ng, 2))
        for solve in (partial(CachedSpdSolver().solve, self.a_ii, x0=guess),
                      SpdFactor(self.a_ii).solve):
            v = dirichlet_extension(self.a_ib, g, solve)
            assert np.allclose(v, reference, atol=1e-9)

    def test_trace_length_checked(self):
        with pytest.raises(ValidationError):
            self.extend(np.zeros(self.mesh.n_boundary + 1))

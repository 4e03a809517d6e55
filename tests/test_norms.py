import math

import numpy as np
import pytest
import scipy.linalg

from bulkgrow.assembly import Assembler
from bulkgrow.errors import ValidationError
from bulkgrow.mesh import BulkSurfaceMesh, generate_ball_mesh, generate_disk_mesh
from bulkgrow.norms import (
    ERROR_QUANTITIES,
    HALF_EPS,
    HalfNorm,
    estimated_orders,
    inverse_sqrt_rule,
    norm_L,
    oracle_errors,
    surface_spectrum,
)
from bulkgrow.oracle import RadialOracle, sphere_oracle_mesh


def norm_M(values, mass):
    """Mass norm sqrt(e^T M e), summed over the columns of a vector field."""
    values = np.asarray(values, dtype=float)
    return math.sqrt(max(float(np.sum(values * (mass @ values))), 0.0))


def half_norm(mats):
    """The HalfNorm of a SystemMatrices, on its spectrum bound."""
    return HalfNorm(mats, surface_spectrum(mats.surface))


def dense_spectrum(mats):
    """The reference: dense generalized eigenpairs A phi = lambda M phi of
    the surface pencil, M-orthonormal."""
    lam, phi = scipy.linalg.eigh(mats.stiff_surf.toarray(), mats.mass_surf.toarray())
    return np.maximum(lam, 0.0), phi


def dense_half_norms(g, mats, spectrum):
    """sqrt(sum (1 + lambda)^(1/2) (phi^T M g)^2) per column of g."""
    lam, phi = spectrum
    coeffs = phi.T @ (mats.mass_surf @ g)
    return np.sqrt(np.sqrt(1.0 + lam) @ coeffs ** 2)


def dense_gram_inverse(y, spectrum):
    """C^-1 y = phi (1 + lambda)^(-1/2) phi^T y."""
    lam, phi = spectrum
    return phi @ ((phi.T @ y).T / np.sqrt(1.0 + lam)).T


def norm_K(values, energy):
    """H1 norm sqrt(e^T K e) with K = A + M, on the bulk or the surface."""
    values = np.asarray(values, dtype=float)
    return math.sqrt(max(float(values @ (energy @ values)), 0.0))


@pytest.fixture(scope="module")
def disk():
    mesh = generate_disk_mesh(1.0, 0.25, degree=2)
    return mesh, Assembler(mesh).system()


@pytest.fixture(scope="module")
def disk_mass(disk):
    return Assembler(disk[0]).bulk_mass()


class TestMatrixNorms:
    def test_constant_mass_norm_is_sqrt_area(self, disk, disk_mass):
        mesh, mats = disk
        value = norm_M(np.ones(mesh.n_nodes), disk_mass)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-4)

    def test_constant_surface_k_norm(self, disk):
        mesh, mats = disk
        # Stiffness part vanishes on constants: K-norm equals mass norm.
        ones = np.ones(mesh.n_boundary)
        assert norm_K(ones, mats.surface_pencil(1.0, 1.0)) == pytest.approx(
            norm_M(ones, mats.mass_surf), rel=1e-12
        )

    def test_homogeneity(self, disk, disk_mass):
        mesh, mats = disk
        energy = mats.stiff_bulk + disk_mass
        rng = np.random.default_rng(0)
        e = rng.standard_normal(mesh.n_nodes)
        for s in (-2.0, 0.5, 3.7):
            assert norm_M(s * e, disk_mass) == pytest.approx(
                abs(s) * norm_M(e, disk_mass), rel=1e-12
            )
            assert norm_K(s * e, energy) == pytest.approx(
                abs(s) * norm_K(e, energy), rel=1e-12
            )

    def test_triangle_inequality(self, disk):
        mesh, mats = disk
        energy = mats.surface_pencil(1.0, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal(mesh.n_boundary)
            b = rng.standard_normal(mesh.n_boundary)
            na = norm_K(a, energy)
            nb = norm_K(b, energy)
            assert norm_K(a + b, energy) <= na + nb + 1e-12

    def test_vector_field_norm_sums_components(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(2)
        v = rng.standard_normal((mesh.n_boundary, 2))
        total = norm_M(v, mats.mass_surf)
        split = math.sqrt(
            norm_M(v[:, 0], mats.mass_surf) ** 2
            + norm_M(v[:, 1], mats.mass_surf) ** 2
        )
        assert total == pytest.approx(split, rel=1e-12)

    def test_length_validation(self, disk):
        mesh, mats = disk
        with pytest.raises(ValidationError):
            norm_L(np.ones(3), mats)


class TestCombinedNorm:
    def test_zero_field(self, disk):
        mesh, mats = disk
        assert norm_L(np.zeros(mesh.n_nodes), mats) == 0.0

    def test_interior_field_reduces_to_stiffness_seminorm(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(3)
        e = np.zeros(mesh.n_nodes)
        e[mesh.n_boundary:] = rng.standard_normal(mesh.n_nodes - mesh.n_boundary)
        expected = math.sqrt(e @ (mats.stiff_bulk @ e))
        assert norm_L(e, mats) == pytest.approx(expected, rel=1e-12)

    def test_constant_gives_sqrt_perimeter(self, disk):
        mesh, mats = disk
        ones_s = np.ones(mesh.n_boundary)
        perimeter = ones_s @ (mats.mass_surf @ ones_s)
        assert norm_L(np.ones(mesh.n_nodes), mats) == (
            pytest.approx(math.sqrt(perimeter), rel=1e-12)
        )


SURFACES = {
    "disk-p1": lambda: generate_disk_mesh(1.0, 0.2, degree=1),
    "disk-p2": lambda: generate_disk_mesh(1.0, 0.25, degree=2),
    # Facets much longer than 1: A is small against M, and top is near 1.
    "large-disk-p2": lambda: generate_disk_mesh(1e3, 250.0, degree=2),
    "ball-p2": lambda: generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2),
    "ellipsoid-p2": lambda: generate_ball_mesh([1.0, 0.8, 0.9], 0.5, degree=2),
}


@pytest.fixture(scope="module", params=sorted(SURFACES))
def surface(request):
    """A mesh of each surface kind, its matrices and the dense reference."""
    mesh = SURFACES[request.param]()
    mats = Assembler(mesh).system()
    return mesh, mats, dense_spectrum(mats)


class TestHalfNorm:
    def test_constant_matches_mass_norm(self, disk):
        mesh, mats = disk
        c = 2.3 * np.ones(mesh.n_boundary)
        half = half_norm(mats).norms(c)
        assert half == pytest.approx(norm_M(c, mats.mass_surf), abs=1e-10)

    def test_between_mass_and_k_norm(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(4)
        half = half_norm(mats)
        for _ in range(10):
            g = rng.standard_normal(mesh.n_boundary)
            value = half.norms(g)
            assert norm_M(g, mats.mass_surf) - 1e-10 <= value
            assert value <= norm_K(g, mats.surface_pencil(1.0, 1.0)) + 1e-10

    def test_highest_mode(self, disk):
        mesh, mats = disk
        lam, phi = dense_spectrum(mats)
        g = phi[:, -1]
        half = half_norm(mats).norms(g)
        expected = (1.0 + lam[-1]) ** 0.25 * norm_M(g, mats.mass_surf)
        assert half == pytest.approx(expected, rel=1e-10)

    def test_block_norms_are_column_norms(self, disk):
        mesh, mats = disk
        half = half_norm(mats)
        block = np.random.default_rng(6).standard_normal((mesh.n_boundary, 4))
        block[:, 1] = 0.0
        norms = half.norms(block)
        assert norms.shape == (4,)
        assert norms[1] == 0.0
        for column, value in zip(block.T, norms):
            assert value == pytest.approx(half.norms(column), rel=1e-12)

    def test_gram_inverse_inverts_the_gram_matrix(self, disk):
        mesh, mats = disk
        lam, phi = dense_spectrum(mats)
        half = half_norm(mats)
        mphi = mats.mass_surf @ phi
        gram = mphi @ np.diag(np.sqrt(1.0 + lam)) @ mphi.T  # C = M phi W phi^T M
        g = np.random.default_rng(7).standard_normal((mesh.n_boundary, 2))
        for y in (g, g[:, 0]):
            back = half.gram_inverse(gram @ y)
            assert np.linalg.norm(back - y) <= 1e-10 * np.linalg.norm(y)

    def test_matches_the_dense_reference(self, surface):
        mesh, mats, spectrum = surface
        half = half_norm(mats)
        block = np.random.default_rng(8).standard_normal((mesh.n_boundary, 3))
        for g in (block, block[:, 0]):
            np.testing.assert_allclose(half.norms(g), dense_half_norms(g, mats, spectrum),
                                       rtol=1e-10, atol=0)
            expected = dense_gram_inverse(g, spectrum)
            error = np.linalg.norm(half.gram_inverse(g) - expected, axis=0)
            assert np.all(error <= 1e-10 * np.linalg.norm(expected, axis=0))

    def test_top_bounds_the_spectrum(self, surface):
        # The facet bound is rigorous; on these surfaces it is also within
        # a factor of 3 of the dense top eigenvalue.
        _, mats, (lam, _) = surface
        top = surface_spectrum(mats.surface)
        assert 1.0 + lam[-1] <= top * (1.0 + 1e-12)
        assert top <= 3.0 * (1.0 + lam[-1])

    def test_beyond_4000_boundary_nodes(self):
        # A P2 sphere of 4,706 boundary nodes: past the size the dense
        # eigensolver was capped at.
        mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.25, degree=2)
        mats = Assembler(mesh).system()
        assert mesh.n_boundary > 4000
        half = half_norm(mats)
        ones = np.ones(mesh.n_boundary)
        assert half.norms(ones) == pytest.approx(norm_M(ones, mats.mass_surf), rel=1e-12)
        for g in np.random.default_rng(9).standard_normal((3, mesh.n_boundary)):
            value = half.norms(g)
            assert norm_M(g, mats.mass_surf) <= value * (1.0 + 1e-12)
            assert value <= norm_K(g, mats.surface_pencil(1.0, 1.0)) * (1.0 + 1e-12)


class TestInverseSqrtRule:
    @pytest.mark.parametrize("top", [1.0, 1.0 + 1e-9, 1.5, 2.0, 10.0, 1e2, 794.0, 1e3, 1.4e3, 1e4, 3.5e5, 1e6, 1e7, 1e8])
    def test_error_within_half_eps(self, top):
        shifts, weights = inverse_sqrt_rule(top)
        assert np.all(shifts > 0) and np.all(weights > 0)
        x = np.geomspace(1.0, top, 20001)
        r = (weights / (x[:, None] + shifts)).sum(axis=1)
        assert np.abs(r * np.sqrt(x) - 1.0).max() <= HALF_EPS

    @pytest.mark.parametrize("top", np.geomspace(10.0, 1e8, 15))
    def test_pole_count_follows_the_convergence_rate(self, top):
        # The error is about 4 exp(-2 pi^2 N / log(16 top)), so the count is
        # close to log(4 / HALF_EPS) log(16 top) / (2 pi^2).
        estimate = math.log(4.0 / HALF_EPS) * math.log(16.0 * top) / (2.0 * math.pi ** 2)
        assert abs(len(inverse_sqrt_rule(top)[0]) - estimate) <= 1.5


class TestRenumberingInvariance:
    def test_norms_invariant_under_boundary_preserving_permutation(self):
        mesh = generate_disk_mesh(1.0, 0.4, degree=1)
        mats = Assembler(mesh).system()
        rng = np.random.default_rng(5)
        ng, n = mesh.n_boundary, mesh.n_nodes
        perm = np.concatenate(
            [rng.permutation(ng), ng + rng.permutation(n - ng)]
        )
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n)
        permuted = BulkSurfaceMesh(
            dim_m=1,
            degree_k=1,
            node_positions=mesh.node_positions[perm],
            n_boundary=ng,
            bulk_elements=inv[mesh.bulk_elements],
            boundary_elements=inv[mesh.boundary_elements],
        )
        pmats = Assembler(permuted).system()
        e = rng.standard_normal(n)
        ep = e[perm]
        assert norm_M(ep, Assembler(permuted).bulk_mass()) == pytest.approx(
            norm_M(e, Assembler(mesh).bulk_mass()), rel=1e-12
        )
        assert norm_L(ep, pmats) == pytest.approx(norm_L(e, mats), rel=1e-12)
        g = e[:ng]
        gp = ep[:ng]
        assert half_norm(pmats).norms(gp) == pytest.approx(half_norm(mats).norms(g), rel=1e-9)


class TestOracleErrors:
    def test_seed_state_has_negligible_errors(self):
        oracle = RadialOracle(dim_m=1, initial_radius=1.5, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.3, degree=2)
        state = oracle.seed_state(mesh, 0.0)
        mats = Assembler(mesh).system()
        errors = oracle_errors(state, oracle, mesh, mats)
        for quantity in ("u", "x", "nu", "H"):
            assert errors[quantity] < 1e-9, quantity
        assert errors["v"] < 1e-9

    @pytest.mark.parametrize("dim_m", [1, 2])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_exact_state_has_zero_errors(self, dim_m, degree):
        # The errors are measured against exact_state itself, so its own
        # errors vanish exactly, also after the flow has moved the mesh.
        oracle = RadialOracle(dim_m=dim_m, initial_radius=1.5, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.4 if dim_m == 1 else 0.6, degree=degree)
        state = oracle.exact_state(mesh, 0.3)
        mats = Assembler(mesh).system(state.positions)
        assert oracle_errors(state, oracle, mesh, mats) == dict.fromkeys(ERROR_QUANTITIES, 0.0)

    def test_estimated_orders(self):
        errors = [1.0, 0.25, 0.0625]
        steps = [0.2, 0.1, 0.05]
        orders = estimated_orders(errors, steps)
        assert np.allclose(orders, 2.0)

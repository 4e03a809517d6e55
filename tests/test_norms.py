import math

import numpy as np
import pytest

from bulkgrow.assembly import Assembler
from bulkgrow.errors import CapabilityError, ValidationError
from bulkgrow.mesh import BulkSurfaceMesh, generate_disk_mesh
from bulkgrow.norms import (
    ERROR_QUANTITIES,
    HalfNorm,
    estimated_orders,
    norm_L,
    oracle_errors,
    surface_spectrum,
)
from bulkgrow.oracle import RadialOracle, sphere_oracle_mesh


def norm_M(values, mass):
    """Mass norm sqrt(e^T M e), summed over the columns of a vector field."""
    values = np.asarray(values, dtype=float)
    return math.sqrt(max(float(np.sum(values * (mass @ values))), 0.0))


def norm_h_half(values, mass_surf, stiff_surf):
    """H^(1/2) norm of one boundary field, from a new spectrum."""
    return HalfNorm(mass_surf, surface_spectrum(mass_surf, stiff_surf)).norms(values)


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


class TestHalfNorm:
    def test_constant_matches_mass_norm(self, disk):
        mesh, mats = disk
        c = 2.3 * np.ones(mesh.n_boundary)
        half = norm_h_half(c, mats.mass_surf, mats.stiff_surf)
        assert half == pytest.approx(norm_M(c, mats.mass_surf), abs=1e-10)

    def test_between_mass_and_k_norm(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = rng.standard_normal(mesh.n_boundary)
            half = norm_h_half(g, mats.mass_surf, mats.stiff_surf)
            assert norm_M(g, mats.mass_surf) - 1e-10 <= half
            assert half <= norm_K(g, mats.surface_pencil(1.0, 1.0)) + 1e-10

    def test_highest_mode(self, disk):
        mesh, mats = disk
        lam, phi = surface_spectrum(mats.mass_surf, mats.stiff_surf)
        g = phi[:, -1]
        half = HalfNorm(mats.mass_surf, (lam, phi)).norms(g)
        expected = (1.0 + lam[-1]) ** 0.25 * norm_M(g, mats.mass_surf)
        assert half == pytest.approx(expected, rel=1e-10)

    def test_block_norms_are_column_norms(self, disk):
        mesh, mats = disk
        half = HalfNorm(mats.mass_surf, surface_spectrum(mats.mass_surf, mats.stiff_surf))
        block = np.random.default_rng(6).standard_normal((mesh.n_boundary, 4))
        block[:, 1] = 0.0
        norms = half.norms(block)
        assert norms.shape == (4,)
        assert norms[1] == 0.0
        for column, value in zip(block.T, norms):
            assert value == pytest.approx(half.norms(column), rel=1e-12)

    def test_gram_inverse_inverts_the_gram_matrix(self, disk):
        mesh, mats = disk
        lam, phi = surface_spectrum(mats.mass_surf, mats.stiff_surf)
        half = HalfNorm(mats.mass_surf, (lam, phi))
        mphi = mats.mass_surf @ phi
        gram = mphi @ np.diag(np.sqrt(1.0 + lam)) @ mphi.T  # C = M phi W phi^T M
        g = np.random.default_rng(7).standard_normal((mesh.n_boundary, 2))
        for y in (g, g[:, 0]):
            back = half.gram_inverse(gram @ y)
            assert np.linalg.norm(back - y) <= 1e-10 * np.linalg.norm(y)

    def test_size_cap(self):
        import scipy.sparse as sp

        big = sp.identity(4001, format="csr")
        with pytest.raises(CapabilityError):
            HalfNorm(big, surface_spectrum(big, big))


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
        assert norm_h_half(
            gp, pmats.mass_surf, pmats.stiff_surf
        ) == pytest.approx(
            norm_h_half(g, mats.mass_surf, mats.stiff_surf), rel=1e-9
        )


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

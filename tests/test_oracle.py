import dataclasses
import math

import numpy as np
import pytest

from bulkgrow.assembly import Assembler
from bulkgrow.errors import GeometryError, ValidationError
from bulkgrow.oracle import RadialOracle, sphere_oracle_mesh


def paper_setup(m=2):
    return RadialOracle(dim_m=m, initial_radius=1.5, source=1.5, alpha=1.0, beta=1.0)


class TestRadius:
    def test_initial_radius(self):
        assert paper_setup().radius(0.0) == pytest.approx(1.5, abs=1e-15)

    def test_value_at_t3(self):
        # (R0 - 3Q) e^{-1} + 3Q with m = 2.
        expected = 4.5 - 3.0 * math.exp(-1.0)
        assert paper_setup().radius(3.0) == pytest.approx(expected, rel=1e-14)

    def test_stationary_radius(self):
        oracle = RadialOracle(dim_m=2, initial_radius=4.5, source=1.5,
                              alpha=1.0, beta=1.0)
        for t in (0.0, 0.7, 5.0):
            assert oracle.radius(t) == pytest.approx(4.5, rel=1e-14)

    def test_radius_ode(self):
        # Fourth-order central difference of the closed form vs the ODE
        # dR/dt = Q - R/(m+1); the quartic stencil leaves only roundoff.
        oracle = paper_setup()
        h = 1e-3
        for t in (0.5, 1.0, 2.5):
            deriv = (
                -oracle.radius(t + 2 * h)
                + 8 * oracle.radius(t + h)
                - 8 * oracle.radius(t - h)
                + oracle.radius(t - 2 * h)
            ) / (12 * h)
            exact = oracle.source - oracle.radius(t) / (oracle.dim_m + 1)
            assert abs(deriv - exact) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            paper_setup().radius(-0.1)


class TestPressure:
    def test_boundary_value_unit_sphere(self):
        oracle = RadialOracle(dim_m=2, initial_radius=1.0, source=1.5,
                              alpha=1.0, beta=1.0)
        # u(R) = Q + beta m / R - R/(m+1) at t = 0, R = 1.
        assert oracle.pressure_extended(1.0, 0.0) == pytest.approx(
            1.5 + 2.0 - 1.0 / 3.0, rel=1e-14
        )

    def test_center_value_is_profile_constant(self):
        oracle = paper_setup()
        r0, q, m = 1.5, 1.5, 2
        c0 = (q + 1.0 * m / r0 - r0 / (m + 1)) / 1.0 - r0 ** 2 / (2 * (m + 1))
        assert oracle.pressure_extended(0.0, 0.0) == pytest.approx(c0, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_bulk_equation_residual(self, m):
        # The radial profile is quadratic, so central differences are exact:
        # u'' + (m/r) u' must equal 1 to roundoff.
        oracle = RadialOracle(dim_m=m, initial_radius=2.0, source=0.5,
                              alpha=0.7, beta=1.3)
        h = 0.05
        for t in (0.0, 1.0):
            for r in (0.3, 0.8, 1.2):
                u = oracle.pressure_extended
                lap = (u(r + h, t) - 2 * u(r, t) + u(r - h, t)) / h ** 2
                lap += m / r * (u(r + h, t) - u(r - h, t)) / (2 * h)
                assert abs(lap - 1.0) < 1e-10

    @pytest.mark.parametrize("m", [1, 2])
    def test_robin_balance(self, m):
        oracle = RadialOracle(dim_m=m, initial_radius=1.4, source=2.0,
                              alpha=2.5, beta=0.6)
        h = 1e-4
        for t in (0.0, 0.8, 3.0):
            radius = oracle.radius(t)
            u = oracle.pressure_extended
            du = (u(radius + h, t) - u(radius - h, t)) / (2 * h)
            lhs = du + oracle.alpha * u(radius, t)
            rhs = oracle.beta * m / radius + oracle.source
            assert abs(lhs - rhs) < 1e-10

    def test_normal_derivative_at_boundary(self):
        oracle = paper_setup()
        t = 0.4
        radius = oracle.radius(t)
        h = 1e-4
        u = oracle.pressure_extended
        du = (u(radius + h, t) - u(radius - h, t)) / (2 * h)
        assert du == pytest.approx(radius / (oracle.dim_m + 1), abs=1e-10)

    def test_velocity_consistency(self):
        # -beta H + alpha u at r = R equals Q - R/(m+1).
        oracle = paper_setup()
        for t in (0.0, 1.2):
            radius = oracle.radius(t)
            value = (-oracle.beta * oracle.dim_m / radius
                     + oracle.alpha * oracle.pressure_extended(radius, t))
            assert value == pytest.approx(oracle.normal_speed(t), rel=1e-13)


class TestGeometryFields:
    """Normal, curvature and velocity of the exact state on sphere meshes."""

    def test_unit_sphere_curvature(self):
        oracle = RadialOracle(dim_m=2, initial_radius=1.0, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.5, degree=1)
        state = oracle.seed_state(mesh, 0.0)
        assert state.curvature == pytest.approx(np.full(mesh.n_boundary, 2.0), rel=1e-14)
        assert np.allclose(state.normal, mesh.boundary_positions, atol=1e-14)

    def test_circle_fields(self):
        oracle = RadialOracle(dim_m=1, initial_radius=2.0, source=1.0,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.5, degree=2)
        state = oracle.seed_state(mesh, 0.0)
        assert np.allclose(state.curvature, 0.5)
        assert np.allclose(state.normal, mesh.boundary_positions / 2.0)

    def test_initial_speed(self):
        assert paper_setup().normal_speed(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_velocity_is_radial(self):
        # (V(t)/R(t)) x at every node, and V(t) nu on the boundary.
        oracle = paper_setup()
        mesh = sphere_oracle_mesh(oracle, 0.5, degree=2)
        t = 0.4
        state = oracle.exact_state(mesh, t)
        speed = oracle.normal_speed(t)
        assert np.allclose(state.velocity, speed * state.positions / oracle.radius(t),
                           rtol=1e-14, atol=0.0)
        assert np.allclose(state.normal_speed, speed, rtol=1e-14, atol=0.0)
        ng = mesh.n_boundary
        assert np.array_equal(state.velocity[:ng], speed * state.normal)


class TestSeedState:
    def setup_method(self):
        self.oracle = RadialOracle(dim_m=1, initial_radius=1.5, source=1.5,
                                   alpha=1.0, beta=1.0)
        self.mesh = sphere_oracle_mesh(self.oracle, 0.25, degree=2)

    def test_curvature_constant(self):
        state = self.oracle.seed_state(self.mesh, 0.0)
        expected = self.oracle.dim_m / 1.5
        assert np.allclose(state.curvature, expected, atol=1e-13)

    def test_center_pressure(self):
        state = self.oracle.seed_state(self.mesh, 0.0)
        center = np.argmin(np.linalg.norm(self.mesh.node_positions, axis=1))
        assert state.pressure[center] == pytest.approx(
            self.oracle.pressure_extended(0.0, 0.0), rel=1e-12
        )

    def test_boundary_speed_uniform(self):
        state = self.oracle.seed_state(self.mesh, 0.0)
        ng = self.mesh.n_boundary
        mags = np.linalg.norm(state.velocity[:ng], axis=1)
        assert np.allclose(mags, abs(self.oracle.normal_speed(0.0)), atol=1e-12)

    def test_radius_mismatch_rejected(self):
        # seed_state carries the R(0) sphere mesh; any other mesh is refused.
        grown = dataclasses.replace(
            self.mesh, node_positions=1.1 * self.mesh.node_positions
        )
        with pytest.raises(ValidationError):
            self.oracle.seed_state(grown, 0.0)
        with pytest.raises(ValidationError):
            self.oracle.seed_state(grown, 0.5)

    def test_collapsed_radius_rejected(self):
        # Q < 0 shrinks the disk: R(t) = 3.5 exp(-t/2) - 2 vanishes at t ~ 1.12.
        oracle = RadialOracle(dim_m=1, initial_radius=1.5, source=-1.0,
                              alpha=1.0, beta=1.0)
        assert oracle.radius(2.0) < 0
        with pytest.raises(GeometryError):
            oracle.seed_state(self.mesh, 2.0)

    @pytest.mark.parametrize("dim_m, degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_velocity_is_discrete_harmonic_extension(self, dim_m, degree):
        # The closed-form field (V/R) x satisfies the interior rows of the
        # stiffness system, so it is the extension of its own trace.
        oracle = RadialOracle(dim_m=dim_m, initial_radius=1.5, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.3 if dim_m == 1 else 0.5, degree=degree)
        state = oracle.seed_state(mesh, 0.0)
        _, stiff = Assembler(mesh).bulk_matrices()
        ng = mesh.n_boundary
        interior = stiff[ng:] @ state.velocity
        coupling = stiff[ng:, :ng] @ state.velocity[:ng]
        assert np.linalg.norm(interior) <= 1e-12 * np.linalg.norm(coupling)
        assert np.array_equal(state.velocity[:ng], state.normal_speed[:, None] * state.normal)

    def test_seed_is_the_exact_state(self):
        # The error path reads exact_state; a run is seeded from the same fields.
        seed = self.oracle.seed_state(self.mesh, 0.3)
        exact = self.oracle.exact_state(self.mesh, 0.3)
        for field in dataclasses.fields(seed):
            assert np.array_equal(getattr(seed, field.name), getattr(exact, field.name))

    def test_seed_at_later_time(self):
        t = 0.3
        state = self.oracle.seed_state(self.mesh, t)
        assert state.time == pytest.approx(t)
        scale = self.oracle.radius(t) / self.oracle.radius(0.0)
        assert np.array_equal(state.positions, self.mesh.node_positions * scale)
        ng = self.mesh.n_boundary
        assert np.allclose(np.linalg.norm(state.positions[:ng], axis=1),
                           self.oracle.radius(t), rtol=1e-12)
        assert np.allclose(
            state.curvature, self.oracle.dim_m / self.oracle.radius(t), atol=1e-13
        )
        assert np.allclose(
            state.pressure[0], self.oracle.pressure_extended(self.oracle.radius(t), t),
            rtol=1e-12
        )

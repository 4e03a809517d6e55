from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from bulkgrow.assembly import Assembler, assemble_f_u, assemble_L
from bulkgrow.bdf import bdf_coefficients
from bulkgrow import mesh as mesh_module
from bulkgrow import sparsela
from bulkgrow import stepper as stepper_module
from bulkgrow.errors import GeometryError, SolverError, ValidationError
from bulkgrow.experiments import run_simulate
from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh
from bulkgrow.oracle import RadialOracle, sphere_oracle_mesh
from bulkgrow.sparsela import CachedSpdSolver, SpdFactor, nested_dissection, solve_spd
from bulkgrow.stability import stability_sweep
from bulkgrow.stepper import (
    History,
    ModelParams,
    Stepper,
    constant_source,
    curvature_step,
    ellipsoid_surface_fields,
    estimate_boundary_geometry,
    evolve,
    extrapolated_geometry,
    initial_state,
    normal_step,
    position_update,
    robin_solve,
    trace_forcing,
    velocity_law,
)


def disk_params(alpha=1.0, beta=1.0, mu=0.0, q_value=1.5):
    return ModelParams(alpha=alpha, beta=beta, mu=mu,
                       source=constant_source(q_value))


def oracle_setup(h=0.3, tau=1e-3, order=2, m=1):
    oracle = RadialOracle(dim_m=m, initial_radius=1.5, source=1.5,
                          alpha=1.0, beta=1.0)
    mesh = sphere_oracle_mesh(oracle, h, degree=2)
    params = ModelParams(alpha=1.0, beta=1.0, mu=0.0,
                         source=constant_source(1.5))
    return oracle, mesh, params, oracle.seed_history(mesh, tau, order)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            disk_params(alpha=0.0)
        with pytest.raises(ValidationError):
            disk_params(beta=-1.0)
        with pytest.raises(ValidationError):
            disk_params(mu=-0.5)


@pytest.mark.parametrize("call, message", [
    (lambda mesh, params, seed: History([]), "history must contain at least one state"),
    (lambda mesh, params, seed: History([replace(seed, time=2e-3), seed], tau=1e-3),
     "history spacing does not match the time step"),
    (lambda mesh, params, seed: History([seed]).push(seed, 2),
     "new state must advance in time"),
    (lambda mesh, params, seed: Stepper(mesh, params, 2, 0.0), "time step must be positive"),
], ids=["empty-history", "history-spacing", "push-not-advancing", "zero-tau"])
def test_time_levels_checked(call, message):
    _, mesh, params, history = oracle_setup(h=0.5, order=1)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(mesh, params, history[0])


class TestHistory:
    def test_ordering_enforced(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        oracle = RadialOracle(dim_m=1, initial_radius=1.0, source=1.5,
                              alpha=1.0, beta=1.0)
        s0 = oracle.seed_state(mesh, 0.0)
        with pytest.raises(ValidationError):
            History([s0, s0])

    def test_push_grows_to_depth(self):
        _, _, _, history = oracle_setup(h=0.5, order=1)
        seed = history[0]
        for k in range(1, 6):
            history.push(replace(seed, time=k * 1e-3), 3)
            assert len(history) == min(k + 1, 3)
        assert [s.time for s in history] == pytest.approx([5e-3, 4e-3, 3e-3])

    def test_solved_counts_pushes(self):
        # Seed states are not step results; every pushed state is.
        _, _, _, history = oracle_setup(h=0.5, order=2)
        assert history.solved == 0
        for k in range(1, 4):
            history.push(replace(history[0], time=history[0].time + 1e-3), 2)
            assert history.solved == k


class TestExtrapolatedGeometry:
    def test_stationary_history(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=2)
        # Overwrite with two copies of the same configuration.
        s = history[0]
        frozen = History(
            [s, type(s)(time=s.time - 1e-3, positions=s.positions,
                        pressure=s.pressure, normal=s.normal,
                        curvature=s.curvature, normal_speed=s.normal_speed,
                        velocity=s.velocity)]
        )
        assembler = Assembler(mesh)
        geo = extrapolated_geometry(frozen, bdf_coefficients(2), assembler)
        assert np.allclose(geo.positions, s.positions, atol=1e-14)
        mats = Assembler(mesh).system(s.positions)
        assert np.allclose(geo.matrices.volume_load, mats.volume_load)

    def test_order_one_is_pure_lag(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=1)
        geo = extrapolated_geometry(history, bdf_coefficients(1), Assembler(mesh))
        assert np.array_equal(geo.positions, history[0].positions)

    def test_oracle_extrapolation_accuracy(self):
        tau = 1e-2
        oracle, mesh, params, history = oracle_setup(h=0.4, tau=tau, order=2)
        geo = extrapolated_geometry(history, bdf_coefficients(2), Assembler(mesh))
        t_next = history[0].time + tau
        exact = oracle.exact_state(mesh, t_next).positions
        # Extrapolation of a smooth flow is O(tau^2) accurate.
        assert np.abs(geo.positions - exact).max() < 5.0 * tau ** 2


class TestRobinSolve:
    def test_sphere_boundary_value(self):
        oracle, mesh, params, history = oracle_setup(h=0.15, order=1, m=1)
        geo = extrapolated_geometry(history, bdf_coefficients(1), Assembler(mesh))
        u = robin_solve(geo, params, 0.0, lambda m, b: SpdFactor(m).solve(b))
        radius = 1.5
        expected = 1.5 + 1.0 / radius - radius / 2.0  # Q + beta m/R - R/(m+1)
        u_gamma = u[: mesh.n_boundary]
        assert np.abs(u_gamma - expected).max() < 5e-3
        # Interior profile r^2 / (2(m+1)) + const.
        r = np.linalg.norm(mesh.node_positions, axis=1)
        profile = r ** 2 / 4.0
        shifted = u - profile
        assert shifted.std() < 5e-3

    def test_pure_constant_modified_system(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        mats = Assembler(mesh).system()
        params = disk_params(alpha=1.3, mu=0.7)
        ell = assemble_L(mats, params.alpha, params.mu)
        c = 2.2
        # Drop the bulk load: the constant c solves the boundary-only system
        # with source alpha * c and no curvature term.
        rhs = assemble_f_u(
            mats, mesh.boundary_positions, np.zeros(mesh.n_boundary),
            beta=1.0, source=constant_source(params.alpha * c), time=0.0,
        )
        rhs += Assembler(mesh).bulk_mass() @ np.ones(mesh.n_nodes)
        u = SpdFactor(ell).solve(rhs)
        assert np.allclose(u, c, atol=1e-9)

    def test_linearity(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=1)
        geo = extrapolated_geometry(history, bdf_coefficients(1), Assembler(mesh))
        ell = assemble_L(geo.matrices, params.alpha, params.mu)
        rhs = assemble_f_u(
            geo.matrices, geo.positions[: mesh.n_boundary], geo.curvature,
            params.beta, params.source, 0.0,
        )
        u1 = SpdFactor(ell).solve(rhs)
        u2 = SpdFactor(ell).solve(2.0 * rhs)
        assert np.allclose(u2, 2.0 * u1, atol=1e-9)


class TestSurfaceSteps:
    def test_constant_normal_is_steady(self):
        # Constant normal, zero pressure: every component of the constant
        # lies in the stiffness kernel, so the normal must not move.
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        params = disk_params()
        tau = 1e-2
        n_const = np.tile([0.6, 0.8], (mesh.n_boundary, 1))
        oracle = RadialOracle(dim_m=1, initial_radius=1.0, source=1.5,
                              alpha=1.0, beta=1.0)
        base = oracle.seed_state(mesh, 0.0)
        states = []
        for i in range(2):
            states.append(
                type(base)(
                    time=-i * tau,
                    positions=base.positions,
                    pressure=np.zeros(mesh.n_nodes),
                    normal=n_const.copy(),
                    curvature=base.curvature,
                    normal_speed=base.normal_speed,
                    velocity=base.velocity,
                )
            )
        history = History(states, tau=tau)
        scheme = bdf_coefficients(2)
        assembler = Assembler(mesh)
        geo = extrapolated_geometry(history, scheme, assembler)
        w = np.zeros(mesh.n_boundary)
        w_tilde = trace_forcing(params, geo.pressure[: mesh.n_boundary])
        normal_rhs = normal_step(geo, history, w, scheme, tau, params, assembler)
        new_normal, _ = curvature_step(
            geo, history, w, w_tilde, normal_rhs, scheme, tau, params, assembler, solve_spd,
        )
        assert np.allclose(new_normal, n_const, atol=1e-10)

    def test_normal_step_ignores_constant_pressure_shift(self):
        # The pressure enters through tangential gradients only, so adding a
        # constant must not change the result.
        oracle, mesh, params, history = oracle_setup(h=0.3, order=2)
        scheme = bdf_coefficients(2)
        assembler = Assembler(mesh)
        geo = extrapolated_geometry(history, scheme, assembler)
        u = history[0].pressure[: mesh.n_boundary]
        w_tilde = trace_forcing(params, geo.pressure[: mesh.n_boundary])

        def new_normal(trace):
            w = trace_forcing(params, trace)
            rhs = normal_step(geo, history, w, scheme, 1e-3, params, assembler)
            return curvature_step(geo, history, w, w_tilde, rhs, scheme, 1e-3, params,
                                  assembler, solve_spd)[0]

        assert np.allclose(new_normal(u), new_normal(u + 4.2), atol=1e-9)

    def test_curvature_mass_conservation_without_forcing(self):
        # Constant normal makes the quadratic forcing vanish; with zero
        # pressure the curvature equation is a discrete heat step, and
        # multiplying by the all-ones vector shows 1^T M H is conserved by
        # the BDF combination.
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        params = disk_params()
        tau = 5e-3
        rng = np.random.default_rng(11)
        curv = rng.standard_normal(mesh.n_boundary)
        oracle = RadialOracle(dim_m=1, initial_radius=1.0, source=1.5,
                              alpha=1.0, beta=1.0)
        base = oracle.seed_state(mesh, 0.0)
        n_const = np.tile([1.0, 0.0], (mesh.n_boundary, 1))
        state = type(base)(
            time=0.0, positions=base.positions,
            pressure=np.zeros(mesh.n_nodes), normal=n_const,
            curvature=curv, normal_speed=base.normal_speed,
            velocity=base.velocity,
        )
        history = History([state])
        scheme = bdf_coefficients(1)
        assembler = Assembler(mesh)
        geo = extrapolated_geometry(history, scheme, assembler)
        w = np.zeros(mesh.n_boundary)
        w_tilde = trace_forcing(params, geo.pressure[: mesh.n_boundary])
        normal_rhs = normal_step(geo, history, w, scheme, tau, params, assembler)
        _, new_curv = curvature_step(
            geo, history, w, w_tilde, normal_rhs, scheme, tau, params, assembler, solve_spd,
        )
        mass = geo.matrices.mass_surf
        ones = np.ones(mesh.n_boundary)
        assert ones @ (mass @ new_curv) == pytest.approx(
            ones @ (mass @ curv), abs=1e-9
        )


class TestVelocityLaw:
    def test_sphere_values(self):
        # R = 1, m = 2: u_Gamma = 19/6, H = 2, V = Q - R/(m+1).
        u_gamma = np.full(4, 1.5 + 2.0 - 1.0 / 3.0)
        curvature = np.full(4, 2.0)
        normal = np.tile([0.0, 0.0, 1.0], (4, 1))
        params = disk_params(q_value=0.0)
        speed, v_gamma = velocity_law(trace_forcing(params, u_gamma), curvature, normal,
                                      params)
        assert np.allclose(speed, 1.5 - 1.0 / 3.0)
        assert np.allclose(v_gamma[:, 2], speed)

    def test_equilibrium(self):
        params = disk_params(alpha=2.0, beta=0.5, q_value=0.0)
        curvature = np.array([1.0, 2.0])
        u_gamma = params.beta * curvature / params.alpha
        speed, v_gamma = velocity_law(trace_forcing(params, u_gamma), curvature,
                                      np.ones((2, 3)), params)
        assert np.allclose(speed, 0.0, atol=1e-15)
        assert np.allclose(v_gamma, 0.0, atol=1e-15)

    def test_flipping_normal_flips_velocity(self):
        params = disk_params(q_value=0.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(5)
        h = rng.standard_normal(5)
        n = rng.standard_normal((5, 2))
        _, v1 = velocity_law(u, h, n, params)
        _, v2 = velocity_law(u, h, -n, params)
        assert np.allclose(v1, -v2)

    def test_trace_forcing_is_the_one_seam(self, monkeypatch):
        # A constant g added to w = alpha u_Gamma, in the initial state and in
        # every step's new and extrapolated trace, acts on the radial
        # solution as a source Q + g: the normal and curvature equations see
        # surface derivatives of g, which vanish, and |A|^2 V~, and the
        # velocity law V = -beta H + w sees g itself.  The radius follows
        # V, and the curvature 1/R only if V~ holds g as well.
        g, q_value = 0.3, 1.5
        seam = stepper_module.trace_forcing
        monkeypatch.setattr(stepper_module, "trace_forcing",
                            lambda params, trace: seam(params, trace) + g)
        mesh = generate_disk_mesh(1.5, 0.1, degree=2)
        normal, curvature = ellipsoid_surface_fields(mesh.boundary_positions, (1.5, 1.5))
        stepper = Stepper(mesh, disk_params(q_value=q_value), 2, 2e-3)
        history = evolve(stepper, History([initial_state(stepper, normal, curvature)]), 99)
        state = history[0]
        radius = np.linalg.norm(state.positions[: mesh.n_boundary], axis=1).mean()

        def oracle_radius(source):
            return RadialOracle(dim_m=1, initial_radius=1.5, source=source,
                                alpha=1.0, beta=1.0).radius(state.time)

        assert state.time == pytest.approx(0.2)
        assert radius == pytest.approx(oracle_radius(q_value + g), rel=1e-5)
        assert abs(radius / oracle_radius(q_value) - 1.0) > 0.01
        assert np.abs(state.curvature - 1.0 / oracle_radius(q_value + g)).max() < 1e-4


class TestPositionUpdate:
    def test_zero_velocity_constant_history(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=1)
        scheme = bdf_coefficients(1)
        x = position_update(
            scheme, history, np.zeros_like(history[0].positions), 1e-3, mesh
        )
        assert np.allclose(x, history[0].positions, atol=1e-14)

    def test_order_one_is_explicit_euler(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=1)
        scheme = bdf_coefficients(1)
        tau = 1e-2
        v = np.ones_like(history[0].positions)
        x = position_update(scheme, history, v, tau, mesh)
        assert np.allclose(x, history[0].positions + tau * v, atol=1e-14)

    def test_tangling_detected(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=1)
        scheme = bdf_coefficients(1)
        v = np.zeros_like(history[0].positions)
        # Drive one interior node across the domain in a single step.
        v[mesh.n_boundary + 1] = 1e4
        with pytest.raises(GeometryError):
            position_update(scheme, history, v, 1e-2, mesh=mesh)


class TestFullStep:
    def test_single_bdf1_step_tracks_radius_ode(self):
        tau = 1e-3
        oracle, mesh, params, history = oracle_setup(h=0.3, tau=tau, order=1)
        stepper = Stepper(mesh, params, 1, tau)
        state = stepper.step(history)
        ng = mesh.n_boundary
        radii = np.linalg.norm(state.positions[:ng], axis=1)
        expected = 1.5 + tau * oracle.normal_speed(0.0)
        # One explicit-Euler position update: radius error O(tau^2 + tau h^2).
        assert abs(radii.mean() - expected) < 5e-3 * tau + 2e-6

    def test_equilibrium_configuration_nearly_static(self):
        tau = 1e-3
        oracle = RadialOracle(dim_m=1, initial_radius=3.0, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.4, degree=2)
        params = ModelParams(alpha=1.0, beta=1.0, mu=0.0,
                             source=constant_source(1.5))
        history = History([oracle.seed_state(mesh, 0.0)])
        stepper = Stepper(mesh, params, 1, tau)
        state = stepper.step(history)
        # V vanishes for the exact solution; discretely V = O(h^2), so the
        # displacement in one step is at most tau * O(h^2).
        move = np.abs(state.positions - mesh.node_positions).max()
        assert move < 50.0 * tau * mesh.mesh_size_h ** 2

    def test_local_error_probe_order_one(self):
        oracle, mesh, params, history = oracle_setup(h=0.4, order=1)

        def two_steps_vs_one(tau):
            h1 = History([history[0]])
            stepper = Stepper(mesh, params, 1, tau)
            s1 = stepper.step(h1)
            h1.push(s1, stepper.depth)
            s2 = stepper.step(h1)
            h2 = History([history[0]])
            big = Stepper(mesh, params, 1, 2 * tau)
            sbig = big.step(h2)
            return np.abs(s2.positions - sbig.positions).max()

        d1 = two_steps_vs_one(2e-3)
        d2 = two_steps_vs_one(1e-3)
        assert d1 / d2 == pytest.approx(4.0, rel=0.35)

    @pytest.mark.parametrize("length", [1, 2])
    def test_short_history_takes_its_order(self, length):
        # An order-3 stepper steps a history of k < 3 states with BDFk,
        # bitwise as a fresh order-k stepper does.
        tau = 1e-3
        _, mesh, params, history = oracle_setup(h=0.4, tau=tau, order=2)
        short = history.states[:length]
        stepper = Stepper(mesh, params, 3, tau)
        got = stepper.step(History(short))
        want = Stepper(mesh, params, length, tau).step(History(short))
        for name, value in vars(got).items():
            assert np.array_equal(value, getattr(want, name)), name
        assert list(stepper.surface_solvers) == [length]
        # Evolved, a short history grows, and each step takes the order its
        # length supports: from one seed state, orders 1, 2 and 3.
        stepper = Stepper(mesh, params, 3, tau)
        evolve(stepper, History(history.states[-1:]), 3)
        assert list(stepper.surface_solvers) == [1, 2, 3]

    def test_first_four_steps_take_the_bdf_guesses(self, monkeypatch):
        # A history holds four step results after the first four steps of a
        # run; until then its steps are bitwise those of a stepper that
        # takes no cubic guesses, and from the fifth step on they differ.
        tau = 1e-3
        oracle, mesh, params, _ = oracle_setup(h=0.4, tau=tau, order=2)

        def run():
            states = []
            evolve(Stepper(mesh, params, 2, tau), oracle.seed_history(mesh, tau, 2), 5,
                   lambda k, state: states.append(state))
            return states

        kept = run()
        monkeypatch.setattr(stepper_module, "_GUESS_STATES", 0)
        plain = run()
        for got, want in zip(kept[:4], plain[:4]):
            for name, value in vars(got).items():
                assert np.array_equal(value, getattr(want, name)), name
        assert not np.array_equal(kept[4].pressure, plain[4].pressure)

    def test_foreign_history_takes_the_bdf_guesses(self, monkeypatch):
        # A history built from given states counts none of them as step
        # results, not even states a run returned: it takes the BDF guesses
        # until four steps have been pushed.
        tau = 1e-3
        _, mesh, params, seed = oracle_setup(h=0.4, tau=tau, order=2)
        given = evolve(Stepper(mesh, params, 2, tau), seed, 6).states[:2]

        def run():
            states = []
            evolve(Stepper(mesh, params, 2, tau), History(given), 5,
                   lambda k, state: states.append(state))
            return states

        kept = run()
        monkeypatch.setattr(stepper_module, "_GUESS_STATES", 0)
        plain = run()
        for got, want in zip(kept[:4], plain[:4]):
            for name, value in vars(got).items():
                assert np.array_equal(value, getattr(want, name)), name
        assert not np.array_equal(kept[4].pressure, plain[4].pressure)

    @pytest.mark.parametrize("target, error, stage, field, value", [
        ("check_orientation", GeometryError, "position_update", "element", 17),
        ("robin_solve", SolverError, "robin_solve", "residual", 1e-7),
    ])
    def test_step_failure_keeps_context(self, monkeypatch, target, error, stage,
                                        field, value):
        tau = 1e-3
        _, mesh, params, history = oracle_setup(h=0.4, tau=tau, order=1)

        def fail(*args, **kwargs):
            raise error("stage failed", **{field: value})

        monkeypatch.setattr(stepper_module, target, fail)
        with pytest.raises(error) as err:
            Stepper(mesh, params, 1, tau).step(history)
        assert getattr(err.value, field) == value
        inner = str(error("stage failed", **{field: value}))
        time_next = history[0].time + tau
        assert str(err.value) == f"step 1 ({stage}, t={time_next:.6g}): {inner}"

    def test_radial_symmetry_preserved_over_short_run(self):
        tau = 2e-3
        oracle, mesh, params, history = oracle_setup(h=0.3, tau=tau, order=2)
        stepper = Stepper(mesh, params, 2, tau)
        evolve(stepper, history, 25)
        ng = mesh.n_boundary
        radii = np.linalg.norm(history[0].positions[:ng], axis=1)
        assert radii.std() < 5.0 * (mesh.mesh_size_h ** 2 + tau ** 2)
        expected = oracle.radius(history[0].time)
        assert abs(radii.mean() - expected) < 5.0 * (mesh.mesh_size_h ** 2 + tau ** 2)


class TestInitialData:
    def test_ellipse_fields_match_circle(self):
        pts = 2.0 * np.array([[1.0, 0.0], [0.0, 1.0]])
        normal, curv = ellipsoid_surface_fields(pts, (2.0, 2.0))
        assert np.allclose(curv, 0.5)
        assert np.allclose(normal, pts / 2.0)

    def test_sphere_fields(self):
        pts = np.array([[0.0, 0.0, 1.5]])
        normal, curv = ellipsoid_surface_fields(pts, (1.5, 1.5, 1.5))
        assert np.allclose(curv, 2.0 / 1.5)

    def test_ellipsoid_curvature_spot_check(self):
        # At the pole (0, 0, c) of an ellipsoid with semi-axes (a, a, c) the
        # principal curvatures are both c/a^2.
        a, c = 0.5, 1.0
        normal, curv = ellipsoid_surface_fields(np.array([[0.0, 0.0, c]]), (a, a, c))
        assert curv[0] == pytest.approx(2.0 * c / a ** 2, rel=1e-12)
        assert np.allclose(normal[0], [0.0, 0.0, 1.0])

    def test_discrete_geometry_estimate_on_circle(self):
        mesh = generate_disk_mesh(1.5, 0.1, degree=2)
        normal, curv = estimate_boundary_geometry(mesh)
        exact_n = mesh.boundary_positions / 1.5
        assert np.abs(curv - 1.0 / 1.5).max() < 2e-3
        assert np.abs(normal - exact_n).max() < 2e-3

    def test_initial_state_solves_robin_problem(self):
        oracle = RadialOracle(dim_m=1, initial_radius=1.5, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.2, degree=2)
        params = disk_params()
        normal, curv = ellipsoid_surface_fields(
            mesh.boundary_positions, (1.5, 1.5)
        )
        state = initial_state(Stepper(mesh, params, 1, 1e-3), normal, curv)
        exact = oracle.pressure_extended(1.5, 0.0)
        assert np.abs(state.pressure[: mesh.n_boundary] - exact).max() < 5e-3

    def test_bootstrap_produces_full_history(self):
        oracle = RadialOracle(dim_m=1, initial_radius=1.5, source=1.5,
                              alpha=1.0, beta=1.0)
        mesh = sphere_oracle_mesh(oracle, 0.3, degree=2)
        params = disk_params()
        normal, curv = ellipsoid_surface_fields(mesh.boundary_positions, (1.5, 1.5))
        # The start step is an ordinary BDF1 step on the run's history, which
        # evolve takes before any of its n_steps steps.
        stepper = Stepper(mesh, params, 2, 1e-3)
        history = evolve(stepper, History([initial_state(stepper, normal, curv)]), 0)
        assert list(stepper.surface_solvers) == [1]
        assert len(history) == 2
        assert history[0].time == pytest.approx(1e-3)
        assert history[1].time == pytest.approx(0.0)
        # The bootstrapped run should track the radial solution.
        radii = np.linalg.norm(history[0].positions[: mesh.n_boundary], axis=1)
        assert abs(radii.mean() - oracle.radius(1e-3)) < 1e-3


class TestCachedSolves:
    """The cached factors on a run whose shape really changes; oracle runs
    are self-similar, so they cannot show a factor ageing."""

    def test_factors_last_a_nonradial_run(self, monkeypatch, tmp_path):
        factored = Counter()      # factorizations by matrix rows
        iterations = []           # PCG iterations of each cached solve
        orderings = []            # node counts of the dissected meshes
        init, apply_inverse = SpdFactor.__init__, SpdFactor.apply_inverse
        cached_solve = CachedSpdSolver.solve

        def counting_init(self, matrix, *args, **kwargs):
            factored[matrix.shape[0]] += 1
            init(self, matrix, *args, **kwargs)

        def counting_dissection(graph, points):
            orderings.append(graph.shape[0])
            return nested_dissection(graph, points)

        def counting_apply(self, rhs):
            iterations[-1] += 1
            return apply_inverse(self, rhs)

        def counting_solve(self, matrix, rhs, x0):
            iterations.append(0)
            return cached_solve(self, matrix, rhs, x0)

        monkeypatch.setattr(SpdFactor, "__init__", counting_init)
        monkeypatch.setattr(SpdFactor, "apply_inverse", counting_apply)
        monkeypatch.setattr(CachedSpdSolver, "solve", counting_solve)
        monkeypatch.setattr(mesh_module, "nested_dissection", counting_dissection)
        steps = 100
        run_simulate({
            "model": {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": 1.5},
            "geometry": {"kind": "ellipsoid", "radii": [1.0, 0.8, 0.9], "h": 0.5},
            "discretization": {"k": 2, "q": 2, "tau": 1e-3, "T": steps * 1e-3},
            "run": {"kind": "simulate", "snapshots": 1, "seed_mode": "bootstrap"},
        }, str(tmp_path))
        mesh = generate_ball_mesh([1.0, 0.8, 0.9], 0.5, degree=2)
        n, ng = mesh.n_nodes, mesh.n_boundary
        # The bootstrap's seed solves and BDF1 start step share L and A_II
        # with the run; the surface pencil is factored once per BDF order.
        assert factored == {n: 1, n - ng: 1, ng: 2}
        # One ordering of the mesh, shared by L and A_II and by the start.
        assert orderings == [n]
        # Robin, joint normal-and-curvature and harmonic solves of every
        # step, plus the seed state's Robin and harmonic solves.
        assert len(iterations) == 3 * (steps + 1) + 2
        assert max(iterations) <= 6

    def test_kept_solutions_save_factor_applies(self, monkeypatch):
        # On a shape that really changes, guesses from the last four
        # solutions take fewer factor applies than the BDF2 extrapolation,
        # for the same states.
        radii = [1.0, 0.8, 0.9]
        mesh = generate_ball_mesh(radii, 0.5, degree=2)
        normal, curvature = ellipsoid_surface_fields(mesh.boundary_positions, radii)
        apply_inverse = SpdFactor.apply_inverse

        def run():
            applies = 0

            def counting_apply(self, rhs):
                nonlocal applies
                applies += 1
                return apply_inverse(self, rhs)

            monkeypatch.setattr(SpdFactor, "apply_inverse", counting_apply)
            stepper = Stepper(mesh, disk_params(), 2, 1e-3)
            history = evolve(stepper, History([initial_state(stepper, normal, curvature)]),
                             15)
            return history[0], applies

        kept, kept_applies = run()
        monkeypatch.setattr(stepper_module, "_GUESS_STATES", 0)
        plain, plain_applies = run()
        assert kept_applies < plain_applies
        for name, value in vars(plain).items():
            error = np.abs(getattr(kept, name) - value).max()
            assert error <= 1e-9 * np.abs(value).max(), name

    def test_forced_refresh_refactors_and_meets_tol(self, monkeypatch):
        # A refresh forced on every solve, on a moved mesh, factors L and A_II
        # again, and the solves still meet TOL.
        factored = Counter()
        init = SpdFactor.__init__

        def counting_init(self, matrix, *args, **kwargs):
            factored[matrix.shape[0]] += 1
            init(self, matrix, *args, **kwargs)

        monkeypatch.setattr(SpdFactor, "__init__", counting_init)
        monkeypatch.setattr(CachedSpdSolver, "REFRESH_ITERS", -1)
        mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2)
        stepper = Stepper(mesh, disk_params(), 2, 1e-3)
        n, ng = mesh.n_nodes, mesh.n_boundary
        rng = np.random.default_rng(8)
        for positions in (mesh.node_positions, mesh.node_positions * [1.2, 1.0, 0.9]):
            system = stepper.assembler.system(positions)
            interior, _ = system.stiffness_blocks()
            stepper.robin_solver.solve(assemble_L(system, 1.0), rng.standard_normal(n),
                                       np.zeros(n))
            stepper.harmonic_solver.solve(interior, rng.standard_normal((n - ng, 3)),
                                          np.zeros((n - ng, 3)))
        assert factored == {n: 2, n - ng: 2}


class TestBulkOrdering:
    """Which factorizations get the nested-dissection ordering."""

    @staticmethod
    def record_factors(monkeypatch):
        """List that collects (factor, perm) of every later factorization."""
        factors = []
        init = SpdFactor.__init__

        def recording_init(self, matrix, perm=None):
            init(self, matrix, perm)
            factors.append((self, perm))

        monkeypatch.setattr(SpdFactor, "__init__", recording_init)
        return factors

    def robin_factors(self, monkeypatch, mesh):
        """(factor, perm) of each factorization of one Robin solve on a
        fresh stepper."""
        factors = self.record_factors(monkeypatch)
        stepper = Stepper(mesh, disk_params(), 2, 1e-3)
        ell = assemble_L(stepper.assembler.system(), 1.0)
        n = mesh.n_nodes
        stepper.robin_solver.solve(ell, np.ones(n), np.zeros(n))
        return ell, factors

    def test_3d_robin_factor_fill(self, monkeypatch):
        # 24,389 nodes: nested dissection fills 40x, minimum degree 112x, in
        # SuperLU's LU; the fill of the ordering, (2 nnz(L) - n) / nnz(A) on
        # the unmerged separator tree, is 37x.
        mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.125, degree=1)
        ell, factors = self.robin_factors(monkeypatch, mesh)
        [(factor, perm)] = factors
        assert perm is mesh.bulk_orderings[0]
        monkeypatch.setattr(sparsela, "_FRONT_COLUMNS", 0)
        fill = (2 * sparsela._Symbolic(ell, perm).nnz - ell.shape[0]) / ell.nnz
        assert fill <= 60.0

    def test_2d_factors_keep_minimum_degree(self, monkeypatch):
        _, factors = self.robin_factors(monkeypatch, generate_disk_mesh(1.5, 0.3, degree=2))
        assert [perm for _, perm in factors] == [None]

    @staticmethod
    def element_graph_orderings(mesh):
        """bulk_orderings from a graph of all E * n_loc^2 element entries with
        the duplicates summed, the construction the shared pattern replaced."""
        conn = mesh.bulk_elements
        n_loc = conn.shape[1]
        rows = np.repeat(conn, n_loc, axis=1).ravel()
        cols = np.tile(conn, (1, n_loc)).ravel()
        graph = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
        )
        bulk, tree = nested_dissection(graph, mesh.node_positions)
        ng = mesh.n_boundary
        return bulk, bulk[bulk >= ng] - ng, tree

    @pytest.fixture
    def large_disk(self, monkeypatch):
        """A P2 disk with the 2d dissection threshold lowered to its node
        count, so that it is just large enough."""
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        monkeypatch.setattr(mesh_module, "_MIN_DISSECTION_NODES_2D", mesh.n_nodes)
        return mesh

    def test_orderings_match_the_element_graph(self, large_disk):
        ball = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=2)
        bulk, interior, tree = self.element_graph_orderings(ball)
        dissections = ball.bulk_orderings
        for dissection, expected in zip(dissections, (bulk, interior)):
            assert np.array_equal(dissection.perm, expected)
        for column, expected in zip(dissections[0].tree, tree):
            assert np.array_equal(column, expected)
        for perm, expected in zip(large_disk.bulk_orderings,
                                  self.element_graph_orderings(large_disk)):
            assert np.array_equal(perm, expected)

    def test_large_2d_mesh_gets_nested_dissection(self, large_disk):
        bulk, interior = large_disk.bulk_orderings
        ng = large_disk.n_boundary
        assert np.array_equal(np.sort(bulk), np.arange(large_disk.n_nodes))
        assert np.array_equal(interior, bulk[bulk >= ng] - ng)

    def test_large_2d_robin_factor(self, monkeypatch, large_disk):
        _, factors = self.robin_factors(monkeypatch, large_disk)
        [(_, perm)] = factors
        assert perm is large_disk.bulk_orderings[0]

    @pytest.mark.parametrize("mode", ["dirichlet", "robin"])
    def test_large_2d_stability_sweep(self, monkeypatch, large_disk, mode):
        # The sweep factors in the dissection orderings, and its ratios are
        # those of minimum degree, on a copy of the mesh below the threshold.
        factors = self.record_factors(monkeypatch)
        # The Dirichlet mode then factors the H^(1/2) pencils in minimum degree.
        per_sweep = 2 if mode == "dirichlet" else 1
        [row] = stability_sweep([(large_disk, Assembler(large_disk).system())], mode,
                                samples=4, seed=0, boost_iters=3)
        bulk, interior = large_disk.bulk_orderings
        assert len(factors) == per_sweep and all(p is None for _, p in factors[1:])
        assert factors[0][1] is (interior if mode == "dirichlet" else bulk)
        monkeypatch.setattr(mesh_module, "_MIN_DISSECTION_NODES_2D", large_disk.n_nodes + 1)
        below = generate_disk_mesh(1.0, 0.3, degree=2)
        [reference] = stability_sweep([(below, Assembler(below).system())], mode,
                                      samples=4, seed=0, boost_iters=3)
        assert len(factors) == 2 * per_sweep and factors[per_sweep][1] is None
        assert row["max_ratio"] == pytest.approx(reference["max_ratio"], rel=1e-9)

    @pytest.mark.parametrize("mode", ["dirichlet", "robin"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stability_sweep_shares_the_ordering(self, monkeypatch, mode, dim):
        # The sweeps factor L and A_II in the orderings the time loop uses.
        if dim == 3:
            mesh = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=1)
        else:
            mesh = generate_disk_mesh(1.0, 0.3, degree=1)
        factors = self.record_factors(monkeypatch)
        stability_sweep([(mesh, Assembler(mesh).system())], mode,
                        samples=2, seed=0, boost_iters=1)
        bulk, interior = mesh.bulk_orderings
        expected = interior if mode == "dirichlet" else bulk
        # The Dirichlet mode then factors the H^(1/2) pencils in minimum degree.
        (factor, perm), *pencils = factors
        assert [p for _, p in pencils] == ([None] if mode == "dirichlet" else [])
        if dim == 2:
            assert perm is None and expected is None
        else:
            assert perm is expected
            assert np.array_equal(np.sort(perm.perm), np.arange(factor.matrix.shape[0]))

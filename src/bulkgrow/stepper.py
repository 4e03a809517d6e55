"""Linearly implicit BDF stepping of the coupled bulk-surface system.

One step freezes the geometry at the extrapolated positions and then solves,
in order: the generalized Robin problem for the pressure, the two surface
evolution equations for normal and curvature (which use the new pressure;
they share one matrix and are solved together), the nodal velocity law, the
discrete harmonic velocity extension, and the position update.  Each
implicit sub-system is symmetric positive definite.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import Assembler, assemble_f_u, assemble_L
from .bdf import bdf_coefficients, extrapolate, weighted_sum
from .errors import BulkgrowError, ValidationError, with_context
from .mesh import check_orientation
from .sparsela import CachedSpdSolver, dirichlet_extension, solve_spd

# Step results a Stepper's cached solves start from, by extrapolating through
# them with the coefficients of that order, (4, -6, 4, -1), computed once; a
# run's History keeps at least this many states.  Set by measurement: the
# Robin solves of the 150 steps of the sim2d disk took 300 factor applies
# from the BDF2 extrapolation, 266 through 3 solutions, 120 through 4 and 140
# through 5, whose larger coefficients amplify the roundoff left in the
# stored solutions.
_GUESS_STATES = 4
_GUESS_GAMMA = bdf_coefficients(_GUESS_STATES).gamma


@dataclass(frozen=True)
class ModelParams:
    """Model constants and the boundary source term.

    ``source`` is a callable mapping (points, time) to nodal values.
    """

    alpha: float
    beta: float
    mu: float
    source: callable

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.mu < 0:
            raise ValidationError("mu must be nonnegative")


def constant_source(value):
    """Source term Q that is constant in space and time; the callable
    carries its ``value``."""
    value = float(value)

    def q(points, time):
        return np.full(np.atleast_2d(points).shape[0], value)

    q.value = value
    return q


@dataclass(frozen=True)
class SimState:
    """Nodal unknowns of one time level."""

    time: float
    positions: np.ndarray     # (N, m+1)
    pressure: np.ndarray      # (N,)
    normal: np.ndarray        # (N_Gamma, m+1)
    curvature: np.ndarray     # (N_Gamma,)
    normal_speed: np.ndarray  # (N_Gamma,)
    velocity: np.ndarray      # (N, m+1)


class History:
    """A run's past states, newest first, with uniform spacing.

    It starts from seed states and grows by :meth:`push`, which keeps the
    newest ``depth`` states.  ``solved`` counts the pushed states, the step
    results; the seed states are not.
    """

    def __init__(self, states, tau=None):
        states = list(states)
        if not states:
            raise ValidationError("history must contain at least one state")
        times = [s.time for s in states]
        if any(t1 <= t2 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("history times must strictly decrease (newest first)")
        if tau is not None and len(states) > 1:
            gaps = -np.diff(times)
            if np.max(np.abs(gaps - tau)) > 1e-9 * max(tau, 1.0):
                raise ValidationError("history spacing does not match the time step")
        self.states = states
        self.solved = 0

    def push(self, state, depth):
        if state.time <= self.states[0].time:
            raise ValidationError("new state must advance in time")
        self.states.insert(0, state)
        del self.states[depth:]
        self.solved += 1

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def field(self, name):
        return [getattr(s, name) for s in self.states]


@dataclass
class ExtrapolatedGeometry:
    """Fields and matrices of the configuration one step is frozen at: the
    extrapolated one while stepping, the given one for initial data.  The
    step's forcings read its normal, curvature and pressure; the guesses of
    the step's solves are formed apart from it (see :class:`Stepper`)."""

    positions: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray
    pressure: np.ndarray
    matrices: object  # SystemMatrices, with the surface geometry
    weingarten: np.ndarray = None  # |A_h|^2 of ``normal`` at the facet qps


def extrapolated_geometry(history, scheme, assembler):
    """Extrapolate (x, n, H, u) and assemble all matrices there, with
    |A_h|^2 of the extrapolated normal for both curvature forcings."""
    q = scheme.order
    positions = extrapolate(scheme, history.field("positions")[:q])
    normal = extrapolate(scheme, history.field("normal")[:q])
    matrices = assembler.system(positions)
    return ExtrapolatedGeometry(
        positions=positions,
        normal=normal,
        curvature=extrapolate(scheme, history.field("curvature")[:q]),
        pressure=extrapolate(scheme, history.field("pressure")[:q]),
        matrices=matrices,
        weingarten=assembler.weingarten_norm_sq(normal, matrices.surface),
    )


def trace_forcing(params, pressure_trace):
    """w = alpha u_Gamma, the pressure trace as the velocity law and the
    surface equations read it; the one place alpha scales the trace."""
    return params.alpha * np.asarray(pressure_trace)


def robin_solve(geometry, params, time, solve):
    """Pressure from the generalized Robin problem on the frozen geometry;
    ``solve(matrix, rhs)`` solves the SPD system."""
    mats = geometry.matrices
    ell = assemble_L(mats, params.alpha, params.mu)
    rhs = assemble_f_u(
        mats,
        geometry.positions[: mats.n_boundary],
        geometry.curvature,
        params.beta,
        params.source,
        time,
    )
    return solve(ell, rhs)


def _bdf_history_term(scheme, tau, mass, past_fields):
    """-(1/tau) sum_{j>=1} delta_j M x^{n-j}, vectorized over columns."""
    return -(mass @ weighted_sum(scheme.delta[1:], past_fields)) / tau


def normal_step(geometry, history, w, scheme, tau, params, assembler):
    """Right-hand side (N_Gamma, m+1) of the implicit update of the
    (non-normalized) outward normal field, with the load -grad_Gamma w of
    the new :func:`trace_forcing` w; :func:`curvature_step` solves it
    together with the curvature equation."""
    mats = geometry.matrices
    forcing = assembler.curvature_forcing_nu(
        geometry.normal, geometry.weingarten, params.beta, mats.surface
    )
    forcing -= assembler.tangential_gradient_load(w, mats.surface)
    q = scheme.order
    return forcing + _bdf_history_term(
        scheme, tau, mats.mass_surf, history.field("normal")[:q]
    )


def curvature_step(geometry, history, w, w_tilde, normal_rhs, scheme, tau, params,
                   assembler, solve):
    """Implicit update of the mean curvature field, solved together with the
    normal update whose right-hand side :func:`normal_step` built.

    Both equations have the surface pencil (delta_0/tau) M + beta A, so one
    solve takes the (N_Gamma, m+2) stacked right-hand side;
    ``solve(matrix, rhs)`` solves the SPD system.  Returns (normal,
    curvature).  The quadratic forcing uses only extrapolated fields: its
    speed is the :func:`velocity_law` of the extrapolated curvature and
    trace forcing ``w_tilde``.  The new trace forcing w enters through the
    surface-Laplacian term.
    """
    mats = geometry.matrices
    speed_tilde, _ = velocity_law(w_tilde, geometry.curvature, geometry.normal, params)
    forcing = assembler.curvature_forcing_H(
        geometry.weingarten, speed_tilde, mats.surface
    )
    rhs = forcing + mats.stiff_surf @ w
    q = scheme.order
    rhs = rhs + _bdf_history_term(
        scheme, tau, mats.mass_surf, history.field("curvature")[:q]
    )
    system = mats.surface_pencil(scheme.delta[0] / tau, params.beta)
    both = solve(system, np.column_stack([normal_rhs, rhs]))
    return both[:, :-1], both[:, -1]


def velocity_law(w, curvature, normal, params):
    """Nodal velocity law: V = -beta H + w on the boundary, with w the
    :func:`trace_forcing`, and v = V n."""
    speed = -params.beta * np.asarray(curvature) + w
    return speed, speed[:, None] * np.asarray(normal)


def _solve_from(solver, basis, field):
    """``solve(matrix, rhs)`` on the cached ``solver``, started from
    sum_j gamma_j field(states[j]) for ``basis`` = (states, gamma).  The
    guess is formed when the solve runs, inside the stage that calls it."""
    states, gamma = basis

    def solve(matrix, rhs):
        return solver.solve(matrix, rhs, x0=weighted_sum(gamma, [field(s) for s in states]))

    return solve


def harmonic_extension(matrices, boundary_velocity, solve):
    """Discrete harmonic extension of the boundary velocity into the bulk;
    ``solve(matrix, rhs)`` solves the interior block."""
    interior, coupling = matrices.stiffness_blocks()
    return dirichlet_extension(coupling, boundary_velocity, partial(solve, interior))


def position_update(scheme, history, velocity, tau, mesh):
    """New positions from the BDF relation dot(x)^n = v^n."""
    q = scheme.order
    acc = weighted_sum(scheme.delta[1:], history.field("positions")[:q])
    new_positions = (tau * velocity - acc) / scheme.delta[0]
    check_orientation(mesh, new_positions)  # GeometryError on tangling
    return new_positions


class Stepper:
    """Time stepping driver bound to one mesh connectivity.

    Holds the assembly engine and the cached factorized preconditioners of
    its three SPD systems -- the Robin matrix, the surface pencil of the
    normal and curvature equations (one per BDF order a step takes), and the
    interior stiffness block of the harmonic extension -- which stay
    effective across many steps of slow mesh motion.  Each step makes three
    solves: the Robin one, one surface solve of the normal and curvature
    together (one (N_Gamma, m+2) PCG solve, which stops when its slowest
    column meets the tolerance), and the harmonic one.  Each solve starts
    from an extrapolation of the field it updates: the pressure, the stacked
    normal and curvature, and the interior velocity.  A run's
    :class:`History` keeps ``depth`` = max(q, ``_GUESS_STATES``) states;
    when the step's order is below 4 and the history's newest 4 states are
    step results, the guesses are their cubic extrapolation, with gamma =
    (4, -6, 4, -1).  Otherwise -- in the first four steps from a history's
    seed states, which do not solve the step equations, and at orders 4 and
    up -- they are the step's own BDF extrapolation of the history.  On the
    ``sim2d`` disk the cubic guesses leave a Robin residual near 5e-12
    against 3e-7, so most Robin solves take one factor apply in place of
    two.

    The Robin matrix and the interior block are factored in the mesh's
    ``bulk_orderings``, the surface pencil in minimum degree; the
    :mod:`sparsela` module notes give the ordering and factor policy and
    its figures.

    Each step assembles the bulk stiffness, the volume load (the row sums
    of the bulk mass, the only part of it the Robin load reads) and the
    surface mass and stiffness on the extrapolated configuration, the bulk
    ones by the cache-sized element blocks of :func:`mesh.bulk_blocks`,
    which also check the new positions for tangling; the three
    systems are then formed from their data on fixed patterns, without
    sparse algebra: L by a scatter-add into a copy of the stiffness data,
    A_II and A_IB by gathers through the assembler's ``StepLayout`` (built
    on the first step), and the pencil as one combination of the surface
    data.  |A_h|^2 of the extrapolated normal is computed once per step for
    both curvature forcings, and w = alpha u_Gamma (:func:`trace_forcing`)
    for the new and for the extrapolated pressure trace.
    """

    def __init__(self, mesh, params, order, tau):
        if tau <= 0:
            raise ValidationError("time step must be positive")
        self.mesh = mesh
        self.params = params
        self.schemes = [bdf_coefficients(k) for k in range(1, order + 1)]
        self.scheme = self.schemes[-1]
        self.tau = tau
        self.assembler = Assembler(mesh)
        bulk_perm, interior_perm = mesh.bulk_orderings
        self.robin_solver = CachedSpdSolver(bulk_perm)
        self.surface_solvers = defaultdict(CachedSpdSolver)  # by BDF order
        self.harmonic_solver = CachedSpdSolver(interior_perm)
        self.step_count = 0
        self.depth = max(order, _GUESS_STATES)  # states a run's History keeps

    @staticmethod
    def _guess_basis(history, scheme):
        """(states, gamma) that the solves of a step of ``scheme`` from
        ``history`` extrapolate their guesses through: the newest
        ``_GUESS_STATES`` when they are step results and the order is below
        theirs, the scheme's own states and extrapolation otherwise."""
        if scheme.order < _GUESS_STATES <= min(history.solved, len(history)):
            return history.states[:_GUESS_STATES], _GUESS_GAMMA
        return history.states[:scheme.order], scheme.gamma

    def step(self, history):
        """Advance one BDF step; returns the new state at t + tau.

        The step's BDF order is min(len(history), q), so a short history
        (the start steps from a single seed state) steps at the order it
        supports; each order solves its surface pencil with a cached solver
        of its own, and all share the Robin and harmonic solvers.
        """
        scheme = self.schemes[min(len(history), len(self.schemes)) - 1]
        self.step_count += 1
        time_next = history[0].time + self.tau
        ng = self.mesh.n_boundary
        basis = self._guess_basis(history, scheme)
        stage = "extrapolated_geometry"
        try:
            geo = extrapolated_geometry(history, scheme, self.assembler)
            w_tilde = trace_forcing(self.params, geo.pressure[:ng])
            stage = "robin_solve"
            pressure = robin_solve(
                geo, self.params, time_next,
                _solve_from(self.robin_solver, basis, lambda s: s.pressure),
            )
            w = trace_forcing(self.params, pressure[:ng])
            stage = "normal_step"
            normal_rhs = normal_step(
                geo, history, w, scheme, self.tau, self.params, self.assembler,
            )
            stage = "curvature_step"
            normal, curvature = curvature_step(
                geo, history, w, w_tilde, normal_rhs, scheme, self.tau, self.params,
                self.assembler,
                _solve_from(self.surface_solvers[scheme.order], basis,
                            lambda s: np.column_stack([s.normal, s.curvature])),
            )
            stage = "velocity_law"
            speed, v_gamma = velocity_law(w, curvature, normal, self.params)
            stage = "harmonic_extension"
            velocity = harmonic_extension(
                geo.matrices, v_gamma,
                _solve_from(self.harmonic_solver, basis, lambda s: s.velocity[ng:]),
            )
            stage = "position_update"
            positions = position_update(
                scheme, history, velocity, self.tau, mesh=self.mesh
            )
        except BulkgrowError as exc:
            raise with_context(exc, f"step {self.step_count} ({stage}, t={time_next:.6g})")
        state = SimState(
            time=time_next,
            positions=positions,
            pressure=pressure,
            normal=normal,
            curvature=curvature,
            normal_speed=speed,
            velocity=velocity,
        )
        return state


def evolve(stepper, history, n_steps, observer=None):
    """Run n_steps of the scheme, pushing each new state into the history,
    which keeps the stepper's ``depth`` states.

    A history shorter than the order q is first completed by start steps,
    ordinary steps of the order its length supports: q - 1 from a single
    seed state, none from q oracle states.  ``observer(step_index, state)``
    is called after every step that follows them.
    """
    start = max(stepper.scheme.order - len(history), 0)
    for k in range(-start, n_steps):
        state = stepper.step(history)
        history.push(state, stepper.depth)
        if observer is not None and k >= 0:
            observer(k, state)
    return history


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def ellipsoid_surface_fields(points, radii):
    """Exact outward normal and mean curvature of an ellipsoid (or ellipse).

    Works in any ambient dimension: for the level set sum((x_i/r_i)^2) = 1
    the normal is the normalized gradient and the mean curvature (sum of
    principal curvatures) is the surface divergence of its unit extension.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    radii = np.asarray(radii, dtype=float)
    grad = pts / radii ** 2
    level = np.linalg.norm(grad, axis=1)
    normal = grad / level[:, None]
    div_grad = (1.0 / radii ** 2).sum()
    curvature = div_grad / level - (pts ** 2 / radii ** 6).sum(axis=1) / level ** 3
    return normal, curvature


def estimate_boundary_geometry(mesh):
    """Discrete normal and curvature estimate for a loaded mesh.

    Uses the weak Laplace identity for the position field: the mass-inverted
    surface stiffness applied to the coordinates approximates H * nu at the
    nodes.  The orientation is fixed by pointing away from the boundary
    centroid, so the estimate targets star-shaped domains.
    """
    assembler = Assembler(mesh)
    mass, stiff = assembler.surface_matrices(assembler.surface_geometry())
    coords = mesh.boundary_positions
    hnu = solve_spd(mass, stiff @ coords)
    magnitude = np.linalg.norm(hnu, axis=1)
    if (magnitude <= 0).any():
        raise ValidationError("degenerate curvature estimate (flat patch?)")
    normal = hnu / magnitude[:, None]
    centroid = coords.mean(axis=0)
    outward = np.einsum("id,id->i", normal, coords - centroid)
    sign = np.where(outward >= 0, 1.0, -1.0)
    return normal * sign[:, None], magnitude * sign


def initial_state(stepper, normal, curvature):
    """Initial state at t = 0 on the stepper's mesh: geometry interpolated,
    pressure from the Robin solve.

    The Robin and harmonic solves go through the stepper's cached solvers
    from zero guesses, so its first step starts from factorizations of the
    initial configuration.  A failed solve's message is prefixed with
    ``seed (<stage>, t=0)``.
    """
    mesh, params = stepper.mesh, stepper.params
    ng = mesh.n_boundary
    geometry = ExtrapolatedGeometry(
        positions=mesh.node_positions,
        normal=normal,
        curvature=curvature,
        pressure=None,
        matrices=stepper.assembler.system(),
    )
    stage = "robin_solve"
    try:
        pressure = robin_solve(
            geometry, params, 0.0,
            partial(stepper.robin_solver.solve, x0=np.zeros(mesh.n_nodes)),
        )
        speed, v_gamma = velocity_law(
            trace_forcing(params, pressure[:ng]), curvature, normal, params
        )
        stage = "harmonic_extension"
        velocity = harmonic_extension(
            geometry.matrices, v_gamma,
            partial(stepper.harmonic_solver.solve,
                    x0=np.zeros((mesh.n_nodes - ng,) + v_gamma.shape[1:])),
        )
    except BulkgrowError as exc:
        raise with_context(exc, f"seed ({stage}, t=0)")
    return SimState(
        time=0.0,
        positions=mesh.node_positions.copy(),
        pressure=pressure,
        normal=np.asarray(normal, dtype=float),
        curvature=np.asarray(curvature, dtype=float),
        normal_speed=speed,
        velocity=velocity,
    )

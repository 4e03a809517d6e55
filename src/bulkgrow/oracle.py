"""Closed-form radially symmetric solution of the coupled growth model.

For spheres in R^(m+1) with constant source Q the coupled system reduces to
an ODE for the radius,

    R(t) = (R0 - (m+1) Q) exp(-t/(m+1)) + (m+1) Q,

with the pressure profile

    u(r, t) = r^2 / (2(m+1)) + (Q + beta m / R - R/(m+1)) / alpha
              - R^2 / (2(m+1)),

normal x/R, mean curvature m/R and normal speed Q - R/(m+1).  The pressure
trace is constant on the sphere, so Delta_Gamma u = 0 and the solution is the
same for every surface diffusion mu >= 0 of the Robin condition.  Its nodal
interpolant (:meth:`RadialOracle.exact_state`) seeds simulations and is the
reference in convergence measurements.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError
from .stepper import History, SimState


@dataclass(frozen=True)
class RadialOracle:
    """Exact sphere solution, for any surface diffusion mu >= 0: its trace
    is constant, so Delta_Gamma u = 0."""

    dim_m: int
    initial_radius: float
    source: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.dim_m not in (1, 2):
            raise ValidationError("dim_m must be 1 or 2")
        if self.initial_radius <= 0:
            raise ValidationError("initial radius must be positive")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("alpha and beta must be positive")

    def radius(self, t):
        """Sphere radius R(t)."""
        if np.any(np.asarray(t) < 0):
            raise ValidationError("time must be nonnegative")
        mp1 = self.dim_m + 1
        return (self.initial_radius - mp1 * self.source) * np.exp(-np.asarray(t) / mp1) \
            + mp1 * self.source

    def pressure_extended(self, r, t):
        """Tissue pressure u(r, t) as a smooth function of the radius, also
        outside [0, R(t)]: nodal interpolation on discrete meshes needs it
        there, since their boundary nodes may fall slightly outside the exact
        sphere."""
        mp1 = self.dim_m + 1
        radius = self.radius(t)
        const = (
            self.source + self.beta * self.dim_m / radius - radius / mp1
        ) / self.alpha - radius ** 2 / (2.0 * mp1)
        return np.asarray(r) ** 2 / (2.0 * mp1) + const

    def normal_speed(self, t):
        """V(t) = Q - R(t)/(m+1), uniform over the sphere."""
        return self.source - self.radius(t) / (self.dim_m + 1)

    def exact_state(self, mesh, t):
        """Nodal interpolant of the exact solution at time t on the t=0 mesh
        carried along the exact radial flow, which scales it by R(t)/R(0).

        Normal x/R, curvature m/R and speed V(t) at the boundary nodes; the
        pressure at the node radii.  The velocity is the exact radial field
        (V(t)/R(t)) x at every node, and that field is the discrete harmonic
        extension of its own boundary trace, which is what the scheme itself
        produces:

        * each coordinate x_d lies in the isoparametric P1/P2 space, so row i
          of the stiffness matrix applied to it is the quadrature of the
          integral of the x_d-derivative of basis function i;
        * pulled back to the reference element, that integrand is the
          reference gradient of the basis function times the adjugate of the
          element Jacobian, a polynomial of degree (k - 1) D <= 2k for
          D <= 3, which the degree-2k rule integrates exactly;
        * by the divergence theorem the exact integral vanishes for every
          interior node, whose basis function is zero on the boundary.

        So the interior rows vanish up to roundoff, with no assembly and no
        solve.
        """
        radius, speed = self.radius(t), self.normal_speed(t)
        positions = mesh.node_positions * (radius / self.radius(0.0))
        ng = mesh.n_boundary
        return SimState(
            time=float(t),
            positions=positions,
            pressure=self.pressure_extended(np.linalg.norm(positions, axis=1), t),
            normal=positions[:ng] / radius,
            curvature=np.full(ng, self.dim_m / radius),
            normal_speed=np.full(ng, speed),
            velocity=speed * (positions / radius),
        )

    def seed_state(self, mesh, t):
        """:meth:`exact_state` of a mesh whose boundary discretizes the
        sphere of radius R(0) (ValidationError otherwise), at a time where
        R(t) is positive (GeometryError otherwise)."""
        radius0 = self.radius(0.0)
        bnd_r = np.linalg.norm(mesh.boundary_positions, axis=1)
        if np.max(np.abs(bnd_r - radius0)) > 1e-8 * radius0:
            raise ValidationError(f"mesh boundary radius does not match R(0) = {radius0}")
        radius = self.radius(t)
        if radius <= 0:
            raise GeometryError(f"the exact flow collapses the mesh: R({t}) = {radius:g}")
        return self.exact_state(mesh, t)

    def seed_history(self, mesh0, tau, order):
        """Startup history of a q-step run: the seed states at t = (q-1) tau,
        ..., tau, 0, each on the t=0 mesh ``mesh0`` carried along the exact
        flow (:meth:`seed_state`)."""
        states = [self.seed_state(mesh0, i * tau) for i in reversed(range(order))]
        return History(states, tau=tau)


def sphere_oracle_mesh(oracle, target_h, degree=2):
    """Generate the initial sphere/disk mesh matching the oracle radius."""
    # Imported per call: bench/ times mesh generation by replacing these names
    # in bulkgrow.mesh.
    from .mesh import generate_ball_mesh, generate_disk_mesh

    r0 = oracle.initial_radius
    if oracle.dim_m == 1:
        return generate_disk_mesh(r0, target_h, degree=degree)
    return generate_ball_mesh((r0, r0, r0), target_h, degree=degree)

"""Evolving bulk-surface finite elements for a free-boundary tissue growth model.

A Poisson problem for the tissue pressure on a moving bulk domain is coupled
to forced mean curvature flow of the free boundary through a generalized
Robin boundary condition and the velocity law; the mesh follows a discrete
harmonic extension of the boundary velocity, stepped by linearly implicit
backward differentiation formulas.
"""

__version__ = "0.1.0"

from .bdf import BdfScheme, bdf_coefficients, extrapolate
from .errors import (
    BulkgrowError,
    CapabilityError,
    ConfigError,
    GeometryError,
    MeshFormatError,
    ResourceError,
    SolverError,
    SourceError,
    ValidationError,
)
from .mesh import (
    BulkSurfaceMesh,
    elevate_to_quadratic,
    generate_ball_mesh,
    generate_disk_mesh,
    load_mesh,
    save_mesh,
)
from .assembly import (
    Assembler,
    SystemMatrices,
    assemble_f_u,
    assemble_L,
)
from .oracle import RadialOracle, sphere_oracle_mesh
from .sparsela import SpdFactor, dirichlet_extension, solve_spd
from .stepper import (
    History,
    ModelParams,
    SimState,
    Stepper,
    constant_source,
    ellipsoid_surface_fields,
    evolve,
    initial_state,
)

"""Evolving bulk-surface finite elements for a free-boundary tissue growth model.

A Poisson problem for the tissue pressure on a moving bulk domain is coupled
to forced mean curvature flow of the free boundary through a generalized
Robin boundary condition and the velocity law; the mesh follows a discrete
harmonic extension of the boundary velocity, stepped by linearly implicit
backward differentiation formulas.
"""

__version__ = "0.1.0"

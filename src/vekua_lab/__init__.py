"""Numerical laboratory for Clifford-analytic integral identities.

Dense Cl(0,3) arithmetic, multivector fields on box grids, closed-form
fundamental solutions (Cauchy / Newton / Yukawa families), singular volume
and boundary quadrature, conductivity and Schrodinger Dirichlet solvers
with weak Dirichlet-to-Neumann pairings, and a verification harness that
checks every supported integral identity with convergence evidence.
"""

__version__ = "0.1.0"

from .fields import BoxGrid, MultivectorField, dirac_D, laplacian, sc_inner, boundary_sampling

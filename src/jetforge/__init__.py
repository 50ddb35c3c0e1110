"""Symbolic calculus on jet bundles with exact arithmetic.

The package computes prolongations of nonlinear differential operators,
their symbols and Spencer cohomology, runs a formal-integrability
criterion for scalar equations, builds truncated formal power-series
solutions, and manipulates projective-limit towers of jet spaces.  All
core arithmetic is rational and exact; sampled checks say so in their
reports.
"""

from . import mindex, symexpr, jetcalc, spencer, symbols, integrability, formal, pfd, cli

__version__ = "0.1.0"

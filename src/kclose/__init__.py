"""Discrete-model toolkit for two-space interpolation decompositions.

The package works with two finite models:

* boundary functions on an N-point uniform circle grid (N a power of two),
  with the analytic subspace cut out by vanishing negative Fourier
  coefficients, and

* n x n complex matrices with Schatten norms, with the upper-triangular
  subspace.

On top of these it provides K-functionals (closed forms and certified convex
programs), canonical factorisations (Blaschke/outer, Cholesky-based
triangular), constructive subspace decompositions driven by the squaring
identity, weak-type embedding checks, and an experiment harness with a CLI.
"""

import importlib

# numpy imports numpy.fft on first use; a first use from a signal handler that interrupts
# another import breaks CPython 3.11's module locks (KeyError), so it is loaded here
importlib.import_module("numpy.fft")

__version__ = "0.1.0"

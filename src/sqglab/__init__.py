"""Pseudo-spectral toolkit for dissipative surface quasi-geostrophic flows.

The package provides, in rough dependency order:

* ``spectral``: periodic grids, coefficient-space fields, multiplier calculus,
* ``littlewood``: dyadic partition of unity, block operators, Besov and
  Chemin-Lerner norms,
* ``mild``: Duhamel time stepping, Picard iteration, and the
  divergence-form identity of the symmetrised nonlinearity,
* ``lab``: empirical verification harnesses for the inequality toolbox,
* ``counterexamples``: frequency-side bump constructions whose pairings
  separate the divergent product from its cancelling symmetrisation,
* ``uniqueness``: contraction diagnostics, twin runs, and the linear
  continuity criterion,
* ``cli``: command line entry point.

Import names from their submodule, e.g. ``from sqglab.spectral import Grid2``.
"""

__version__ = "0.1.0"

"""Shared helpers for the test suite: seeded random fields and error metrics."""

import numpy as np

# the smooth datum of `sqglab solve` and `sqglab uniqueness`, shared so the
# suite marches the same data as the command line
from sqglab.cli import _smooth_data as smooth_profile  # noqa: F401
from sqglab.spectral import Grid2, SpectralField, dealias


def rel_err(a, b):
    denom = max(abs(float(b)), 1e-300)
    return abs(float(a) - float(b)) / denom


def random_field(grid: Grid2, rng, band_limited=True, envelope=None) -> SpectralField:
    """Mean-zero real random field with an optional radial spectral envelope.

    White noise is sampled in physical space so conjugate symmetry holds by
    construction; the envelope multiplies the coefficients afterwards.
    """
    data = rng.standard_normal((grid.n, grid.n))
    f = SpectralField.from_physical(grid, data)
    coef = f.coef.copy()
    if envelope is not None:
        coef = coef * envelope(grid.kabs_on())
    coef[0, 0] = 0.0
    f = SpectralField(grid, coef)
    if band_limited:
        f = dealias(f)
    return f


def ball_limited_field(grid: Grid2, rng, radius: float) -> SpectralField:
    """Random field with spectrum confined to the ball |k| <= radius."""
    f = random_field(grid, rng, band_limited=False)
    coef = f.coef * (grid.kabs_on() <= radius)
    return SpectralField(grid, coef)


def whole_symbol(bank, j: int) -> np.ndarray:
    """The symbol of bank level j (0 for psi) on every lattice point."""
    return bank.add_symbol(j, np.zeros((bank.grid.n, bank.grid.n)))


def partition_residual(bank) -> float:
    """max |psi + sum_j phi_j - 1| over the admissible ball |k| <= (3/4) 2^J,
    summed from the bank's own symbols."""
    total = sum(whole_symbol(bank, j) for j in range(bank.j_max + 1))
    admissible = bank.grid.kabs_on() <= 0.75 * 2.0**bank.j_max
    return float(np.abs(total[admissible] - 1.0).max())


def pure_mode(grid: Grid2, m1: int, m2: int, amplitude=1.0) -> SpectralField:
    """Exact cosine mode amplitude * cos(k . x) built in coefficient space."""
    coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
    half = amplitude * grid.n**2 / 2.0
    coef[m1 % grid.n, m2 % grid.n] += half
    coef[-m1 % grid.n, -m2 % grid.n] += half
    return SpectralField(grid, coef)

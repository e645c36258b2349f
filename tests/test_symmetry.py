"""Symmetry oracles for the march.

The dissipative SQG equation commutes with translations and with quarter
turns of the periodic box, and it conserves the mean: the velocity is
divergence-free and the mean mode of the nonlinearity is a divergence.
It is also invariant under the critical scaling
theta(x, t) -> lam^(alpha - 1) theta(lam x, lam^alpha t) (Constantin &
Wu, SIAM J. Math. Anal. 30, 1999), which maps the box 2 pi onto 2 pi / lam.
These hold for the equation, not for one way of computing it, so the
tolerance is a rounding bound (rel 1e-12) that any arithmetic of the
march must meet.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab.mild import SolveParams, solve
from sqglab.spectral import SpectralField, dealias, shared_grid

REL = 1e-12

marches = st.fixed_dictionaries(
    {
        "n": st.sampled_from([32, 64]),
        "alpha": st.sampled_from([0.75, 1.0, 1.5, 2.0]),
        "steps": st.integers(1, 6),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def datum(grid, seed, mean=0.0):
    """Band-limited smooth random field of unit size plus a constant."""
    rng = np.random.default_rng(seed)
    f = SpectralField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
    coef = f.coef * np.exp(-((grid.kabs / 6.0) ** 2))
    coef *= grid.n**2 / np.abs(coef).sum()
    coef[0, 0] = mean * grid.n**2
    return dealias(SpectralField(grid, coef))


def params(case, dt=0.005):
    return SolveParams(alpha=case["alpha"], n=case["n"], t_final=case["steps"] * dt, dt=dt)


def march(theta0, case):
    return solve(theta0, params(case)).final().physical()


def moved(grid, theta, move):
    """The band-limited field whose grid values are move(theta's values)."""
    return dealias(SpectralField.from_physical(grid, move(theta.physical())))


def assert_close(got, want):
    assert np.abs(got - want).max() <= REL * np.abs(want).max()


@settings(max_examples=12, deadline=None)
@given(case=marches, shift=st.tuples(st.integers(0, 63), st.integers(0, 63)))
def test_translation_by_grid_cells_commutes_with_solve(case, shift):
    grid = shared_grid(case["n"])
    theta0 = datum(grid, case["seed"])

    def move(values):
        return np.roll(values, shift, axis=(0, 1))

    assert_close(march(moved(grid, theta0, move), case), move(march(theta0, case)))


@settings(max_examples=12, deadline=None)
@given(case=marches, turns=st.integers(1, 3))
def test_quarter_turn_commutes_with_solve(case, turns):
    grid = shared_grid(case["n"])
    theta0 = datum(grid, case["seed"])

    def move(values):
        return np.rot90(values, turns)

    assert_close(march(moved(grid, theta0, move), case), move(march(theta0, case)))


@settings(max_examples=12, deadline=None)
@given(case=marches, mean=st.floats(-2.0, 2.0))
def test_mean_is_conserved(case, mean):
    grid = shared_grid(case["n"])
    theta0 = datum(grid, case["seed"], mean)
    means = np.array([f.mean() for f in solve(theta0, params(case)).series.fields])
    assert np.abs(means - mean).max() <= REL * max(1.0, abs(mean))


@settings(max_examples=12, deadline=None)
@given(
    lam=st.sampled_from([2, 4]),
    alpha=st.floats(0.5, 2.0),
    n=st.sampled_from([32, 64]),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_critical_scaling_commutes_with_solve(lam, alpha, n, steps, seed):
    # on the box 2 pi / lam the same n grid points sample theta(lam x), so
    # the scaled datum has the same coefficients times lam^(alpha - 1) and
    # the scaled run's grid values are those of the unscaled run, scaled
    theta0 = datum(shared_grid(n), seed)
    amplitude = lam ** (alpha - 1.0)
    case = {"n": n, "alpha": alpha, "steps": steps}
    box = 2.0 * math.pi / lam
    dt = 0.005 / lam**alpha
    scaled0 = SpectralField(shared_grid(n, box), amplitude * theta0.coef)
    scaled = SolveParams(alpha=alpha, n=n, t_final=steps * dt, dt=dt, box_length=box)
    assert_close(solve(scaled0, scaled).final().physical(), amplitude * march(theta0, case))

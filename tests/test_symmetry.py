"""Symmetry oracles for the march.

The dissipative SQG equation commutes with translations and with quarter
turns of the periodic box, and it conserves the mean: the velocity is
divergence-free and the mean mode of the nonlinearity is a divergence.
It is also invariant under the critical scaling
theta(x, t) -> lam^(alpha - 1) theta(lam x, lam^alpha t) (Constantin &
Wu, SIAM J. Math. Anal. 30, 1999), which maps the box 2 pi onto 2 pi / lam.
The norms and multipliers the march is measured with share the symmetry
of the box: block norms are unchanged by any lattice symmetry of the
grid values (their symbols are radial), and the velocity and gradient
of a quarter-turned field are the quarter-turned vectors.  The bilinear
forms the estimates are verified on (the diagonal sum, the low-high
paraproduct and the filter-advection commutators) are built from those
norms' radial symbols, the velocity, the gradient and pointwise products,
so they move with grid shifts and quarter turns of their factors; the
vector-valued Riesz low-pass commutator also turns as a vector, and the
velocity gradient as a tensor.
These hold for the equation, not for one way of computing it, so the
tolerance is a rounding bound (rel 1e-12) that any arithmetic of the
march or of the spectral layer must meet.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab.lab import (
    bilinear_diagonal_sum,
    low_high_paraproduct,
    lowpass_commutator_family,
    riesz_lowpass_commutator,
    velocity_gradient_components,
)
from sqglab.littlewood import BesovIndex, besov_norm, block_norms, build_bank
from sqglab.mild import SolveParams, solve
from sqglab.spectral import (
    SpectralField,
    dealias,
    grid_gradient,
    grid_velocity,
    riesz_perp_velocity,
    shared_grid,
)

REL = 1e-12

marches = st.fixed_dictionaries(
    {
        "n": st.sampled_from([32, 64]),
        "alpha": st.sampled_from([0.75, 1.0, 1.5, 2.0]),
        "steps": st.integers(1, 6),
        "seed": st.integers(0, 2**32 - 1),
    }
)


grids = st.tuples(st.sampled_from([32, 64]), st.sampled_from([2.0 * math.pi, 0.5 * math.pi]))

# lattice symmetries of the grid values: quarter turn, shift, transpose, reflection
MOVES = {
    "rot90": np.rot90,
    "roll": lambda values: np.roll(values, (5, 11), axis=(0, 1)),
    "transpose": np.transpose,
    "flip": lambda values: np.flip(values, axis=0),
}


def noise(grid, seed):
    """Field with independent standard normal grid values: every block is filled."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.n, grid.n))


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
    return solve(theta0, params(case))[1][-1].physical()


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
    means = np.array([f.mean() for f in solve(theta0, params(case))[1]])
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
    assert_close(solve(scaled0, scaled)[1][-1].physical(), amplitude * march(theta0, case))


@settings(max_examples=12, deadline=None)
@given(shape=grids, seed=st.integers(0, 2**32 - 1), move=st.sampled_from(sorted(MOVES)))
def test_block_norms_are_unchanged_by_lattice_symmetries(shape, seed, move):
    grid = shared_grid(*shape)
    bank = build_bank(grid)
    values = noise(grid, seed)
    f = SpectralField.from_physical(grid, values)
    h = SpectralField.from_physical(grid, MOVES[move](values))
    for p in (1.0, 2.0, 4.0, math.inf):
        want = block_norms(f, bank, p)
        assert np.all(np.abs(block_norms(h, bank, p) - want) <= REL * want)
    for idx in (BesovIndex(-0.5, 4.0, 2.0), BesovIndex(0.25, math.inf, 1.0)):
        want = besov_norm(f, bank, idx)
        assert abs(besov_norm(h, bank, idx) - want) <= REL * want


@settings(max_examples=12, deadline=None)
@given(shape=grids, seed=st.integers(0, 2**32 - 1))
def test_velocity_and_gradient_turn_with_the_field(shape, seed):
    # h(x) = theta(R x) for the quarter turn R, so each vector field v of
    # theta turns to R^T v(R x) = (-v2, v1) at the turned points
    grid = shared_grid(*shape)
    values = noise(grid, seed)
    theta = SpectralField.from_physical(grid, values)
    h = SpectralField.from_physical(grid, np.rot90(values))
    for of in (grid_velocity, grid_gradient):
        v1, v2 = of(theta)
        w1, w2 = of(h)
        assert_close(w1, -np.rot90(v2))
        assert_close(w2, np.rot90(v1))


# the moves a bilinear form of two fields must commute with
PLANE_MOVES = ("rot90", "roll")


def moved_pair(grid, seed, move):
    """Two white-noise fields and the fields of their moved grid values."""
    values = [noise(grid, seed), noise(grid, seed + 1)]
    return (
        [SpectralField.from_physical(grid, v) for v in values],
        [SpectralField.from_physical(grid, MOVES[move](v)) for v in values],
    )


@settings(max_examples=12, deadline=None)
@given(shape=grids, seed=st.integers(0, 2**32 - 2), move=st.sampled_from(PLANE_MOVES))
def test_bilinear_forms_move_with_their_factors(shape, seed, move):
    grid = shared_grid(*shape)
    bank = build_bank(grid)
    (f, g), (fh, gh) = moved_pair(grid, seed, move)
    for form in (bilinear_diagonal_sum, low_high_paraproduct):
        want = MOVES[move](form(f, g, bank).physical())
        assert_close(form(fh, gh, bank).physical(), want)


@settings(max_examples=12, deadline=None)
@given(shape=grids, seed=st.integers(0, 2**32 - 2), move=st.sampled_from(PLANE_MOVES))
def test_commutator_family_moves_with_its_factors(shape, seed, move):
    # the velocity is taken of the moved stream, so it is the moved
    # vector field; u . grad theta is then a scalar that moves with both
    grid = shared_grid(*shape)
    bank = build_bank(grid)
    (stream, theta), (stream_h, theta_h) = moved_pair(grid, seed, move)
    family = [m.physical() for m in lowpass_commutator_family(*riesz_perp_velocity(stream), theta, bank)]
    moved_family = lowpass_commutator_family(*riesz_perp_velocity(stream_h), theta_h, bank)
    scale = max(np.abs(m).max() for m in family)
    for got, want in zip(moved_family, family):
        assert np.abs(got.physical() - MOVES[move](want)).max() <= REL * scale


def dealiased_pair(grid, seed, move):
    """Two dealiased white-noise fields and the fields of their moved grid
    values.  Full white noise fills the Nyquist row, which a quarter turn
    maps onto a column with no partner of the same symbol."""
    fields = [dealias(SpectralField.from_physical(grid, noise(grid, seed + i))) for i in (0, 1)]
    return fields, [moved(grid, f, MOVES[move]) for f in fields]


@settings(max_examples=12, deadline=None)
@given(shape=grids, seed=st.integers(0, 2**32 - 2), move=st.sampled_from(PLANE_MOVES))
def test_riesz_commutator_moves_as_a_vector(shape, seed, move):
    # a shift moves each component; a quarter turn of both factors also
    # turns the vector, (c1, c2) -> (-c2, c1) at the turned points
    grid = shared_grid(*shape)
    bank = build_bank(grid)
    (f, g), (fh, gh) = dealiased_pair(grid, seed, move)
    c1, c2 = (c.physical() for c in riesz_lowpass_commutator(f, g, bank))
    m = MOVES[move]
    want = (-m(c2), m(c1)) if move == "rot90" else (m(c1), m(c2))
    for got, component in zip(riesz_lowpass_commutator(fh, gh, bank), want):
        assert_close(got.physical(), component)


@settings(max_examples=12, deadline=None)
@given(shape=grids, seed=st.integers(0, 2**32 - 2), move=st.sampled_from(PLANE_MOVES))
def test_velocity_gradient_moves_as_a_tensor(shape, seed, move):
    # the components are (d0 u1, d1 u1, d0 u2, d1 u2); for the turned
    # field h(x) = theta(R x), grad w = R^T (grad u)(R x) R, which is
    # (d1 u2, -d0 u2, -d1 u1, d0 u1) at the turned points
    grid = shared_grid(*shape)
    (f, _), (fh, _) = dealiased_pair(grid, seed, move)
    d0u1, d1u1, d0u2, d1u2 = (c.physical() for c in velocity_gradient_components(f))
    m = MOVES[move]
    if move == "rot90":
        want = (m(d1u2), -m(d0u2), -m(d1u1), m(d0u1))
    else:
        want = (m(d0u1), m(d1u1), m(d0u2), m(d1u2))
    for got, component in zip(velocity_gradient_components(fh), want):
        assert_close(got.physical(), component)

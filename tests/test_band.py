"""The band of a field: where it comes from, how it carries, and that
reading only the band square moves no bit.

A band b promises that every coefficient with max(|m1|, |m2|) > b is a
zero.  Inverse transforms then run pass 1 on the band rows alone and
Parseval sums form the energy on the band square alone; every result
must equal the unbanded one under ``.view(np.int64)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqglab.mild
from conftest import smooth_profile
from sqglab.cli import main
from sqglab.lab import random_besov_field
from sqglab.littlewood import (
    block,
    block_norms,
    build_bank,
    packet_profile,
)
from sqglab.mild import SolveParams, march, solve
from sqglab.spectral import (
    ParameterError,
    SpectralField,
    _embed,
    _square,
    dealias,
    dealiased_field,
    fractional_laplacian,
    gradient,
    inverse_lambda,
    lp_norm,
    mode_energy,
    riesz_perp_velocity,
    semigroup_apply,
    shared_grid,
)
from sqglab.uniqueness import contraction_ladder

QUARTER_BOX = 0.5 * math.pi


def bits(a) -> np.ndarray:
    return np.asarray(a).view(np.int64)


def square_field(grid, band, seed) -> np.ndarray:
    """Random complex coefficients inside the square |m1|, |m2| <= band,
    and zeros of both signs outside it."""
    rng = np.random.default_rng(seed)
    n = grid.n
    coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m1, m2 = np.abs(grid.index1), np.abs(grid.index2)
    outside = np.maximum(m1, m2) > band
    signs = rng.random((n, n)) < 0.5
    coef[outside & signs] = complex(-0.0, -0.0)
    coef[outside & ~signs] = complex(0.0, -0.0)
    return coef


@st.composite
def banded_cases(draw):
    n = draw(st.sampled_from((16, 32, 64, 128, 256)))
    band = draw(st.integers(min_value=0, max_value=n // 2 - 1))
    return n, band, draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestBandedReadsMoveNoBit:
    @settings(max_examples=25, deadline=None)
    @given(banded_cases())
    def test_energy_norms_and_block_norms(self, case):
        n, band, seed = case
        grid = shared_grid(n, QUARTER_BOX)
        coef = square_field(grid, band, seed)
        banded, bare = SpectralField(grid, coef, band), SpectralField(grid, coef)
        assert banded.band == band and bare.band is None
        assert np.array_equal(bits(mode_energy(banded)), bits(mode_energy(bare)))
        bank = build_bank(grid)
        for p in (2, 4, math.inf):
            assert bits(lp_norm(banded, p)) == bits(lp_norm(bare, p)), p
            got, want = block_norms(banded, bank, p), block_norms(bare, bank, p)
            assert np.array_equal(bits(got), bits(want)), p

    def test_parseval_block_norms_read_the_whole_energy_array(self):
        # the energy formed on the top level's square reads as the whole
        # mode_energy does: every level symbol is +0.0 past that square
        grid = shared_grid(64, QUARTER_BOX)
        bank = build_bank(grid)
        f = SpectralField(grid, square_field(grid, 31, 5))
        e = mode_energy(f)
        want = []
        for j in range(bank.j_max + 1):
            sym = bank.add_symbol(j, np.zeros(e.shape))
            total = np.einsum("ij,ij,ij->", sym, sym, e)
            want.append(math.sqrt(grid.cell_area / grid.n**2 * total))
        assert np.array_equal(bits(block_norms(f, bank, 2)), bits(want))

    @pytest.mark.parametrize("n", (32, 64, 128))
    def test_random_datum_marches_the_bits_of_the_unbanded_array(self, n):
        # the banded march steps on its square, the unbanded one on the
        # whole array: the same bits on the square, and zeros outside it,
        # of either sign in the unbanded march and +0.0 in the banded one
        grid = shared_grid(n)
        theta0 = random_besov_field(build_bank(grid), np.random.default_rng(n)) * 0.05
        assert theta0.band is not None
        params = SolveParams(alpha=1.5, n=n, t_final=8 * 0.0025, dt=0.0025)
        band = n // 3
        outside = np.maximum(np.abs(grid.index1), np.abs(grid.index2)) > band
        banded = march(theta0, params)
        bare = march(SpectralField(grid, theta0.coef), params)
        steps = 0
        for (_, a, ga, _), (_, b, gb, _) in zip(banded, bare):
            assert (a.band, b.band) == (band, None)
            assert np.array_equal(bits(_square(a.coef, band)), bits(_square(b.coef, band)))
            assert not bits(a.coef[outside]).any()
            assert not b.coef[outside].any()
            assert (ga is None) == (gb is None)
            if ga is not None:
                assert ga.shape == (2 * band + 1,) * 2 and gb.shape == (n, n)
                assert np.array_equal(bits(ga), bits(_square(gb, band)))
                assert not gb[outside].any()
            steps += 1
        assert steps == 9

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from((16, 32, 64, 128, 256, 512)),
        band_frac=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_embed_inverts_square(self, n, band_frac, seed):
        # the layout of band b and back: the square's bits, and +0.0
        # outside it whatever the sign of the zeros there
        band = int(band_frac * (n // 2))
        grid = shared_grid(n)
        coef = square_field(grid, band, seed)
        layout = _square(coef, band)
        assert layout.shape == (2 * band + 1,) * 2
        back = _embed(layout, n, band)
        inside = np.maximum(np.abs(grid.index1), np.abs(grid.index2)) <= band
        assert np.array_equal(bits(back[inside]), bits(coef[inside]))
        assert not bits(back[~inside]).any()
        assert np.array_equal(bits(_square(back, band)), bits(layout))
        # no band: the whole array is its own layout
        assert _square(coef, None) is coef and _embed(coef, n, None) is coef


class TestBandCarries:
    @pytest.fixture
    def fields(self):
        grid = shared_grid(32)
        return (
            SpectralField(grid, square_field(grid, 5, 1), 5),
            SpectralField(grid, square_field(grid, 9, 2), 9),
            SpectralField(grid, square_field(grid, 9, 3)),
        )

    def test_sums_take_the_wider_band_or_none(self, fields):
        f, g, bare = fields
        assert (f + g).band == 9 and (g - f).band == 9
        assert (f + bare).band is None and (bare - f).band is None

    def test_scalars_and_negation(self, fields):
        f = fields[0]
        assert (f * 2.5).band == 5 and (-3.0 * f).band == 5 and (-f).band == 5
        # an infinite scalar turns the zeros outside the square into nan
        with np.errstate(invalid="ignore"):
            assert (f * math.inf).band is None

    def test_multipliers_keep_the_band(self, fields):
        f = fields[0]
        kept = [
            fractional_laplacian(f, 1.5),
            inverse_lambda(f),
            gradient(f, 0),
            gradient(f, 1),
            semigroup_apply(f, 1.0, 0.1),
            *riesz_perp_velocity(f),
        ]
        assert [h.band for h in kept] == [5] * len(kept)
        assert inverse_lambda(fields[2]).band is None

    def test_dealias_narrows_to_the_retained_square(self, fields):
        f, _, bare = fields
        assert dealias(bare).band == 32 // 3
        assert dealias(f).band == 5

    def test_raw_arrays_and_grid_values_have_none(self):
        grid = shared_grid(32)
        assert SpectralField(grid, np.zeros((32, 32), dtype=complex)).band is None
        assert SpectralField.from_physical(grid, np.ones((32, 32))).band is None
        assert smooth_profile(grid).band is None
        # a square of n//2 or more holds every index
        assert SpectralField(grid, np.zeros((32, 32), dtype=complex), 16).band is None
        with pytest.raises(ParameterError):
            SpectralField(grid, np.zeros((32, 32), dtype=complex), -1)

    def test_where_bands_come_from(self):
        grid = shared_grid(64)
        bank = build_bank(grid)
        f = random_besov_field(bank, np.random.default_rng(0))
        assert f.band == bank.bands[bank.j_max]
        assert block(f, bank, 0).band == bank.bands[0]
        assert block(f, bank, 3).band == bank.bands[3]
        assert dealiased_field(grid, np.ones((64, 64))).band == 64 // 3
        packets = packet_profile(bank, 2.0, lambda j: 1.0 if j <= 3 else 0.0)
        assert packets.band == bank.bands[3]

    def test_march_band_is_the_datum_band_widened_to_the_retained_square(self):
        grid = shared_grid(32)
        params = SolveParams(alpha=1.5, n=32, t_final=0.005, dt=0.0025)
        bank = build_bank(grid)
        theta0 = block(random_besov_field(bank, np.random.default_rng(1)), bank, 2) * 0.05
        assert theta0.band == bank.bands[2] < 32 // 3
        states = [theta for _, theta, _, _ in march(theta0, params)]
        assert [theta.band for theta in states] == [32 // 3] * 3
        assert all(f.band == 32 // 3 for f in solve(theta0, params)[1])
        assert all(f.band is None for f in solve(smooth_profile(grid), params)[1])


class TestLadderReadsTheMarchBand:
    @pytest.mark.parametrize("alpha", (2.0, 1.25))
    def test_every_advection_reads_it_and_no_bit_moves(self, alpha, monkeypatch):
        # the solution's two stages per step, the linear series' integrand
        # at each state and G at the solution's last: 3 N + 2 advections,
        # each of a field with the march band, the integrands of the
        # linear series included
        grid = shared_grid(64)
        bank = build_bank(grid)
        theta0 = random_besov_field(bank, np.random.default_rng(64)) * 0.05
        params = SolveParams(alpha=alpha, n=64, t_final=8 * 0.0025, dt=0.0025)
        horizons = (0.005, 0.01, 0.02)
        bands = []
        advection = sqglab.mild._advection

        def recording(grid, c, band, *args):
            bands.append((band, c.shape))
            return advection(grid, c, band, *args)

        monkeypatch.setattr(sqglab.mild, "_advection", recording)
        banded = contraction_ladder(theta0, params, bank, horizons, state_at=0.01)
        band = 64 // 3
        assert bands == [(band, (2 * band + 1,) * 2)] * (3 * 8 + 2)
        bare = contraction_ladder(
            SpectralField(grid, theta0.coef), params, bank, horizons, state_at=0.01
        )
        assert bands[26:] == [(None, (64, 64))] * 26
        for a, b in zip(banded, bare):
            got = (a.factor, a.numerator, a.denominator)
            assert np.array_equal(bits(got), bits((b.factor, b.numerator, b.denominator)))
        # the state on the square has the bits of the unbanded one
        a, b = banded[1].state, bare[1].state
        assert np.array_equal(bits(_square(a.coef, band)), bits(_square(b.coef, band)))
        assert np.array_equal(a.coef, b.coef)


class InverseCounter:
    """Wraps np.fft.ifft: each inverse transform is a run of pass-1 calls
    (axis 1) closed by one pass-2 call (axis 0)."""

    def __init__(self, monkeypatch):
        self.rows, self.inverses = [], []
        ifft = np.fft.ifft

        def counting(a, *args, **kwargs):
            if kwargs.get("axis") == 1:
                self.rows.append(np.shape(a)[0])
            elif kwargs.get("axis") == 0:
                self.inverses.append(sum(self.rows))
                self.rows.clear()
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting)


class TestTransformCounts:
    def test_random_data_step_runs_pass_one_on_the_retained_rows(self, monkeypatch):
        # n = 32: the rows |m1| <= n//3 = 10, 21 of 32, per inverse; the
        # step's two advections make three inverses each
        grid = shared_grid(32)
        theta0 = random_besov_field(build_bank(grid), np.random.default_rng(2)) * 0.05
        params = SolveParams(alpha=1.5, n=32, t_final=0.0025, dt=0.0025)
        counter = InverseCounter(monkeypatch)
        for _ in march(theta0, params):
            pass
        assert counter.inverses == [21] * 6
        counter.inverses.clear()
        for _ in march(smooth_profile(grid), params):
            pass
        assert counter.inverses == [32] * 6

    @pytest.mark.parametrize("data", ("random", "smooth"))
    def test_solve_table_inverts_only_the_final_state(self, data, monkeypatch, tmp_path, capsys):
        # every other state's l4 and linf read the grid values its
        # stage-1 advection took
        grid = shared_grid(32)
        if data == "random":
            theta0 = random_besov_field(build_bank(grid), np.random.default_rng(1)) * 0.05
        else:
            theta0 = smooth_profile(grid)
        params = SolveParams(alpha=1.5, n=32, t_final=0.01, dt=0.0025)
        counter = InverseCounter(monkeypatch)
        for _ in march(theta0, params):
            pass
        marched = len(counter.inverses)
        counter.inverses.clear()
        argv = ["solve", "--n", "32", "--T", "0.01", "--data", data]
        argv += ["--seed", "1"] if data == "random" else []
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(counter.inverses) == marched + 1

    @pytest.mark.parametrize("case, inverses, rows", [
        ("endpoint", 378, 8928),
        ("alpha1", 450, 9144),
    ])
    def test_smooth_uniqueness_counts_are_unchanged(
        self, case, inverses, rows, monkeypatch, tmp_path, capsys
    ):
        # smooth data has no band, so its marches invert every row; the
        # blocks and the Riesz low-pass velocity skip theirs, as they did
        # before fields carried bands: the same inverses and pass-1 rows
        counter = InverseCounter(monkeypatch)
        argv = ["uniqueness", case, "--n", "32", "--T", "0.04", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(counter.inverses) == inverses
        assert sum(counter.inverses) == rows

"""Guards for the shared work of the verifiers.

The level-diagonal bilinear sum is regrouped by bilinearity: each level is
paired with the sum of its neighbours and the products accumulate on the
grid before one transform.  It must agree with the pairwise form it
replaces to rounding.  Every other reuse (velocities taken to the grid
once per commutator, Duhamel products formed once per horizon ladder,
Besov norms read from block norms already in hand) keeps the same
products in the same order and must reproduce the replaced form with
exact ==.
"""

import math

import numpy as np
import pytest

from sqglab.lab import (
    _run_trials,
    _steady_duhamel_norms,
    bilinear_diagonal_sum,
    duhamel_test_datum,
    low_high_paraproduct,
    lowpass_commutator_family,
    random_besov_field,
    riesz_lowpass_commutator,
    velocity_gradient_components,
    verify_bilinear,
    verify_duhamel_bound,
    verify_multiplier_bound,
    verify_paraproduct,
)
from sqglab.littlewood import BesovIndex, besov_norm, block, build_bank
from sqglab.spectral import (
    SpectralField,
    dealias,
    gradient,
    lp_norm,
    riesz_perp_velocity,
    shared_grid,
)

QUARTER = 0.5 * math.pi
FULL = 2.0 * math.pi


def pairwise_advect(u1, u2, h):
    """u . grad h dealiased, each factor taken to the grid on its own."""
    prod = (
        u1.physical() * gradient(h, 0).physical()
        + u2.physical() * gradient(h, 1).physical()
    )
    # the real part, as SpectralField.from_physical keeps it
    return dealias(SpectralField.from_physical(h.grid, np.real(prod)))


def pairwise_bilinear(f, g, bank):
    """The level-diagonal sum term by term over the pairs |k - l| <= 1."""
    grid = bank.grid
    blocks_f = [block(f, bank, j) for j in bank.levels()]
    blocks_g = [block(g, bank, j) for j in bank.levels()]
    coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for k, fk in enumerate(blocks_f):
        for l in range(max(0, k - 1), min(len(blocks_g), k + 2)):
            coef += pairwise_advect(*riesz_perp_velocity(fk), blocks_g[l]).coef
            coef += pairwise_advect(*riesz_perp_velocity(blocks_g[l]), fk).coef
    return SpectralField(grid, coef)


def rel_diff(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def bank_of(n, box):
    return build_bank(shared_grid(n, box))


class TestBilinearOracle:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("box", [QUARTER, FULL], ids=["quarter", "full"])
    def test_matches_pairwise_sum(self, n, box):
        bank = bank_of(n, box)
        rng = np.random.default_rng(n)
        f = random_besov_field(bank, rng, s=-0.5)
        g = random_besov_field(bank, rng, s=0.25)
        got = bilinear_diagonal_sum(f, g, bank)
        want = pairwise_bilinear(f, g, bank)
        assert rel_diff(got.coef, want.coef) <= 1e-13

    def test_non_hermitian_real_input(self):
        # coefficients not conjugate-symmetric: every factor keeps the
        # real part of its own inverse transform
        bank = bank_of(128, QUARTER)
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        f = dealias(SpectralField(bank.grid, noise * 128.0))
        g = random_besov_field(bank, rng)
        assert f.conjugate_symmetry_defect() > 0.1
        got = bilinear_diagonal_sum(f, g, bank)
        assert rel_diff(got.coef, pairwise_bilinear(f, g, bank).coef) <= 1e-13


class TestCommutatorsBitwise:
    def test_lowpass_family(self):
        bank = bank_of(64, FULL)
        rng = np.random.default_rng(5)
        u1, u2 = riesz_perp_velocity(random_besov_field(bank, rng, s=0.5))
        theta = random_besov_field(bank, rng, s=0.25)
        advection = pairwise_advect(u1, u2, theta)
        want = [
            block(advection, bank, j).coef
            - pairwise_advect(u1, u2, block(theta, bank, j)).coef
            for j in range(bank.j_max + 1)
        ]
        got = list(lowpass_commutator_family(u1, u2, theta, bank))
        assert len(got) == len(want)
        for piece, coef in zip(got, want):
            assert np.array_equal(piece.coef, coef)

    def test_riesz_lowpass(self):
        bank = bank_of(64, FULL)
        rng = np.random.default_rng(6)
        f = random_besov_field(bank, rng, s=0.25)
        g = random_besov_field(bank, rng, s=0.25)
        uf1, uf2 = riesz_perp_velocity(f)
        first = riesz_perp_velocity(block(pairwise_advect(uf1, uf2, g), bank, 0))
        lows = riesz_perp_velocity(block(g, bank, 0))
        for got, head, low in zip(riesz_lowpass_commutator(f, g, bank), first, lows):
            assert np.array_equal(got.coef, head.coef - pairwise_advect(uf1, uf2, low).coef)


def one_horizon_duhamel(theta, alpha, horizon, p):
    """_steady_duhamel_norms as it was written for a single horizon."""
    grid = theta.grid
    u1, u2 = riesz_perp_velocity(theta)
    phys = theta.physical()
    out = 0.0
    symbol = grid.kabs_on() ** alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = -np.expm1(-horizon * symbol) / symbol
    mult[0, 0] = horizon
    for comp in (u1, u2):
        prod = dealias(SpectralField.from_physical(grid, comp.physical() * phys))
        out = max(out, lp_norm(SpectralField(grid, prod.coef * mult), p))
    return out


class TestDuhamelBitwise:
    @pytest.mark.parametrize("alpha, p", [(2.0, 4.0), (1.25, math.inf)])
    def test_ladder_matches_one_horizon_form(self, alpha, p):
        bank = bank_of(64, FULL)
        theta = duhamel_test_datum(bank, p)
        horizons = tuple(np.geomspace(1e-3, 0.1, 5))
        report = verify_duhamel_bound(alpha, theta, bank, horizons=horizons, p=p)
        norms = []
        for t in horizons:
            norms.append(one_horizon_duhamel(theta, alpha, t, p))
            assert _steady_duhamel_norms(theta, alpha, (t,), p) == [norms[-1]]
        # the report's slope is fitted to the running max of these norms
        sups = np.maximum.accumulate(norms)
        slope = float(np.polyfit(np.log(horizons), np.log(sups), 1)[0])
        assert report.summary["slope"] == slope


class TestLhsFromBlockNorms:
    # each left-hand side is read from the block norms the worker already
    # holds; it must equal besov_norm taken afresh, bit for bit.  _run_trials
    # hands draw() the same child seeds the verifier's trials get.

    def test_paraproduct(self):
        bank = bank_of(64, QUARTER)
        s, eps, p, q = -0.5, 0.25, 4.0, 2.0
        report = verify_paraproduct(bank, s, eps, p, q, trials=2, seed=7)

        def draw(rng):
            f = random_besov_field(bank, rng, s=0.25)
            g = random_besov_field(bank, rng, s=-0.25)
            rhs = besov_norm(f, bank, BesovIndex(-eps, math.inf, 4.0)) * besov_norm(
                g, bank, BesovIndex(s, p, 4.0)
            )
            para = low_high_paraproduct(f, g, bank)
            return besov_norm(para, bank, BesovIndex(s - eps, p, q)) / rhs

        assert list(report.ratios) == _run_trials(2, 7, draw)

    @pytest.mark.parametrize("endpoint", [False, True])
    def test_bilinear(self, endpoint):
        bank = bank_of(64, QUARTER)
        s, s_prime, p, q = -0.5, -0.5, 4.0, 2.0
        report = verify_bilinear(bank, s, s_prime, p, q=q, trials=2, seed=8,
                                 endpoint=endpoint)
        s_g = -1.0 - s_prime if endpoint else s + 1.0 - s_prime
        q_rhs = 2.0 if endpoint else 2.0 * q
        lhs_index = BesovIndex(-2.0, p, p) if endpoint else BesovIndex(s, p, q)

        def draw(rng):
            f = random_besov_field(bank, rng, s=s_prime)
            g = random_besov_field(bank, rng, s=s_g)
            rhs = besov_norm(f, bank, BesovIndex(s_prime, 8.0, q_rhs)) * besov_norm(
                g, bank, BesovIndex(s_g, 8.0, q_rhs)
            )
            total = bilinear_diagonal_sum(f, g, bank)
            return besov_norm(total, bank, lhs_index) / rhs

        assert list(report.ratios) == _run_trials(2, 8, draw)

    @pytest.mark.parametrize("q", [math.inf, 2.0])
    def test_velocity_multiplier(self, q):
        bank = bank_of(64, QUARTER)
        s = -0.5
        report = verify_multiplier_bound(bank, s, q, trials=2, seed=9)

        def draw(rng):
            f = random_besov_field(bank, rng, s=s)
            rhs = besov_norm(f, bank, BesovIndex(s, math.inf, q))
            comps = velocity_gradient_components(f)
            lhs = max(besov_norm(c, bank, BesovIndex(s - 1.0, math.inf, q)) for c in comps)
            return lhs / rhs

        assert list(report.ratios) == _run_trials(2, 9, draw)

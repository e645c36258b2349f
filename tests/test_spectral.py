"""Exactness tests for the grid, field, and multiplier layer.

Expected values are closed forms (single Fourier modes, constant fields)
or independent oracles (zero-padded products for the dealias rule,
coefficient-space Plancherel sums for the quadrature norm).
"""

import ast
import contextlib
import functools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqglab.spectral
from sqglab.littlewood import (
    DyadicBank,
    block,
    block_norms,
    build_bank,
    max_feasible_level,
)
from sqglab.mild import SolveParams, _tableau
from sqglab.spectral import (
    MAX_GRID_N,
    Grid2,
    ParameterError,
    SpectralField,
    _square,
    dealias,
    dealiased_advection,
    dealiased_coef,
    fractional_laplacian,
    gradient,
    grid_gradient,
    grid_symbol,
    grid_velocity,
    inverse_lambda,
    lp_norm,
    mode_energy,
    riesz_perp_velocity,
    semigroup_apply,
    shared_grid,
)
from sqglab.uniqueness import riesz_low_max

RNG = np.random.default_rng(20260819)


def _weight(name, band):
    return getattr(_tableau(shared_grid(32), 1.5, 0.01, band), name)


# every array that shared_grid, grid_symbol or the ETD tableau cache hands
# out, by name, on shared_grid(32)
_SHARED_ARRAYS = {"k1": lambda: shared_grid(32).k1, "k2": lambda: shared_grid(32).k2}
for _band in (None, 32 // 3):
    for _kind, _axis in (
        ("inverse_lambda", None),
        ("gradient", 0),
        ("gradient", 1),
        ("riesz_perp", 0),
        ("riesz_perp", 1),
    ):
        _SHARED_ARRAYS[f"{_kind}{'' if _axis is None else _axis}-band{_band}"] = (
            functools.partial(grid_symbol, shared_grid(32), _kind, _axis, _band)
        )
    for _name in ("semigroup", "phi1_dt", "phi2_dt"):
        _SHARED_ARRAYS[f"tableau.{_name}-band{_band}"] = functools.partial(_weight, _name, _band)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_field(grid, rng=RNG, band_limited=True):
    f = SpectralField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
    return dealias(f) if band_limited else f


def rel_err(a, b):
    scale = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / scale


class TestGrid2:
    def test_frequency_lattice(self):
        g = Grid2(16, box_length=2.0 * math.pi)
        assert g.index1[:, 0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1]
        assert g.k1[1, 0] == pytest.approx(1.0, rel=1e-15)
        g2 = Grid2(16, box_length=8.0 * math.pi)
        assert g2.k1[1, 0] == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("n", [8, 12, 100])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ParameterError):
            Grid2(n)

    # powers of two past the budget; 2^20 once ended in a MemoryError
    @pytest.mark.parametrize("n", [2 * sqglab.spectral.MAX_GRID_N, 2**20])
    def test_refuses_sizes_over_the_budget(self, n, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused grid built its lattice")

        monkeypatch.setattr(np.fft, "fftfreq", unreachable)
        with pytest.raises(ParameterError, match="budget"):
            Grid2(n)

    # 2 pi / 5e-324 overflows to inf, and inf * 0 at the zero mode is nan
    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, 5e-324])
    def test_rejects_bad_box(self, L):
        with pytest.raises(ParameterError):
            Grid2(32, box_length=L)

    @pytest.mark.parametrize("name", list(_SHARED_ARRAYS))
    def test_shared_grid_arrays_are_read_only(self, name):
        # shared_grid and the symbol and tableau caches hand one array to
        # every caller: a write would reach every later march on it
        a = _SHARED_ARRAYS[name]()
        before = a.copy()
        with pytest.raises(ValueError):
            a[1, 1] = 0
        with pytest.raises(ValueError):
            a *= 2
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("build", [
        lambda: Grid2(MAX_GRID_N),
        lambda: SolveParams(alpha=1.5, n=MAX_GRID_N, t_final=1e-4, dt=1e-4),
        # refused by the step bound, after its k_max is read off the grid
        lambda: SolveParams(alpha=2.0, n=MAX_GRID_N, t_final=1e-4, dt=1e-4),
    ], ids=["Grid2", "SolveParams", "SolveParams-refused"])
    def test_a_grid_takes_o_of_n_memory(self, build):
        # a stored |k| and 2/3 mask took 36 MiB at n = 2048; the cache is
        # cleared so that SolveParams builds its grid here
        shared_grid.cache_clear()
        tracemalloc.start()
        try:
            with contextlib.suppress(ParameterError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("box", [2.0 * math.pi, 0.5 * math.pi, 1e-3, 2.0 * math.pi * 2.0**-40])
    @pytest.mark.parametrize("n", [2**e for e in range(4, 11)])
    def test_kabs_on_reads_the_whole_lattice(self, n, box):
        g = Grid2(n, box)
        whole = np.hypot(g.k1, g.k2)
        m = n // 3
        for band in (None, m, 3):
            assert same_bits(g.kabs_on(band), _square(whole, band))
        # SolveParams reads k_max at the corner of the kept square
        kept = np.maximum(np.abs(g.index1), np.abs(g.index2)) <= m
        k_max = SolveParams(alpha=0.1, n=n, t_final=1e-4, dt=1e-4, box_length=box).k_max()
        assert same_bits(np.float64(k_max), whole[kept].max())


class TestSpectralField:
    def test_round_trip_small_grids(self):
        # 1000 random fields through fft2/ifft2, relative error <= 1e-12
        g = Grid2(32)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            v = rng.standard_normal((32, 32))
            f = SpectralField.from_physical(g, v)
            worst = max(worst, rel_err(f.physical(), v))
        assert worst <= 1e-12

    def test_round_trip_large_grid(self):
        g = Grid2(256)
        v = RNG.standard_normal((256, 256))
        assert rel_err(SpectralField.from_physical(g, v).physical(), v) <= 1e-12

    def test_conjugate_symmetry_of_real_fields(self):
        g = Grid2(64)
        for _ in range(20):
            assert random_field(g).conjugate_symmetry_defect() <= 1e-12

    def test_conjugate_symmetry_detects_violation(self):
        g = Grid2(32)
        c = np.zeros((32, 32), dtype=complex)
        c[1, 0] = 1.0  # no mirror partner
        f = SpectralField(g, c)
        assert f.conjugate_symmetry_defect() > 0.5

    def test_mean_reads_zero_mode(self):
        g = Grid2(32)
        f = SpectralField.from_physical(g, np.full((32, 32), 2.5))
        assert f.mean() == pytest.approx(2.5, rel=1e-14)

    def test_grid_mismatch_rejected(self):
        f = random_field(Grid2(32))
        h = random_field(Grid2(64))
        with pytest.raises(ParameterError):
            _ = f + h

    @pytest.mark.parametrize("scalar", [1j, 2.0 + 0.0j, np.complex128(-1.0)])
    def test_complex_scaling_refused(self, scalar):
        f = random_field(Grid2(32))
        with pytest.raises(ParameterError):
            _ = f * scalar
        with pytest.raises(ParameterError):
            _ = scalar * f

    @settings(max_examples=25, deadline=None)
    @given(
        log_n=st.integers(4, 7),
        box=st.sampled_from([2.0 * math.pi, 0.5 * math.pi, 3.0]),
        alpha=st.floats(0.1, 2.0),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_images_of_one_sided_coefficients_are_real(self, log_n, box, alpha, t, seed):
        # coefficients on the half plane m1 > 0 alone have no mirror
        # partner; the field is still the real part of their transform,
        # and so is every image of it.  No field carries a realness flag
        # that an operation could turn off.
        n = 2**log_n
        grid = shared_grid(n, box)
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coef[grid.index1 <= 0] = 0.0
        f = SpectralField(grid, coef)
        assert f.conjugate_symmetry_defect() > 0.5
        images = [f, f * 2.5, -f, f + f, f - f * 0.5, semigroup_apply(f, alpha, t)]
        images += [gradient(f, axis) for axis in (0, 1)]
        images += riesz_perp_velocity(f)
        if max_feasible_level(grid) >= 1:
            bank = DyadicBank(grid, max_feasible_level(grid))
            images += [block(f, bank, j) for j in range(bank.j_max + 1)]
        for image in images:
            assert not hasattr(image, "real")
            values = image.physical()
            assert values.dtype == np.float64 and values.shape == (n, n)


class TestFractionalLaplacian:
    def test_constant_to_zero(self):
        g = Grid2(32)
        f = SpectralField.from_physical(g, np.ones((32, 32)))
        out = fractional_laplacian(f, alpha=1.0)
        assert np.abs(out.physical()).max() <= 1e-14

    @pytest.mark.parametrize(
        "alpha,factor",
        [(2.0, 4.0), (1.5, 2.0**1.5), (1.0, 2.0), (0.5, 2.0**0.5)],
    )
    def test_single_mode(self, alpha, factor):
        # cos(k.x) with |k| = 2 is an eigenfunction with eigenvalue |k|^alpha
        g = Grid2(64)
        f = SpectralField.from_physical(g, np.cos(2.0 * g.x1))
        out = fractional_laplacian(f, alpha)
        assert rel_err(out.physical(), factor * np.cos(2.0 * g.x1)) <= 1e-12

    def test_oblique_mode(self):
        g = Grid2(64)
        f = SpectralField.from_physical(g, np.cos(3.0 * g.x1 + 4.0 * g.x2))
        out = fractional_laplacian(f, 1.0)
        assert rel_err(out.physical(), 5.0 * np.cos(3.0 * g.x1 + 4.0 * g.x2)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0001, math.nan])
    def test_alpha_range_enforced(self, alpha):
        f = random_field(Grid2(32))
        with pytest.raises(ParameterError):
            fractional_laplacian(f, alpha)

    def test_inverse_lambda_left_inverse(self):
        # Lambda^1 (Lambda^-1 f) = f - mean(f)
        g = Grid2(128)
        f = random_field(g)
        back = fractional_laplacian(inverse_lambda(f), 1.0)
        target = f.coef.copy()
        target[0, 0] = 0.0
        assert rel_err(back.coef, target) <= 1e-12


class TestRieszPerpVelocity:
    def test_cos_x1_stream(self):
        # theta = cos(x1) gives u = (0, -sin(x1))
        g = Grid2(64)
        theta = SpectralField.from_physical(g, np.cos(g.x1))
        u1, u2 = riesz_perp_velocity(theta)
        assert np.abs(u1.physical()).max() <= 1e-13
        assert rel_err(u2.physical(), -np.sin(g.x1)) <= 1e-12

    def test_zero_mode_dropped(self):
        g = Grid2(32)
        theta = SpectralField.from_physical(g, np.full((32, 32), 3.0))
        u1, u2 = riesz_perp_velocity(theta)
        assert np.abs(u1.physical()).max() <= 1e-14
        assert np.abs(u2.physical()).max() <= 1e-14

    def test_spectral_divergence_vanishes(self):
        g = Grid2(128)
        for _ in range(20):
            theta = random_field(g)
            u1, u2 = riesz_perp_velocity(theta)
            div = gradient(u1, 0) + gradient(u2, 1)
            assert np.abs(div.coef).max() <= 1e-12 * lp_norm(theta, 2)


class TestSemigroup:
    def test_single_mode_decay(self):
        g = Grid2(64)
        f = SpectralField.from_physical(g, np.cos(3.0 * g.x1))
        for alpha, t in [(2.0, 0.1), (1.0, 0.5), (1.5, 0.25)]:
            out = semigroup_apply(f, alpha, t)
            expected = math.exp(-t * 3.0**alpha) * np.cos(3.0 * g.x1)
            assert rel_err(out.physical(), expected) <= 1e-12

    def test_t_zero_is_identity(self):
        f = random_field(Grid2(64))
        out = semigroup_apply(f, 1.5, 0.0)
        assert np.array_equal(out.coef, f.coef)

    def test_negative_time_rejected(self):
        # a non-finite time is rejected too: NaN would pass t < 0 and
        # return an all-NaN field, inf would give inf * 0 at k = 0
        f = random_field(Grid2(32))
        for t in (-1e-9, math.nan, math.inf):
            with pytest.raises(ParameterError):
                semigroup_apply(f, 1.0, t)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_composition(self, alpha):
        # exp(-t1 L) exp(-t2 L) = exp(-(t1+t2) L) to 1e-12 relative
        g = Grid2(128)
        f = random_field(g)
        t1, t2 = 0.013, 0.045
        two_step = semigroup_apply(semigroup_apply(f, alpha, t1), alpha, t2)
        one_step = semigroup_apply(f, alpha, t1 + t2)
        assert rel_err(two_step.coef, one_step.coef) <= 1e-12

    def test_mean_preserved(self):
        g = Grid2(32)
        f = SpectralField.from_physical(g, 1.0 + np.cos(g.x1))
        out = semigroup_apply(f, 1.0, 10.0)
        assert out.mean() == pytest.approx(1.0, rel=1e-14)


class TestLpNorm:
    def test_constant_closed_form(self):
        # ||1||_p = L^(2/p); in particular L for p = 2
        for L in (2.0 * math.pi, 16.0 * math.pi):
            g = Grid2(32, box_length=L)
            one = SpectralField.from_physical(g, np.ones((32, 32)))
            assert lp_norm(one, 2) == pytest.approx(L, rel=1e-12)
            assert lp_norm(one, 1) == pytest.approx(L**2, rel=1e-12)
            assert lp_norm(one, math.inf) == pytest.approx(1.0, rel=1e-15)

    def test_cosine_closed_forms(self):
        # mean of cos^2 is 1/2, mean of cos^4 is 3/8; the grid sums are exact
        # for band-limited integrands
        L = 2.0 * math.pi
        g = Grid2(64, box_length=L)
        f = SpectralField.from_physical(g, np.cos(g.x1))
        assert lp_norm(f, 2) == pytest.approx(L / math.sqrt(2.0), rel=1e-12)
        assert lp_norm(f, 4) == pytest.approx((3.0 / 8.0) ** 0.25 * L**0.5, rel=1e-12)
        assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_plancherel(self):
        # quadrature L^2 equals the coefficient-space sum with the measure
        # factor L^2/n^4
        g = Grid2(128, box_length=5.0)
        for _ in range(50):
            f = random_field(g, band_limited=False)
            spectral_l2 = math.sqrt(
                np.square(np.abs(f.coef)).sum() * g.box_length**2 / g.n**4
            )
            assert lp_norm(f, 2) == pytest.approx(spectral_l2, rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.99, 0, -2])
    def test_small_p_rejected(self, p):
        f = random_field(Grid2(32))
        with pytest.raises(ParameterError):
            lp_norm(f, p)

    @given(c=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_homogeneous(self, c):
        g = Grid2(16)
        f = random_field(g)
        for p in (1, 2, 4, math.inf):
            assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-9, abs=1e-12)


class TestLargeFiniteP:
    # at p = 1000 the p-th powers of grid values near 0.04 underflow, and
    # the plain sum read 0.0 for every annulus kernel of an n = 64 bank
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_annulus_kernels_are_not_zero(self, j):
        bank = build_bank(shared_grid(64))
        kernel = SpectralField(bank.grid, bank.add_symbol(j, np.zeros((64, 64))))
        peak = lp_norm(kernel, math.inf)
        assert 0.0 < peak < 1.0
        # ||f||_p lies between max |f| times the p-th roots of one cell's
        # area and of the box's area, and tends to max |f| as p grows
        g = kernel.grid
        got = lp_norm(kernel, 1000.0)
        assert peak * g.cell_area ** 1e-3 <= got <= peak * g.box_length ** 2e-3
        assert got == pytest.approx(lp_norm(kernel, 999.0), rel=1e-3)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_under_and_overflow_of_the_plain_sum(self, scale):
        # ||c f||_p = |c| ||f||_p also where sum |c f|^p leaves the floats
        f = random_field(Grid2(32))
        want = scale * lp_norm(f, 8.0)
        assert lp_norm(scale * f, 8.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 4.0, 60.0])
    def test_representable_sums_keep_their_bits(self, p):
        f = random_field(Grid2(32))
        w = np.abs(f.physical())
        want = float((np.power(w, p).sum() * f.grid.cell_area) ** (1.0 / p))
        assert lp_norm(f, p) == want


class TestTinyBox:
    # the quadrature weight (L/n)^2 underflowed to 0.0 once L fell below
    # about 2e-162 n, and the Parseval weight (L/n)^2 / n^2 before that:
    # every finite-p norm and every p = 2 block norm then read 0.0
    BOX = 1e-272

    def test_norms_scale_with_the_box(self):
        # the same grid values on a box of side L have L^p norm
        # L^(2/p) times their norm on the unit box
        values = RNG.standard_normal((32, 32))
        unit, tiny = (
            dealias(SpectralField.from_physical(Grid2(32, box), values))
            for box in (1.0, self.BOX)
        )
        for p in (2.0, 4.0, 8.0):
            want = lp_norm(unit, p) * self.BOX ** (2.0 / p)
            assert lp_norm(tiny, p) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_block_norms_at_p2_match_the_grid_sum(self):
        # Parseval against the Riemann sum of each block's grid values
        grid = Grid2(32, self.BOX)
        f = random_field(grid)
        bank = build_bank(grid)
        got = block_norms(f, bank, 2.0)
        blocks = [block(f, bank, j) for j in range(bank.j_max + 1)]
        want = [
            math.sqrt(float(np.square(b.physical()).sum())) * (grid.box_length / grid.n)
            for b in blocks
        ]
        assert np.count_nonzero(got) >= 4
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_normal_weights_keep_their_bits(self, p):
        # at L = 1e-150 both weights are normal floats: the plain forms
        f = random_field(Grid2(32, 1e-150))
        g = f.grid
        w = np.abs(f.physical())
        if p == 2.0:
            want = math.sqrt(g.cell_area / g.n**2 * mode_energy(f).sum())
        elif p == 1.0:
            want = float(w.sum() * g.cell_area)
        else:
            want = float((np.power(w, p).sum() * g.cell_area) ** (1.0 / p))
        assert lp_norm(f, p) == want


def padded_product(f, g):
    """Product of two dealiased fields on a doubled grid: the alias-free oracle.

    Both inputs must be supported in the 2/3 square, so their Nyquist rows
    vanish and zero-padding is unambiguous.
    """
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    big = Grid2(m, box_length=grid.box_length)

    def embed(field):
        src = np.fft.fftshift(field.coef)
        dst = np.zeros((m, m), dtype=complex)
        lo = (m - n) // 2
        dst[lo : lo + n, lo : lo + n] = src
        return SpectralField(big, np.fft.ifftshift(dst) * (m / n) ** 2)

    prod_big = SpectralField.from_physical(big, embed(f).physical() * embed(g).physical())
    src = np.fft.fftshift(prod_big.coef)
    lo = (m - n) // 2
    small = np.fft.ifftshift(src[lo : lo + n, lo : lo + n]) * (n / m) ** 2
    return SpectralField(f.grid, small)


class TestDealias:
    def test_truncation_rule(self):
        g = Grid2(64)
        f = random_field(g, band_limited=False)
        out = dealias(f)
        m_cut = g.n // 3
        outside = (np.abs(g.index1) > m_cut) | (np.abs(g.index2) > m_cut)
        # +0.0 outside the kept square, and its bits copied inside
        assert not out.coef[outside].view(np.int64).any()
        assert same_bits(out.coef[~outside], f.coef[~outside])

    def test_nyquist_mode_killed(self):
        g = Grid2(32)
        c = np.zeros((32, 32), dtype=complex)
        c[16, 0] = 1.0  # pure Nyquist mode
        out = dealias(SpectralField(g, c))
        assert np.abs(out.coef).max() == 0.0

    def test_product_matches_padding_oracle(self):
        # 2/3-truncated direct product == 3/2-padded exact product, because
        # aliases of in-band products land outside the retained square
        g = Grid2(64)
        rng = np.random.default_rng(99)
        for _ in range(10):
            f = random_field(g, rng)
            h = random_field(g, rng)
            direct = dealias(SpectralField.from_physical(g, f.physical() * h.physical()))
            oracle = dealias(padded_product(f, h))
            assert rel_err(direct.coef, oracle.coef) <= 1e-12


class TestSymbolOp:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            grid_symbol(Grid2(32), "laplacian")

    def test_zero_mode_policy(self):
        # on unit coefficients each operator returns its symbol
        g = Grid2(32)
        ones = SpectralField(g, np.ones((32, 32)))
        assert inverse_lambda(ones).coef[0, 0] == 0.0
        assert all(u.coef[0, 0] == 0.0 for u in riesz_perp_velocity(ones))
        assert gradient(ones, 0).coef[0, 0] == 0.0 and gradient(ones, 1).coef[0, 0] == 0.0
        assert semigroup_apply(ones, 1.0, 3.0).coef[0, 0] == 1.0
        assert fractional_laplacian(ones, 1.5).coef[0, 0] == 0.0

    def test_gradient_axis_checked(self):
        g = Grid2(32)
        for bad in (2, [0], None):
            with pytest.raises(ParameterError):
                gradient(SpectralField(g, np.ones((32, 32))), bad)
        for kind in ("riesz_perp", "gradient"):
            for bad in (2, None):
                with pytest.raises(ParameterError):
                    grid_symbol(g, kind, bad)
        with pytest.raises(ParameterError):
            grid_symbol(g, "inverse_lambda", 0)

    def test_cached_symbols_are_shared_and_read_only(self):
        g = Grid2(32)
        rng = np.random.default_rng(7)
        theta = SpectralField.from_physical(g, rng.standard_normal((32, 32)))
        before = riesz_perp_velocity(theta)[0].coef.copy()
        sym = grid_symbol(g, "riesz_perp", 0)
        assert sym is grid_symbol(Grid2(32), "riesz_perp", 0)
        with pytest.raises(ValueError):
            sym[1, 1] = 0.0
        with pytest.raises(ValueError):
            sym *= 2.0
        assert not grid_symbol(g, "inverse_lambda").flags.writeable
        assert not grid_symbol(g, "gradient", 0).flags.writeable
        assert grid_symbol(g, "gradient", 1) is grid_symbol(g, "gradient", 1)
        assert np.array_equal(riesz_perp_velocity(theta)[0].coef, before)


class TestGridProducts:
    def test_helpers_match_the_field_operators_bit_for_bit(self):
        g = Grid2(64, 3.0)
        f = random_field(g, np.random.default_rng(11))
        for got, op in zip(grid_velocity(f), riesz_perp_velocity(f)):
            assert np.array_equal(got, op.physical())
        for axis, got in enumerate(grid_gradient(f)):
            assert np.array_equal(got, gradient(f, axis).physical())
        values = f.physical() * grid_gradient(f)[0]
        want = dealias(SpectralField.from_physical(g, values)).coef
        assert np.array_equal(dealiased_coef(g, values), want)
        p1, p2 = (dealiased_coef(g, u * values) for u in grid_velocity(f))
        want = -(1j * g.k1 * p1 + 1j * g.k2 * p2)
        assert np.array_equal(dealiased_advection(g, f.coef, values), want)
        # on the layout of the band n//3 of f: the square of the same array
        band = f.band
        got = dealiased_advection(g, _square(f.coef, band), values, band)
        assert np.array_equal(got, _square(want, band))
        with pytest.raises(ParameterError, match="advection band"):
            dealiased_advection(g, _square(f.coef, band - 1), values, band - 1)

    @pytest.mark.parametrize(
        "pattern, owner",
        [
            (r"\b(np|numpy)\.fft\b|from numpy import fft", "spectral.py"),
            (r"\b1j\b", "spectral.py"),
            (r"\breal=", None),
        ],
        ids=["fft", "1j", "real"],
    )
    def test_transforms_live_in_the_spectral_module(self, pattern, owner):
        # one module owns the transform convention and the derivative
        # symbols, so a change of them (say, to real-to-complex
        # transforms) is made in one place; and every field is real, so
        # no module, that one included, passes a realness flag
        package = Path(sqglab.spectral.__file__).parent
        pattern = re.compile(pattern)
        offenders = [
            path.name
            for path in sorted(package.glob("*.py"))
            if path.name != owner and pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []

    def test_every_cache_is_bounded(self):
        # an unbounded cache keeps whatever a long-lived process builds,
        # as the ETD tableaux of every (alpha, dt) once were kept: each
        # cache is functools.lru_cache with a literal, finite maxsize
        package = Path(sqglab.spectral.__file__).parent
        unbounded = re.compile(
            r"\bfunctools\.cache\b|\bimport\b[^\n]*\bcache\b"
            r"|\blru_cache\b(?!\(maxsize=[1-9][0-9]*\))"
        )
        offenders = [
            f"{path.name}: {match.group(0)}"
            for path in sorted(package.glob("*.py"))
            for match in unbounded.finditer(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []


def string_text(node):
    """The string literals under node, joined, with {} for each formatted value."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else ""
    if isinstance(node, ast.FormattedValue):
        return "{}"
    return "".join(string_text(child) for child in ast.iter_child_nodes(node))


def raise_texts(path):
    """The message text of each raise statement in the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raises = (node for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc)
    return [string_text(node.exc) for node in raises]


class TestOneCheckPerRule:
    # each rule that several modules read is refused by one check, in one
    # wording; the patterns match that wording and every wording its
    # removed copies had, so a copy brought back fails here
    @pytest.mark.parametrize(
        "pattern",
        [
            r"\(0, 2\]",
            r"exponent (\S+ )?must|>= 1 \(",
            r"different grids|does not match params",
            r"must lie in 1\.\.",
        ],
        ids=["alpha", "exponent", "same-grid", "trials-and-threads"],
    )
    def test_each_rule_is_refused_once(self, pattern):
        package = Path(sqglab.spectral.__file__).parent
        found = [
            f"{path.name}: {text}"
            for path in sorted(package.glob("*.py"))
            for text in raise_texts(path)
            if re.search(pattern, text)
        ]
        assert len(found) == 1, found


def reference_block_norms(f, bank, p):
    """block_norms as one full transform per block: the oracle that the
    banded transforms and the skipped empty levels must match."""
    blocks = [block(f, bank, j) for j in range(bank.j_max + 1)]
    return np.array([lp_norm(b, p) for b in blocks])


def reference_riesz_low_max(f, bank):
    u1, u2 = riesz_perp_velocity(block(f, bank, 0))
    return max(lp_norm(u1, math.inf), lp_norm(u2, math.inf))


class TestPrunedTransforms:
    # each 2-D transform is two 1-D passes in fft2 order that skip rows
    # known to be zero or columns the 2/3 rule discards; no kept bit moves
    @settings(max_examples=25, deadline=None)
    @given(
        log_n=st.integers(4, 8),
        band=st.one_of(st.none(), st.integers(0, 127)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_inverse_is_the_fresh_one(self, log_n, band, seed):
        # dealiased_advection inverts its buffer in place; physical() and
        # the grid helpers invert into a fresh array: the same bits
        n = 2**log_n
        band = None if band is None else band % (n // 2)
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if band is not None:
            coef[np.abs(Grid2(n).index1) > band] = 0.0
        fresh = sqglab.spectral._inverse(coef, band)
        c = coef.copy()
        assert sqglab.spectral._inverse(c, band, c) is c
        assert np.array_equal(c.view(np.int64), fresh.view(np.int64))

    @settings(max_examples=25, deadline=None)
    @given(
        log_n=st.integers(4, 8),
        band_frac=st.floats(0.0, 1.0, exclude_max=True),
        box=st.sampled_from([2.0 * math.pi, 0.5 * math.pi]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_for_bit_against_full_transforms(self, log_n, band_frac, box, seed):
        n = 2**log_n
        band = int(band_frac * (n // 2))
        grid = Grid2(n, box)
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coef[np.abs(grid.index1) > band] = 0.0

        got = sqglab.spectral._inverse(coef, band).real
        assert np.array_equal(got.view(np.int64), np.fft.ifft2(coef).real.view(np.int64))

        values = rng.standard_normal((n, n))
        got = dealiased_coef(grid, values)
        keep = np.maximum(np.abs(grid.index1), np.abs(grid.index2)) <= n // 3
        want = np.fft.fft2(values) * keep
        assert np.array_equal(got, want)
        assert np.array_equal(got[keep].view(np.int64), want[keep].view(np.int64))
        assert not got[~keep].view(np.int64).any()

        bank = DyadicBank(grid, max_feasible_level(grid))
        f = SpectralField(grid, coef)
        for p in (1.0, 4.0, math.inf):
            want = reference_block_norms(f, bank, p)
            assert np.array_equal(block_norms(f, bank, p).view(np.int64), want.view(np.int64))
        assert riesz_low_max(f, bank) == reference_riesz_low_max(f, bank)

"""Tests for the mild-solution march, Picard iteration, and the divergence-form identity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import pure_mode, random_field, rel_err, whole_symbol
from sqglab.littlewood import build_bank
from sqglab.mild import (
    BlowUpError,
    NonContractionError,
    SolveParams,
    divergence_form_check,
    duhamel_series,
    duhamel_step,
    picard_solve,
    solve,
)
from sqglab.spectral import (
    Grid2,
    ParameterError,
    SpectralField,
    dealias,
    lp_norm,
    semigroup_apply,
)

RNG = np.random.default_rng(20260819)


def smooth_data(grid, rng, amp=0.5, k0=6.0):
    """Band-limited mean-free field with Gaussian spectral envelope."""
    f = SpectralField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
    coef = f.coef * np.exp(-((grid.kabs_on() / k0) ** 2))
    coef[0, 0] = 0.0
    f = dealias(SpectralField(grid, coef))
    peak = lp_norm(f, math.inf)
    return f * (amp / peak)


class TestSolveParams:
    def test_validation(self):
        good = dict(alpha=1.5, n=64, t_final=0.1, dt=0.01)
        SolveParams(**good)
        with pytest.raises(ParameterError):
            SolveParams(**{**good, "alpha": 0.0})
        with pytest.raises(ParameterError):
            SolveParams(**{**good, "alpha": 2.5})
        with pytest.raises(ParameterError):
            SolveParams(**{**good, "dt": -0.01})
        with pytest.raises(ParameterError):
            SolveParams(**{**good, "t_final": 0.005})
        with pytest.raises(ParameterError):
            SolveParams(**{**good, "t_final": 0.0315})
        with pytest.raises(ParameterError):
            SolveParams(**{**good, "picard_depth": 0})

    @pytest.mark.parametrize(
        "override",
        [
            {"t_final": math.inf},
            {"t_final": math.nan},
            {"dt": math.inf, "t_final": math.inf},
            {"dt": math.nan},
            {"alpha": math.nan},
            {"t_final": 1e308, "dt": 1e-308},
        ],
    )
    def test_non_finite_values_rejected(self, override):
        good = dict(alpha=1.5, n=64, t_final=0.1, dt=0.01)
        with pytest.raises(ParameterError):
            SolveParams(**{**good, **override})

    def test_stability_bound(self):
        # dt * k_max^alpha <= 40 caps the quadrature error on stiff modes
        with pytest.raises(ParameterError):
            SolveParams(alpha=2.0, n=256, t_final=1.0, dt=0.1)
        SolveParams(alpha=2.0, n=256, t_final=0.01, dt=0.001)

    def test_n_steps(self):
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.005)
        assert params.n_steps() == 20


def masked_phi(z, series, closed):
    """A phi function evaluated on copies of its small and large entries."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    out[small] = series(z[small])
    out[~small] = closed(z[~small])
    return out


class TestTableau:
    @pytest.mark.parametrize("n", [32, 128])
    def test_in_place_phi_match_masked_copies_bit_for_bit(self, n):
        from sqglab.mild import _phi

        phi1 = (
            lambda z: 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0 + z**4 / 120.0 + z**5 / 720.0,
            lambda z: np.expm1(z) / z,
        )
        phi2 = (
            lambda z: 0.5 + z / 6.0 + z**2 / 24.0 + z**3 / 120.0 + z**4 / 720.0 + z**5 / 5040.0,
            lambda z: (np.expm1(z) - z) / z**2,
        )
        grid = Grid2(n)
        for alpha in (2.0, 1.5, 1.25, 1.0, 0.75):
            for dt in (0.00125, 0.0025, 0.005):
                z = -dt * grid.kabs_on() ** alpha
                for k, (series, closed) in ((1, phi1), (2, phi2)):
                    want = masked_phi(z, series, closed)
                    assert np.array_equal(_phi(z, k).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", ["semigroup", "phi1_dt", "phi2_dt"])
    def test_cached_weights_are_read_only(self, name):
        # one tableau per (grid, alpha, dt, band) serves every march
        from sqglab.mild import _tableau

        for band in (None, 10):
            a = getattr(_tableau(Grid2(32), 1.5, 0.01, band), name)
            before = a.copy()
            with pytest.raises(ValueError):
                a[1, 1] = 0.0
            with pytest.raises(ValueError):
                a *= 2.0
            assert np.array_equal(a, before)


class TestDuhamelStep:
    def test_linear_only_matches_semigroup(self):
        grid = Grid2(64)
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.01, nonlinear=False)
        f = random_field(grid, RNG)
        stepped = duhamel_step(f, params)
        exact = semigroup_apply(f, 1.5, 0.01)
        assert np.abs(stepped.coef - exact.coef).max() <= 1e-14 * np.abs(f.coef).max()

    def test_zero_stays_zero(self):
        grid = Grid2(64)
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.01)
        zero = SpectralField(grid, np.zeros((64, 64), dtype=complex))
        out = duhamel_step(zero, params)
        assert np.abs(out.coef).max() == 0.0

    def test_heat_single_mode_closed_form(self):
        # alpha = 2, one mode: the march must reproduce e^{-|k|^2 t}
        grid = Grid2(64)
        dt = 0.01
        params = SolveParams(alpha=2.0, n=64, t_final=0.1, dt=dt, nonlinear=False)
        f = pure_mode(grid, 3, 4)  # |k|^2 = 25
        cur = f
        for step in range(10):
            cur = duhamel_step(cur, params, t=step * dt)
        expected = math.exp(-25.0 * 0.1)
        ratio = cur.coef[3, 4] / f.coef[3, 4]
        assert rel_err(ratio.real, expected) < 1e-12

    def test_grid_mismatch(self):
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.01)
        f = random_field(Grid2(32), RNG)
        with pytest.raises(ParameterError):
            duhamel_step(f, params)

    def test_blow_up_detected(self):
        grid = Grid2(32)
        params = SolveParams(alpha=1.0, n=32, t_final=0.1, dt=0.01)
        huge = smooth_data(grid, np.random.default_rng(0), amp=5e12)
        with pytest.raises(BlowUpError) as exc:
            duhamel_step(huge, params)
        assert exc.value.magnitude > 1e12


class TestSolve:
    def test_initial_datum_kept_exactly(self):
        grid = Grid2(64)
        f = smooth_data(grid, np.random.default_rng(1))
        params = SolveParams(alpha=1.5, n=64, t_final=0.05, dt=0.01)
        times, fields = solve(f, params)
        assert np.abs(fields[0].coef - f.coef).max() == 0.0
        assert np.allclose(times, 0.01 * np.arange(6))

    def test_band_limit_enforced(self):
        grid = Grid2(64)
        f = random_field(grid, RNG, band_limited=False)
        params = SolveParams(alpha=1.5, n=64, t_final=0.05, dt=0.01)
        with pytest.raises(ParameterError):
            solve(f, params)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_max_principle(self, alpha):
        # L^p norms non-increasing along the nonlinear march
        grid = Grid2(64)
        f = smooth_data(grid, np.random.default_rng(1), amp=0.5)
        params = SolveParams(alpha=alpha, n=64, t_final=0.1, dt=0.005)
        _, fields = solve(f, params)
        for p in [2.0, 4.0, math.inf]:
            vals = np.array([lp_norm(g, p) for g in fields])
            assert np.all(np.diff(vals) <= 1e-6 * vals[:-1])

    def test_mean_conserved(self):
        grid = Grid2(64)
        f = smooth_data(grid, np.random.default_rng(2), amp=0.5)
        shifted = SpectralField(grid, f.coef.copy())
        shifted.coef[0, 0] = 0.37 * grid.n**2  # impose a nonzero mean
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.005)
        _, fields = solve(shifted, params)
        drift = np.abs(np.array([f.mean() for f in fields]) - 0.37).max()
        assert drift < 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_per_block_decay_bracket(self, alpha):
        # linear decay rate of each dyadic block sits inside the rate range
        # of its annulus support [3/8 * 2^j, 4/3 * 2^j]
        grid = Grid2(64)
        bank = build_bank(grid)
        T, dt = 0.02, 0.002
        params = SolveParams(alpha=alpha, n=64, t_final=T, dt=dt, nonlinear=False)
        rng = np.random.default_rng(3)
        for j in [2, 3, 4]:
            f = random_field(grid, rng, band_limited=False)
            coef = f.coef * (whole_symbol(bank, j) > 0.0)
            f = dealias(SpectralField(grid, coef))
            _, fields = solve(f, params)
            n0 = lp_norm(fields[0], 2.0)
            n1 = lp_norm(fields[-1], 2.0)
            rate = -math.log(n1 / n0) / T
            lo = (0.375 * 2.0**j) ** alpha * 0.99
            hi = ((4.0 / 3.0) * 2.0**j) ** alpha * 1.01
            assert lo <= rate <= hi

    def test_temporal_order_two(self):
        grid = Grid2(64)
        f = smooth_data(grid, np.random.default_rng(2), amp=0.3)
        T = 0.1
        finals = {}
        for m in [8, 16, 32, 128]:
            params = SolveParams(alpha=1.5, n=64, t_final=T, dt=T / m)
            finals[m] = solve(f, params)[1][-1]
        e8 = lp_norm(finals[8] - finals[128], 2.0)
        e16 = lp_norm(finals[16] - finals[128], 2.0)
        e32 = lp_norm(finals[32] - finals[128], 2.0)
        assert 1.7 <= math.log2(e8 / e16) <= 2.3
        assert 1.7 <= math.log2(e16 / e32) <= 2.3

    def test_blow_up_names_step(self):
        grid = Grid2(32)
        f = smooth_data(grid, np.random.default_rng(4), amp=5e12)
        params = SolveParams(alpha=0.5, n=32, t_final=0.1, dt=0.01)
        with pytest.raises(BlowUpError) as exc:
            solve(f, params)
        assert exc.value.step == 0


class TestPicard:
    def test_zero_datum(self):
        grid = Grid2(32)
        zero = SpectralField(grid, np.zeros((32, 32), dtype=complex))
        params = SolveParams(alpha=1.5, n=32, t_final=0.1, dt=0.01, picard_depth=3)
        _, fields, distances = picard_solve(zero, params)
        assert all(d == 0.0 for d in distances)
        assert max(np.abs(f.coef).max() for f in fields) == 0.0

    def test_small_data_contracts(self):
        grid = Grid2(64)
        f = smooth_data(grid, np.random.default_rng(3), amp=0.2)
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.01, picard_depth=5)
        d = picard_solve(f, params)[2]
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
        # contraction is strongly geometric for this data
        assert d[1] / d[0] < 0.1

    def test_depth_one_is_linear_plus_duhamel(self):
        grid = Grid2(32)
        f = smooth_data(grid, np.random.default_rng(5), amp=0.3)
        params = SolveParams(alpha=1.5, n=32, t_final=0.05, dt=0.01, picard_depth=1)
        _, fields, _ = picard_solve(f, params)
        _, linear = solve(f, replace(params, nonlinear=False))
        correction = duhamel_series(linear, params)
        for k in range(len(linear)):
            expected = linear[k].coef + correction[k].coef
            assert np.abs(fields[k].coef - expected).max() == 0.0

    def test_picard_approaches_march(self):
        grid = Grid2(64)
        f = smooth_data(grid, np.random.default_rng(3), amp=0.2)
        params = SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.01, picard_depth=6)
        pic = picard_solve(f, params)[1][-1]
        direct = solve(f, SolveParams(alpha=1.5, n=64, t_final=0.1, dt=0.01))[1][-1]
        gap = lp_norm(pic - direct, 2.0)
        assert gap < 1e-6 * max(lp_norm(direct, 2.0), 1e-30)

    def test_non_contraction_raises(self):
        grid = Grid2(32)
        f = smooth_data(grid, np.random.default_rng(4), amp=30.0)
        params = SolveParams(alpha=0.5, n=32, t_final=0.5, dt=0.025, picard_depth=8)
        with pytest.raises(NonContractionError) as exc:
            picard_solve(f, params)
        d = exc.value.distances
        assert len(d) >= 4 and d[-1] > d[-2] > d[-3]

    def test_mean_free_required(self):
        grid = Grid2(32)
        f = smooth_data(grid, np.random.default_rng(6), amp=0.3)
        f.coef[0, 0] = 5.0 * grid.n**2
        params = SolveParams(alpha=1.5, n=32, t_final=0.05, dt=0.01)
        with pytest.raises(ParameterError):
            picard_solve(f, params)


class TestDivergenceForm:
    def test_random_pairs_diagonal(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = random_field(grid, rng)
            g = random_field(grid, rng)
            assert divergence_form_check(f, g, bank, 3, 3) < 1e-10

    def test_off_diagonal_levels(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        rng = np.random.default_rng(10)
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        for k, l in [(2, 3), (3, 2), (0, 1), (0, 0), (4, 4)]:
            assert divergence_form_check(f, g, bank, k, l) < 1e-10

    def test_far_levels_rejected(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        f = random_field(grid, RNG)
        with pytest.raises(ParameterError):
            divergence_form_check(f, f, bank, 1, 3)

    def test_zero_field(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        zero = SpectralField(grid, np.zeros((64, 64), dtype=complex))
        assert divergence_form_check(zero, zero, bank, 3, 3) == 0.0

    def test_single_mode_pair(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        f = pure_mode(grid, 6, 0)  # level-3 plateau
        assert divergence_form_check(f, f, bank, 3, 3) < 1e-12

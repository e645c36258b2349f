"""Bit-for-bit guards for the shared work of the march path.

The contraction ladder measures every horizon from one Duhamel sweep per
trial series and one norm matrix per difference series; the solve table
takes all its L^p norms from one transform, with p = 2 a Parseval sum that
takes none.  Each of these must reproduce, with exact ==, the per-call
definitions it replaces.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_field, smooth_profile
from sqglab.littlewood import besov_time_norm, build_bank
from sqglab.mild import SolveParams, duhamel_series, solve
from sqglab.spectral import (
    ParameterError,
    SpectralField,
    lp_norm,
    lp_norms,
    shared_grid,
)
from sqglab.uniqueness import (
    contraction_factor,
    contraction_ladder,
    contraction_norm_spec,
    riesz_low_max,
)

HORIZONS = (0.0125, 0.025, 0.05)


@pytest.fixture(scope="module")
def grid64():
    return shared_grid(64)


@pytest.fixture(scope="module")
def bank64(grid64):
    return build_bank(grid64)


def sliced_norm(fields, times, bank, spec):
    """The contraction norm of one series, computed from scratch."""
    value = besov_time_norm(fields, times, bank, spec.index, spec.time_exponent)
    if spec.riesz_low:
        value += max(riesz_low_max(f, bank) for f in fields)
    return value


def difference(a, b):
    return [fa - fb for fa, fb in zip(a, b)]


def sliced_factor(s1, s2, times, params, bank, spec):
    """(factor, numerator, denominator, degenerate) on one pre-sliced pair."""
    denominator = sliced_norm(difference(s1, s2), times, bank, spec)
    if denominator < 1e-14:
        return 0.0, 0.0, denominator, True
    image = difference(duhamel_series(s1, params), duhamel_series(s2, params))
    numerator = sliced_norm(image, times, bank, spec)
    return numerator / denominator, numerator, denominator, False


def as_tuple(res):
    return res.factor, res.numerator, res.denominator, res.degenerate


class TestLadderMatchesPerHorizon:
    # alpha = 2 is the endpoint case, p = 4 with time exponent 2; alpha = 1.25
    # adds the sup-in-time Riesz low-pass term
    @pytest.mark.parametrize("alpha", [2.0, 1.25])
    def test_bitwise_against_sliced_calls(self, grid64, bank64, alpha):
        spec = contraction_norm_spec(alpha)
        assert spec.riesz_low == (alpha < 1.5)
        if alpha == 2.0:
            assert (spec.index.p, spec.time_exponent) == (4.0, 2.0)
        params = SolveParams(alpha=alpha, n=64, t_final=HORIZONS[-1], dt=0.0025)
        theta0 = smooth_profile(grid64)
        ladder = contraction_ladder(theta0, params, bank64, HORIZONS, spec=spec)

        times, full = solve(theta0, params)
        _, linear = solve(theta0, replace(params, nonlinear=False))
        for t, res in zip(HORIZONS, ladder):
            sliced = replace(params, t_final=t)
            # the samples at times <= t, within roundoff
            cut = np.searchsorted(times, t * (1.0 + 1e-12), side="right")
            s1, s2 = full[:cut], linear[:cut]
            assert len(s1) == sliced.n_steps() + 1
            assert not res.degenerate
            assert as_tuple(res) == sliced_factor(s1, s2, times[:cut], sliced, bank64, spec)
            per_call = contraction_factor(s1, s2, sliced, bank64, spec)
            assert as_tuple(res) == as_tuple(per_call)

    def test_zero_data_degenerate_at_every_horizon(self, grid64, bank64):
        params = SolveParams(alpha=2.0, n=64, t_final=HORIZONS[-1], dt=0.0025)
        zero = SpectralField(grid64, np.zeros((64, 64), dtype=np.complex128))
        ladder = contraction_ladder(zero, params, bank64, HORIZONS)
        assert [as_tuple(r) for r in ladder] == [(0.0, 0.0, 0.0, True)] * 3

    def test_off_step_horizon_rejected(self, grid64, bank64):
        params = SolveParams(alpha=2.0, n=64, t_final=HORIZONS[-1], dt=0.0025)
        with pytest.raises(ParameterError):
            contraction_ladder(smooth_profile(grid64), params, bank64, [0.0126, 0.05])


class TestLpNorms:
    def test_one_transform_matches_each_norm(self, grid64):
        ps = (1, 2.0, 4, math.inf)
        for seed in range(4):
            f = random_field(grid64, np.random.default_rng(seed), band_limited=False)
            assert lp_norms(f, ps) == [lp_norm(f, p) for p in ps]
            # the quadrature formulas themselves, written out; p = 2 is the
            # Parseval sum over the Hermitian part of the coefficients
            w = np.abs(np.fft.ifft2(f.coef).real)
            area = grid64.cell_area
            c = f.coef
            h = 0.5 * (c + np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1))))
            energy = np.square(h.real) + np.square(h.imag)
            assert lp_norms(f, ps) == [
                float(w.sum() * area),
                float(math.sqrt(area / 64**2 * energy.sum())),
                float((np.power(w, 4).sum() * area) ** (1.0 / 4)),
                float(w.max()),
            ]
            # and the physical-space sum it replaces, to roundoff
            physical = math.sqrt(np.square(w).sum() * area)
            assert lp_norm(f, 2.0) == pytest.approx(physical, rel=1e-13, abs=0.0)

    def test_invalid_exponent_rejected(self, grid64):
        f = random_field(grid64, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            lp_norms(f, (2.0, 0.5))

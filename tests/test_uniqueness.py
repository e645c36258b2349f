"""Contraction-harness suite: exponents, ladders, twins, continuity.

Randomness-free throughout: the initial data is a fixed smooth profile,
so every measured factor is a frozen anchor from a calibration run of
this exact configuration, checked to 1e-6 relative.  Structural facts
(exponent identities, bitwise twin agreement, exact w(0) = 0, split
exactness) are asserted at machine precision.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_limited_field, pure_mode, rel_err, smooth_profile
from sqglab.littlewood import (
    BesovIndex,
    besov_norm,
    build_bank,
    s_partial,
    tilde_s,
)
from sqglab.mild import (
    BlowUpError,
    SolveParams,
    march,
    picard_solve,
    solve,
)
from sqglab.spectral import (
    ParameterError,
    SpectralField,
    lp_norm,
    semigroup_apply,
    shared_grid,
)
from sqglab.uniqueness import (
    DELTA,
    ContractionNorm,
    contraction_factor,
    contraction_ladder,
    contraction_norm_spec,
    continuity_criterion_test,
    difference_norm,
    end_point_exponent,
    exponent_identity_gap,
    high_partial,
    instant_norm,
    packet_profile,
    perturbed_datum,
    riesz_low_max,
    twin_experiments,
)

RTOL = 1e-6
HORIZONS = (0.05, 0.1, 0.2, 0.4)

LADDERS = {
    2.0: (
        8.654003429851867e-4,
        1.100954437081615e-3,
        1.253271866301013e-3,
        1.281653371311933e-3,
    ),
    1.75: (
        1.289157563087354e-3,
        1.605663783794006e-3,
        1.704413239769894e-3,
        1.739823922678199e-3,
    ),
    1.0: (
        2.309356691079316e-3,
        4.193048800955429e-3,
        6.66711069464107e-3,
        6.926697312495728e-3,
    ),
    0.75: (
        2.380443992262411e-3,
        4.455090044265587e-3,
        7.817372340804487e-3,
        1.01047167050158e-2,
    ),
}


@pytest.fixture(scope="module")
def grid128():
    return shared_grid(128)


@pytest.fixture(scope="module")
def bank128(grid128):
    return build_bank(grid128)


@pytest.fixture(scope="module")
def theta0(grid128):
    return smooth_profile(grid128)


@pytest.fixture(scope="module")
def bank512():
    return build_bank(shared_grid(512))


@pytest.fixture(scope="module")
def ladders(theta0, bank128):
    out = {}
    for alpha in LADDERS:
        params = SolveParams(alpha=alpha, n=128, t_final=0.4, dt=0.0025)
        out[alpha] = contraction_ladder(theta0, params, bank128, HORIZONS)
    return out


class TestExponentPair:
    def test_boundary_values(self):
        assert end_point_exponent(2.0) == (4.0, 2.0)
        p, q = end_point_exponent(1.75)
        assert rel_err(p, 8.0) < 1e-14
        assert rel_err(q, 8.0 / 6.0) < 1e-14

    def test_identity_gap_machine_small(self):
        for alpha in np.linspace(1.51, 2.0, 25):
            assert exponent_identity_gap(float(alpha)) <= 1e-15

    def test_exponent_ordering(self):
        for alpha in np.linspace(1.5001, 2.0, 40):
            p, q = end_point_exponent(float(alpha))
            assert 1.0 < q <= p / 2.0 < math.inf

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.5, 2.0001, 3.0])
    def test_out_of_range_rejected(self, alpha):
        with pytest.raises(ParameterError):
            end_point_exponent(alpha)

    @given(st.floats(min_value=1.5001, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugacy_property(self, alpha):
        p, q = end_point_exponent(alpha)
        assert rel_err(q, p / (p - 2.0)) < 1e-12
        # q is Hoelder conjugate to p/2: 1/q + 2/p = 1.
        assert abs(1.0 / q + 2.0 / p - 1.0) < 1e-12


class TestContractionNormSpec:
    def test_endpoint_alpha2(self):
        spec = contraction_norm_spec(2.0)
        assert spec.index == BesovIndex(-0.5, 4.0, 2.0)
        assert spec.time_exponent == 2.0
        assert spec.riesz_low is False
        assert spec.data_index == BesovIndex(-0.5, 4.0, 2.0)

    def test_endpoint_alpha175(self):
        spec = contraction_norm_spec(1.75)
        assert spec.index == BesovIndex(-0.5, 8.0, 4.0)
        assert spec.time_exponent == 4.0
        assert rel_err(spec.data_index.q, 8.0 / 6.0) < 1e-14

    def test_alpha_three_halves(self):
        spec = contraction_norm_spec(1.5)
        assert spec.index == BesovIndex(-0.5, math.inf, math.inf)
        assert spec.time_exponent == math.inf
        assert spec.riesz_low is True
        assert spec.data_index == BesovIndex(-0.5, math.inf, 1.0)

    def test_mid_range(self):
        spec = contraction_norm_spec(1.25)
        assert spec.index == BesovIndex(-0.25, math.inf, math.inf)
        assert spec.riesz_low is True
        assert spec.data_index == BesovIndex(-0.25, math.inf, math.inf)

    def test_alpha_one_defaults(self):
        spec = contraction_norm_spec(1.0)
        assert spec.index == BesovIndex(-0.25, math.inf, math.inf)
        assert spec.riesz_low is True
        assert spec.data_index == BesovIndex(0.0, math.inf, math.inf)

    def test_alpha_one_custom_regularity(self):
        spec = contraction_norm_spec(1.0, s=0.4)
        assert spec.index.s == -0.4

    def test_alpha_one_auxiliary_exponent_window(self):
        # default r = 2 needs s < 1/2; s = 0.6 puts 1/s below it.
        with pytest.raises(ParameterError):
            contraction_norm_spec(1.0, s=0.6)
        spec = contraction_norm_spec(1.0, s=0.6, r=1.5)
        assert spec.index.s == -0.6
        with pytest.raises(ParameterError):
            contraction_norm_spec(1.0, r=1.0)
        with pytest.raises(ParameterError):
            contraction_norm_spec(1.0, r=4.0)

    def test_sub_one_defaults(self):
        spec = contraction_norm_spec(0.75)
        assert spec.index == BesovIndex(-0.125, math.inf, math.inf)
        assert spec.data_index == BesovIndex(0.25, math.inf, math.inf)

    def test_sub_one_regularity_window(self):
        spec = contraction_norm_spec(0.75, s=0.2)
        assert spec.index.s == -0.2
        with pytest.raises(ParameterError):
            contraction_norm_spec(0.75, s=0.25)
        with pytest.raises(ParameterError):
            contraction_norm_spec(0.75, s=0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5])
    def test_alpha_rejected(self, alpha):
        with pytest.raises(ParameterError):
            contraction_norm_spec(alpha)

    def test_time_exponent_validated(self):
        with pytest.raises(ParameterError):
            ContractionNorm(
                index=BesovIndex(-0.5, 4.0, 2.0),
                time_exponent=0.5,
                riesz_low=False,
                data_index=BesovIndex(-0.5, 4.0, 2.0),
            )


class TestNormEvaluators:
    def test_instant_norm_homogeneous(self, theta0, bank128):
        for spec in (contraction_norm_spec(2.0), contraction_norm_spec(1.0)):
            one = instant_norm(theta0, bank128, spec)
            three = instant_norm(theta0 * 3.0, bank128, spec)
            assert rel_err(three, 3.0 * one) < 1e-12

    def test_riesz_part_vanishes_above_low_block(self, grid128, bank128):
        # psi passes nothing at radius 5 >= 4/3, so the low block is zero.
        f = pure_mode(grid128, 5, 0)
        assert riesz_low_max(f, bank128) == 0.0

    def test_riesz_part_positive_for_low_mode(self, grid128, bank128):
        f = pure_mode(grid128, 1, 0)
        assert riesz_low_max(f, bank128) > 0.1

    def test_difference_norm_zero_series(self, grid128, bank128):
        zero = SpectralField(grid128, np.zeros((128, 128), dtype=complex))
        times, fields = [0.0, 0.1, 0.2], [zero, zero, zero]
        assert difference_norm(fields, times, bank128, contraction_norm_spec(1.5)) == 0.0

    def test_difference_norm_includes_riesz_sup(self, grid128, bank128):
        f = pure_mode(grid128, 1, 0)
        zero = SpectralField(grid128, np.zeros((128, 128), dtype=complex))
        times, fields = [0.0, 0.1], [zero, f]
        spec = contraction_norm_spec(1.5)
        base = ContractionNorm(
            index=spec.index,
            time_exponent=spec.time_exponent,
            riesz_low=False,
            data_index=spec.data_index,
        )
        gap = difference_norm(fields, times, bank128, spec) - difference_norm(
            fields, times, bank128, base
        )
        assert rel_err(gap, riesz_low_max(f, bank128)) < 1e-12


class TestContractionFactor:
    @pytest.mark.parametrize("alpha", sorted(LADDERS))
    def test_frozen_ladder(self, ladders, alpha):
        measured = [res.factor for res in ladders[alpha]]
        for got, want in zip(measured, LADDERS[alpha]):
            assert rel_err(got, want) < RTOL

    @pytest.mark.parametrize("alpha", sorted(LADDERS))
    def test_strictly_decreasing_toward_zero_horizon(self, ladders, alpha):
        factors = [res.factor for res in ladders[alpha]]
        assert all(a < b for a, b in zip(factors, factors[1:]))
        assert factors[0] < 1.0

    def test_result_float_protocol(self, ladders):
        res = ladders[2.0][0]
        assert float(res) == res.factor
        assert res.degenerate is False
        assert res.numerator > 0.0 and res.denominator > 0.0

    def test_identical_inputs_degenerate(self, theta0, bank128):
        params = SolveParams(alpha=2.0, n=128, t_final=0.05, dt=0.0025)
        _, series = solve(theta0, replace(params, nonlinear=False))
        res = contraction_factor(series, series, params, bank128)
        assert res.factor == 0.0
        assert res.degenerate is True

    def test_relabeling_invariance(self, theta0, bank128):
        params = SolveParams(alpha=2.0, n=128, t_final=0.05, dt=0.0025)
        _, sol = solve(theta0, params)
        _, lin = solve(theta0, replace(params, nonlinear=False))
        ab = contraction_factor(sol, lin, params, bank128)
        ba = contraction_factor(lin, sol, params, bank128)
        assert ab.factor == ba.factor

    def test_accepts_solution_objects(self, theta0, bank128):
        # the fields solve returns are the march's own states
        params = SolveParams(alpha=2.0, n=128, t_final=0.05, dt=0.0025)
        _, sol = solve(theta0, params)
        _, lin = solve(theta0, replace(params, nonlinear=False))
        marched = [SpectralField(theta0.grid, c, theta0.real) for _, c, _ in march(theta0, params)]
        via_solution = contraction_factor(sol, lin, params, bank128)
        via_series = contraction_factor(marched, lin, params, bank128)
        assert via_solution.factor == via_series.factor

    def test_rejects_non_series(self, theta0, bank128):
        # a list that misses a step of the horizon is not its series
        params = SolveParams(alpha=2.0, n=128, t_final=0.05, dt=0.0025)
        _, lin = solve(theta0, replace(params, nonlinear=False))
        with pytest.raises(ParameterError):
            contraction_factor(lin[:-1], lin, params, bank128)

    def test_ladder_horizon_validation(self, theta0, bank128):
        params = SolveParams(alpha=2.0, n=128, t_final=0.4, dt=0.0025)
        with pytest.raises(ParameterError):
            contraction_ladder(theta0, params, bank128, [])
        with pytest.raises(ParameterError):
            contraction_ladder(theta0, params, bank128, [0.0, 0.1])


def twin_gaps(a, b, bank, spec, k=1):
    """Contraction quantity of a(t) - b(t) at the samples of a; a and b are
    the fields of two runs, b at dt/k, so its every k-th sample shares a
    time with a."""
    fine = b[::k]
    assert len(fine) == len(a)
    return np.array([instant_norm(fa - fb, bank, spec) for fa, fb in zip(a, fine)])


class TestTwinRuns:
    def test_identical_twins_bitwise_zero(self, theta0, bank128):
        params = SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005)
        (_, run), (_, rerun) = solve(theta0, params), solve(theta0, params)
        gaps = twin_gaps(run, rerun, bank128, contraction_norm_spec(1.5))
        assert gaps.max() == 0.0
        assert all(float(np.abs((a - b).coef).max()) == 0.0 for a, b in zip(run, rerun))

    def test_dt_twin_initial_zero_and_frozen_gap(self, theta0, bank128):
        params = SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005)
        gaps = twin_gaps(
            solve(theta0, params)[1],
            solve(theta0, replace(params, dt=params.dt / 2))[1],
            bank128,
            contraction_norm_spec(1.5),
            k=2,
        )
        assert gaps[0] == 0.0
        assert rel_err(gaps[-1], 4.42926998147552e-9) < RTOL

    def test_temporal_order_near_two(self, theta0, bank128):
        def twins_at(alpha):
            params = SolveParams(alpha=alpha, n=128, t_final=0.1, dt=0.005)
            return twin_experiments(theta0, params, bank128, contraction_norm_spec(alpha))

        gap, order, amplification = twins_at(1.5)
        assert rel_err(order, 2.000252016772492) < RTOL
        assert abs(order - 2.0) < 0.3
        # the fold reads the same gaps as the series twins of this class
        assert gap == 0.0
        assert rel_err(amplification, 0.6578424621578169) < RTOL
        order2 = twins_at(2.0)[1]
        assert rel_err(order2, 2.00054123542546) < RTOL
        assert abs(order2 - 2.0) < 0.3

    def test_delta_twin_amplification(self, theta0, bank128):
        params = SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005)
        spec = contraction_norm_spec(1.5)
        perturbed = perturbed_datum(theta0, bank128, spec)
        gaps = twin_gaps(solve(theta0, params)[1], solve(perturbed, params)[1], bank128, spec)
        amplification = gaps[-1] / DELTA
        assert rel_err(gaps[0], 1e-6) < 1e-9
        assert rel_err(amplification, 0.6578424621578169) < RTOL
        assert amplification <= 10.0

    def test_picard_depth_twin_converged(self, theta0, bank128):
        params = SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005)
        deeper = replace(params, picard_depth=params.picard_depth + 2)
        gaps = twin_gaps(
            picard_solve(theta0, params)[1],
            picard_solve(theta0, deeper)[1],
            bank128,
            contraction_norm_spec(1.5),
        )
        assert gaps[0] == 0.0
        # depth 4 already sits at the fixed point; two extra sweeps move
        # the series only at roundoff level.
        assert gaps[-1] < 1e-12

    def test_delta_needs_nonzero_data(self, grid128, bank128):
        zero = SpectralField(grid128, np.zeros((128, 128), dtype=complex))
        spec = contraction_norm_spec(1.5)
        with pytest.raises(ParameterError):
            perturbed_datum(zero, bank128, spec)
        # the twin fold reaches the perturbed datum before its
        # vanished-refinement-gap check, so zero data fails there
        params = SolveParams(alpha=1.5, n=128, t_final=0.01, dt=0.005)
        with pytest.raises(ParameterError, match="nonzero initial data"):
            twin_experiments(zero, params, bank128, spec)

    def test_blow_up_propagates(self, theta0, bank128):
        params = SolveParams(alpha=1.5, n=128, t_final=0.01, dt=0.005)
        with pytest.raises(BlowUpError):
            twin_experiments(theta0 * 1e13, params, bank128, contraction_norm_spec(1.5))


class TestHighLowSplit:
    # The finite ladder telescopes to the top-level lowpass envelope,
    # which equals one only on the ball of radius (3/4) * 2^J; spectra
    # confined there see the split as an exact identity.

    def test_partition_reassembles_identity(self, grid128, bank128):
        rng = np.random.default_rng(21)
        f = ball_limited_field(grid128, rng, 0.75 * 2.0**bank128.j_max)
        for j in (0, 2, bank128.j_max):
            total = s_partial(f, bank128, j) + high_partial(f, bank128, j)
            gap = lp_norm(total - f, 2)
            assert gap <= 1e-12 * lp_norm(f, 2)

    def test_matches_complement_form(self, grid128, bank128):
        rng = np.random.default_rng(22)
        f = ball_limited_field(grid128, rng, 0.75 * 2.0**bank128.j_max)
        j = 3
        gap = lp_norm(high_partial(f, bank128, j) - tilde_s(f, bank128, j), 2)
        assert gap <= 1e-12 * lp_norm(f, 2)

    def test_level_validated(self, grid128, bank128):
        f = pure_mode(grid128, 1, 0)
        with pytest.raises(ParameterError):
            high_partial(f, bank128, -1)
        with pytest.raises(ParameterError):
            high_partial(f, bank128, bank128.j_max + 1)


class TestContinuityCriterion:
    S, P = -0.5, 2.0

    def test_vanishing_tail_converges(self, bank512):
        rep = continuity_criterion_test(
            lambda j: 2.0 ** (-self.S * j) * 2.0 ** (-j), bank512, self.S, self.P, 2.0
        )
        frozen = (
            0.1670296887687538,
            0.04877314098178077,
            0.01444380138302425,
            0.004649106955871823,
        )
        for got, want in zip(rep.curve, frozen):
            assert rel_err(got, want) < RTOL
        assert rep.converged is True
        assert rep.curve[0] / rep.curve[-1] > 10.0
        assert rel_err(rep.tail, 0.01574186481571764) < RTOL

    def test_unit_tail_obstructs(self, bank512):
        rep = continuity_criterion_test(
            lambda j: 2.0 ** (-self.S * j), bank512, self.S, self.P, 2.0
        )
        frozen = (
            1.01122447596129,
            0.9897232957395827,
            0.941881175066239,
            0.5828704757342711,
        )
        for got, want in zip(rep.curve, frozen):
            assert rel_err(got, want) < RTOL
        assert rep.converged is False
        assert rep.curve.min() >= 0.5 * rep.curve[0]
        assert rep.tail > 0.9

    def test_slow_tail_decays_without_converging(self, bank512):
        rep = continuity_criterion_test(
            lambda j: 2.0 ** (-self.S * j) / j, bank512, self.S, self.P, 2.0
        )
        assert rel_err(rep.curve[0], 0.3419947686632686) < RTOL
        assert rel_err(rep.curve[-1], 0.08350811146459837) < RTOL
        assert np.all(np.diff(rep.curve) < 0)
        assert rep.converged is False

    def test_single_block_converges_fast(self, bank512):
        rep = continuity_criterion_test(
            lambda j: 1.0 if j == 3 else 0.0, bank512, self.S, self.P, 2.0
        )
        assert rep.converged is True
        assert rep.curve[-1] < 0.01 * rep.curve[0]

    def test_zero_data_trivially_converged(self, bank512):
        rep = continuity_criterion_test(
            lambda j: 0.0, bank512, self.S, self.P, 2.0
        )
        assert rep.converged is True
        assert rep.curve.max() == 0.0

    def test_packet_profile_realizes_law(self, bank512):
        law = [2.0 ** (0.5 * j) for j in bank512.levels()]
        f = packet_profile(bank512, 2.0, law)
        from sqglab.littlewood import block_norms

        norms = block_norms(f, bank512, 2.0)
        for j in bank512.levels():
            ratio = norms[j] / law[j - 1]
            assert 0.6 < ratio < 1.5

    def test_packet_profile_validates_length(self, bank512):
        with pytest.raises(ParameterError):
            packet_profile(bank512, 2.0, [1.0, 2.0])

    def test_times_validated(self, bank512):
        with pytest.raises(ParameterError):
            continuity_criterion_test(
                lambda j: 1.0, bank512, self.S, self.P, 2.0, times=(1e-4, 1e-1)
            )
        with pytest.raises(ParameterError):
            continuity_criterion_test(
                lambda j: 1.0, bank512, self.S, self.P, 2.0, times=(1e-1, 0.0)
            )
        with pytest.raises(ParameterError):
            continuity_criterion_test(lambda j: 1.0, bank512, self.S, self.P, 2.5)


def nonlinear_smallness(times, fields, alpha, bank, idx):
    """Running sup of || theta - exp(-t Lambda^alpha) theta0 || over [0, T].

    Takes a run of dissipation alpha as solve returns it.  Returns the
    positive sample times and the running sup of the Besov distance to
    the bare semigroup evolution; read toward shrinking T the curve is
    monotone and vanishes for a genuinely mild solution.
    """
    theta0 = fields[0]
    sups, running = [], 0.0
    for t, f in zip(times[1:], fields[1:]):
        gap = besov_norm(f - semigroup_apply(theta0, alpha, float(t)), bank, idx)
        running = max(running, gap)
        sups.append(running)
    return times[1:].copy(), np.array(sups)


class TestNonlinearSmallness:
    IDX = BesovIndex(-0.5, math.inf, math.inf)

    def test_frozen_curve_and_small_ratio(self, theta0, bank128):
        sol = solve(theta0, SolveParams(alpha=1.5, n=128, t_final=0.2, dt=0.00125))
        times, sups = nonlinear_smallness(*sol, 1.5, bank128, self.IDX)
        assert times[0] > 0.0
        assert rel_err(sups[0], 6.47997481943769e-7) < RTOL
        assert rel_err(sups[-1], 1.428025627522591e-5) < RTOL
        assert sups[0] / sups[-1] < 0.1

    def test_running_sup_monotone(self, theta0, bank128):
        sol = solve(theta0, SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005))
        _, sups = nonlinear_smallness(*sol, 1.5, bank128, self.IDX)
        assert np.all(np.diff(sups) >= 0.0)

    def test_linear_run_vanishes(self, theta0, bank128):
        sol = solve(
            theta0,
            SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005, nonlinear=False),
        )
        _, sups = nonlinear_smallness(*sol, 1.5, bank128, self.IDX)
        assert sups.max() < 1e-14

    def test_zero_data_vanishes(self, grid128, bank128):
        zero = SpectralField(grid128, np.zeros((128, 128), dtype=complex))
        sol = solve(zero, SolveParams(alpha=1.5, n=128, t_final=0.1, dt=0.005))
        _, sups = nonlinear_smallness(*sol, 1.5, bank128, self.IDX)
        assert sups.max() == 0.0

"""Estimate-verification suite: reports, uniformity spreads, frozen anchors.

The randomized verifiers are deterministic given their seed, so the sups
and spreads below are frozen anchor values from a calibration run of this
exact configuration; drift beyond 1e-6 relative means the experiment
changed, not the inequality.  Alongside the anchors every suite carries
structural tests with closed-form expectations (single modes, disjoint
shells, constant velocities) that hold to near machine precision.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sqglab.lab
from conftest import pure_mode, rel_err, whole_symbol
from sqglab.lab import (
    ENERGY_FLOOR,
    MAX_THREADS,
    MAX_TRIALS,
    EstimateReport,
    _run_trials,
    _steady_duhamel_norms,
    bilinear_diagonal_sum,
    duhamel_exponent,
    duhamel_test_datum,
    endpoint_norm_indices,
    level_spread,
    low_high_paraproduct,
    lowpass_commutator_family,
    random_besov_field,
    riesz_commutator_rhs_terms,
    riesz_lowpass_commutator,
    velocity_gradient_components,
    verify_bernstein,
    verify_bilinear,
    verify_commutator_advection,
    verify_commutator_riesz,
    verify_duhamel_bound,
    verify_multiplier_bound,
    verify_paraproduct,
    verify_semigroup_decay,
)
from sqglab.littlewood import block, block_norms, build_bank
from sqglab.spectral import (
    Grid2,
    ParameterError,
    SpectralField,
    dealiased_coef,
    gradient,
    inverse_lambda,
    lp_norm,
)

RTOL = 1e-6


@pytest.fixture(scope="module")
def bank128h():
    return build_bank(Grid2(128, math.pi / 2))


@pytest.fixture(scope="module")
def bank256h():
    return build_bank(Grid2(256, math.pi / 2))


@pytest.fixture(scope="module")
def bank128():
    return build_bank(Grid2(128))


@pytest.fixture(scope="module")
def bank256():
    return build_bank(Grid2(256))


# ---------------------------------------------------------------------------
# Report container and spread reduction
# ---------------------------------------------------------------------------


class TestEstimateReport:
    def test_fields_roundtrip(self):
        r = EstimateReport(
            lemma_id="demo",
            trials=3,
            rows=[(0, 2, 0.5), (1, 2, 1.5), (2, 2, 1.0)],
            per_level_sup={2: 1.5},
            summary={"p": 2},
            skipped=1,
        )
        # sup_constant and ratios are read from the rows' last column
        assert r.sup_constant == 1.5
        assert r.skipped == 1
        assert r.ratios.dtype == np.float64
        assert list(r.ratios) == [0.5, 1.5, 1.0]
        assert EstimateReport("demo", 1, [], {}, {}).sup_constant == 0.0

    def test_rejects_nonfinite_ratio(self):
        with pytest.raises(ParameterError):
            EstimateReport("demo", 1, [(0, 0, np.nan)], {}, {})

    def test_rejects_negative_ratio(self):
        with pytest.raises(ParameterError):
            EstimateReport("demo", 1, [(0, 0, -0.1)], {}, {})

    def test_level_spread(self):
        a = EstimateReport("x", 1, [(0, 0, 1.0)], {2: 1.0, 3: 2.0}, {})
        b = EstimateReport("y", 1, [(0, 0, 1.0)], {2: 4.0}, {})
        assert level_spread([a, b]) == 4.0
        assert level_spread([a, b], lo=3) == 1.0
        assert level_spread([a], lo=2, hi=2) == 1.0

    def test_level_spread_empty_range(self):
        a = EstimateReport("x", 1, [(0, 0, 1.0)], {2: 1.0}, {})
        with pytest.raises(ParameterError):
            level_spread([a], lo=10)


class TestRandomBesovField:
    def test_block_profile_and_mean(self, bank128):
        f = random_besov_field(bank128, np.random.default_rng(0), s=0.5)
        assert f.coef[0, 0] == 0.0
        norms = block_norms(f, bank128, 2)
        for j in range(1, bank128.j_max + 1):
            # adjacent-filter overlap perturbs the exact dyadic law O(1)
            assert 0.6 < norms[j] / 2.0 ** (-0.5 * j) < 1.5

    def test_deterministic_given_seed(self, bank128):
        f = random_besov_field(bank128, np.random.default_rng(3), s=-0.25)
        g = random_besov_field(bank128, np.random.default_rng(3), s=-0.25)
        assert np.array_equal(f.coef, g.coef)


# ---------------------------------------------------------------------------
# Bernstein gradient / inverse-derivative families
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bernstein_reports(bank128h, bank256h):
    out = {}
    for p in (2.0, 4.0, math.inf):
        out[p] = [
            verify_bernstein(bank, p, levels=range(2, 8), trials=20, seed=11)
            for bank in (bank128h, bank256h)
        ]
    return out


class TestBernstein:
    def test_p2_gradient_below_annulus_top(self, bernstein_reports):
        for r in bernstein_reports[2.0]:
            assert r.summary["gradient_sup"] <= 4.0 / 3.0 + 1e-9

    def test_frozen_sups(self, bernstein_reports):
        frozen = {
            2.0: (0.9995887990753278, 0.9962760690957210,
                  1.554369367701318, 1.597758855070309),
            4.0: (0.9991786107942647, 0.9926339741259020,
                  1.591474004791900, 1.582657444335650),
            math.inf: (0.9721133806500106, 0.9203490610759915,
                       1.581110151879291, 1.574950731615060),
        }
        for p, (g128, g256, i128, i256) in frozen.items():
            r128, r256 = bernstein_reports[p]
            assert rel_err(r128.summary["gradient_sup"], g128) < RTOL
            assert rel_err(r256.summary["gradient_sup"], g256) < RTOL
            assert rel_err(r128.summary["inverse_sup"], i128) < RTOL
            assert rel_err(r256.summary["inverse_sup"], i256) < RTOL

    def test_spread_across_levels_and_resolutions(self, bernstein_reports):
        frozen = {2.0: 1.597758855070309, 4.0: 1.591474004791900,
                  math.inf: 1.581110151879291}
        for p, reports in bernstein_reports.items():
            spread = level_spread(reports, 2, 7)
            assert spread < 3.0
            assert rel_err(spread, frozen[p]) < RTOL

    def test_no_skips_and_full_count(self, bernstein_reports):
        for reports in bernstein_reports.values():
            for r in reports:
                assert r.skipped == 0
                assert len(r.ratios) == 20 * 6 * 2
                assert set(r.per_level_sup) == set(range(2, 8))

    def test_level_validation(self, bank128h):
        with pytest.raises(ParameterError):
            verify_bernstein(bank128h, 2.0, levels=[0], trials=1, seed=0)
        with pytest.raises(ParameterError):
            verify_bernstein(bank128h, 2.0, levels=[bank128h.j_max + 1], trials=1, seed=0)

    def test_single_mode_ratios_exact(self, bank256):
        # mode (11, 0) sits on the level-4 plateau: ratios are |k| / 2^j
        assert whole_symbol(bank256, 4)[11, 0] == 1.0
        f = pure_mode(bank256.grid, 11, 0)
        piece = block(f, bank256, 4)
        base = lp_norm(piece, 2)
        grad = max(lp_norm(gradient(piece, 0), 2), lp_norm(gradient(piece, 1), 2))
        inv = lp_norm(inverse_lambda(piece), 2)
        assert rel_err(grad / (2.0**4 * base), 11.0 / 16.0) < 1e-12
        assert rel_err(2.0**4 * inv / base, 16.0 / 11.0) < 1e-12


# ---------------------------------------------------------------------------
# Semigroup decay
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def semigroup_reports(bank128, bank256):
    return {
        alpha: [
            verify_semigroup_decay(bank, alpha, 2.0, levels=bank.levels(), trials=10, seed=7)
            for bank in (bank128, bank256)
        ]
        for alpha in (1.0, 2.0)
    }


class TestSemigroupDecay:
    def test_decay_never_slower_than_envelope(self, semigroup_reports):
        for reports in semigroup_reports.values():
            for r in reports:
                assert r.sup_constant <= 1.0 + 1e-12

    def test_frozen_sups(self, semigroup_reports):
        frozen = {1.0: (0.9271182390278658, 0.9277654231342412),
                  2.0: (0.9208780885508233, 0.9198375874203653)}
        for alpha, (s128, s256) in frozen.items():
            r128, r256 = semigroup_reports[alpha]
            assert rel_err(r128.sup_constant, s128) < RTOL
            assert rel_err(r256.sup_constant, s256) < RTOL

    def test_fitted_exponent_between_floor_and_top(self, semigroup_reports):
        frozen = {
            1.0: (0.6457823615263268, 0.7329226529289489),
            2.0: (0.4199861262262561, 0.5352112002101828),
        }
        for alpha, reports in semigroup_reports.items():
            floor = (3.0 / 8.0) ** alpha
            fit_min = min(r.summary["c_fit_min"] for r in reports)
            fit_max = max(r.summary["c_fit_max"] for r in reports)
            assert fit_min > floor
            assert fit_max < 1.0
            assert rel_err(fit_min, frozen[alpha][0]) < RTOL
            assert rel_err(fit_max, frozen[alpha][1]) < RTOL

    def test_spread_near_one(self, semigroup_reports):
        frozen = {1.0: 1.021721110726247, 2.0: 1.030334495762912}
        for alpha, reports in semigroup_reports.items():
            spread = level_spread(reports, 2)
            assert spread < 3.0
            assert rel_err(spread, frozen[alpha]) < RTOL

    def test_vanishing_time_gives_unit_ratio(self, bank128):
        r = verify_semigroup_decay(bank128, 2.0, 2.0, taus=(1e-10,), trials=2, seed=1)
        assert abs(r.sup_constant - 1.0) < 1e-8

    def test_alpha_validation(self, bank128):
        for alpha in (0.0, 2.5, -1.0):
            with pytest.raises(ParameterError):
                verify_semigroup_decay(bank128, alpha, 2.0, trials=1, seed=0)


# ---------------------------------------------------------------------------
# Low-high paraproduct
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def paraproduct_reports(bank128, bank256):
    return [
        verify_paraproduct(bank, s=-0.5, eps=0.25, p=4.0, q=2.0, trials=30, seed=3)
        for bank in (bank128, bank256)
    ]


class TestParaproduct:
    def test_frozen_sups_and_spread(self, paraproduct_reports):
        r128, r256 = paraproduct_reports
        assert rel_err(r128.sup_constant, 0.2454639337308060) < RTOL
        assert rel_err(r256.sup_constant, 0.2329911436088057) < RTOL
        spread = level_spread(paraproduct_reports, 2, 5)
        assert spread < 3.0
        assert rel_err(spread, 1.498681873411513) < RTOL
        assert r128.skipped == 0 and r256.skipped == 0

    def test_zero_low_factor_annihilates(self, bank128):
        zero = SpectralField(bank128.grid, np.zeros((128, 128), complex))
        g = random_besov_field(bank128, np.random.default_rng(2))
        out = low_high_paraproduct(zero, g, bank128)
        assert lp_norm(out, 2) == 0.0

    def test_output_respects_support_arithmetic(self, bank256):
        # cos(5 x1) * cos(20 x1) has spectrum exactly {15, 25}, outside
        # block 2; with wide annuli random fields leak into distant blocks
        # through the exponential filter tails, so the sharp check needs
        # single modes
        f = pure_mode(bank256.grid, 5, 0)
        g = pure_mode(bank256.grid, 20, 0)
        out = low_high_paraproduct(f, g, bank256)
        norms = block_norms(out, bank256, 4.0)
        assert norms[5] > 0.0
        assert norms[2] < 1e-13 * norms.max()

    def test_random_field_distant_blocks_suppressed(self, bank256):
        # the tail leakage itself stays many orders below the carrying shell
        rng = np.random.default_rng(4)
        f = random_besov_field(bank256, rng)
        g_shell = block(random_besov_field(bank256, rng), bank256, 5)
        out = low_high_paraproduct(f, g_shell, bank256)
        norms = block_norms(out, bank256, 4.0)
        assert norms[2] < 1e-6 * norms.max()
        assert norms[0] < 1e-14 * norms.max()

    # the verifier's default box, and a tiny one whose low levels are empty
    @pytest.mark.parametrize("n, box", [(128, math.pi / 2), (32, 1e-272)])
    def test_bits_match_the_s_partial_construction(self, n, box):
        bank = build_bank(Grid2(n, box))
        rng = np.random.default_rng(6)
        f = random_besov_field(bank, rng, s=0.25)
        g = random_besov_field(bank, rng, s=-0.25)
        # S_{l-2} f through the sum of the whole symbols of levels 0..l-2
        want = np.zeros((n, n), dtype=np.complex128)
        for l in range(2, bank.j_max + 1):
            low_sym = sum(whole_symbol(bank, k) for k in range(l - 1))
            low = SpectralField(bank.grid, f.coef * low_sym).physical()
            want += dealiased_coef(bank.grid, low * block(g, bank, l).physical())
        got = low_high_paraproduct(f, g, bank).coef
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_eps_validation(self, bank128):
        with pytest.raises(ParameterError):
            verify_paraproduct(bank128, s=-0.5, eps=0.0, p=4.0, q=2.0, trials=1, seed=0)


class TestNoPerLevelData:
    # every block of a 1e-272 box lies below the energy floor, so a verdict
    # read from the per-level spread has nothing to read
    @pytest.mark.parametrize(
        "verify, args",
        [
            (verify_paraproduct, dict(s=-0.5, eps=0.25, p=4.0, q=2.0)),
            (verify_multiplier_bound, dict(s=-0.5, q=math.inf)),
            (verify_bernstein, dict(p=4.0)),
        ],
        ids=["paraproduct", "velocity-multiplier", "bernstein-p4"],
    )
    def test_verifier_refuses(self, verify, args):
        bank = build_bank(Grid2(32, 1e-272))
        with pytest.raises(ParameterError, match="no per-level data"):
            verify(bank, **args, trials=2, seed=1)


# ---------------------------------------------------------------------------
# Level-diagonal bilinear sum
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bilinear_reports(bank128, bank256):
    return [
        verify_bilinear(bank, s=-0.5, s_prime=-0.5, p=4.0, q=2.0, trials=30, seed=5)
        for bank in (bank128, bank256)
    ]


class TestBilinear:
    def test_frozen_sups_and_spread(self, bilinear_reports):
        r128, r256 = bilinear_reports
        assert rel_err(r128.sup_constant, 0.1824171719750437) < RTOL
        assert rel_err(r256.sup_constant, 0.2089707913489032) < RTOL
        spread = level_spread(bilinear_reports, 2, 5)
        assert spread < 3.0
        assert rel_err(spread, 1.241629798559340) < RTOL

    def test_endpoint_variant_frozen(self, bank128):
        r = verify_bilinear(bank128, s=-0.5, s_prime=-0.5, p=4.0, q=2.0,
                            trials=10, seed=5, endpoint=True)
        assert rel_err(r.sup_constant, 0.04019974065777535) < RTOL

    def test_exponent_validation(self, bank128):
        with pytest.raises(ParameterError):
            verify_bilinear(bank128, s=-0.5, s_prime=-0.5, p=0.5, trials=1, seed=0)
        with pytest.raises(ParameterError):
            verify_bilinear(bank128, s=-2.0, s_prime=-0.5, p=4.0, trials=1, seed=0)

    def test_disjoint_shells_annihilate(self, bank256h):
        # f lives on shell 3 (blocks 2..4), g on shell 8 (blocks 7..8):
        # every |k-l|<=1 pair has a vanishing factor
        rng = np.random.default_rng(6)
        f = block(random_besov_field(bank256h, rng), bank256h, 3)
        g = block(random_besov_field(bank256h, rng), bank256h, 8)
        total = bilinear_diagonal_sum(f, g, bank256h)
        scale = lp_norm(f, 2) * lp_norm(g, 2)
        assert lp_norm(total, 2) < 1e-12 * scale


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


class TestCommutators:
    def test_frozen_advection_sups(self, bank128, bank256):
        frozen = {128: 0.2584811150534517, 256: 0.2011928547022646}
        reports = []
        for bank in (bank128, bank256):
            r = verify_commutator_advection(bank, trials=20, seed=9)
            reports.append(r)
            assert rel_err(r.sup_constant, frozen[bank.grid.n]) < RTOL
        spread = level_spread(reports, 2, 5)
        assert spread < 3.0
        assert rel_err(spread, 2.159328854609283) < RTOL

    def test_frozen_riesz_sups(self, bank128, bank256):
        frozen = {128: 0.04757104454979820, 256: 0.03580064903673992}
        for bank in (bank128, bank256):
            r = verify_commutator_riesz(bank, trials=20, seed=9)
            assert rel_err(r.sup_constant, frozen[bank.grid.n]) < RTOL

    def test_skipped_trial_keeps_row_labels(self):
        # on a 5.5e-14 box seed 1 draws one trial under the energy floor;
        # every kept row still names its own trial and level 0
        r = verify_commutator_advection(build_bank(Grid2(32, 5.5e-14)), trials=8, seed=1)
        assert r.skipped == 1
        assert [j for _, j, _ in r.rows] == [0] * 7
        assert [k for k, _, _ in r.rows] == [0, 2, 3, 4, 5, 6, 7]

    def test_constant_velocity_commutes_with_filters(self, bank128):
        grid = bank128.grid
        n = grid.n
        ones = np.zeros((n, n), dtype=np.complex128)
        ones[0, 0] = 0.7 * n * n
        u1 = SpectralField(grid, ones)
        u2 = SpectralField(grid, -0.3 * ones)
        theta = random_besov_field(bank128, np.random.default_rng(8))
        family = lowpass_commutator_family(u1, u2, theta, bank128)
        g1, g2 = gradient(theta, 0), gradient(theta, 1)
        scale = max(lp_norm(g1, math.inf), lp_norm(g2, math.inf))
        for piece in family:
            assert lp_norm(piece, math.inf) < 1e-12 * scale

    # traced peak of a single-thread advection-commutator run at n = 64,
    # above its start, in units of one n-by-n complex128 array: 13.7 when
    # one commutator and one gradient are alive at a time, 18.2 when the
    # trial held its whole family and all six gradients
    def test_traced_peak(self):
        bank = build_bank(Grid2(64))

        def run():
            verify_commutator_advection(bank, trials=2, seed=1, threads=1)

        run()  # warm the symbol caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 16.0 * 64**2 * 16

    def test_riesz_commutator_zero_argument(self, bank128):
        f = random_besov_field(bank128, np.random.default_rng(9))
        zero = SpectralField(bank128.grid, np.zeros((128, 128), complex))
        c1, c2 = riesz_lowpass_commutator(f, zero, bank128)
        assert lp_norm(c1, 2) == 0.0
        assert lp_norm(c2, 2) == 0.0

    def test_rhs_term_groups(self, bank128):
        f = random_besov_field(bank128, np.random.default_rng(10))
        g = random_besov_field(bank128, np.random.default_rng(11))
        terms = riesz_commutator_rhs_terms(f, g, bank128)
        assert set(terms) == {
            "low_g_high_f", "low_low", "low_f_first_g",
            "first_f_low_g", "near_diagonal",
        }
        assert all(v >= 0.0 for v in terms.values())
        nf = block_norms(f, bank128, math.inf)
        ng = block_norms(g, bank128, math.inf)
        assert rel_err(terms["low_low"], nf[0] * ng[0]) < 1e-12


# ---------------------------------------------------------------------------
# Velocity-gradient multiplier
# ---------------------------------------------------------------------------


class TestMultiplier:
    def test_frozen_sups_and_spread(self, bank128, bank256):
        frozen = {128: 0.5563055310332862, 256: 0.5459802955105690}
        reports = []
        for bank in (bank128, bank256):
            r = verify_multiplier_bound(bank, s=-0.5, q=2.0, trials=50, seed=13)
            reports.append(r)
            assert rel_err(r.sup_constant, frozen[bank.grid.n]) < RTOL
            assert r.skipped == 0
        spread = level_spread(reports, 2, 5)
        assert spread < 3.0
        assert rel_err(spread, 1.445357721545270) < RTOL

    def test_single_mode_symbols(self, bank256):
        # f = cos(11 x1): velocity is purely the second component, and
        # d1 u2 = -11 cos(11 x1); the other three components vanish
        f = pure_mode(bank256.grid, 11, 0)
        comps = velocity_gradient_components(f)
        assert lp_norm(comps[0], math.inf) < 1e-12
        assert lp_norm(comps[1], math.inf) < 1e-12
        assert rel_err(lp_norm(comps[2], math.inf), 11.0) < 1e-12
        assert lp_norm(comps[3], math.inf) < 1e-12


# ---------------------------------------------------------------------------
# Duhamel smoothing
# ---------------------------------------------------------------------------


class TestDuhamelScaling:
    def test_exponent_arithmetic(self):
        assert duhamel_exponent(2.0) == 0.25
        assert duhamel_exponent(1.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert duhamel_exponent(1.75) == pytest.approx(1.0 / 3.5, rel=1e-15)
        assert duhamel_exponent(1.2) == pytest.approx(2.0 - 2.0 / 1.2, rel=1e-15)
        assert duhamel_exponent(1.0) == 0.5
        assert duhamel_exponent(0.8) == 0.5

    def test_endpoint_indices(self):
        assert endpoint_norm_indices(2.0) == (4.0, 2.0, -0.5)
        p, q, s = endpoint_norm_indices(1.75)
        assert (p, s) == (8.0, -0.5) and q == pytest.approx(8.0 / 6.0)
        assert endpoint_norm_indices(1.5) == (math.inf, 1.0, -0.5)
        assert endpoint_norm_indices(1.2) == (math.inf, math.inf, pytest.approx(-0.2))
        with pytest.raises(ParameterError):
            endpoint_norm_indices(2.5)

    def test_datum_block_profile(self, bank256):
        theta = duhamel_test_datum(bank256, 4.0, s=-0.5)
        norms = block_norms(theta, bank256, 4.0)
        top = bank256.j_max - 1
        for j in range(2, top + 1):
            assert 0.7 < norms[j] / 2.0 ** (0.5 * j) < 1.3
        js = np.arange(2, top + 1)
        slope = np.polyfit(js, np.log2(norms[2 : top + 1]), 1)[0]
        assert abs(slope - 0.5) < 0.15

    def test_datum_validation(self, bank256):
        with pytest.raises(ParameterError):
            duhamel_test_datum(bank256, 4.0, top=0)
        with pytest.raises(ParameterError):
            duhamel_test_datum(bank256, 4.0, top=bank256.j_max + 1)

    def test_frozen_slopes_in_band(self, bank256):
        frozen = {2.0: 0.2906770718212571, 1.75: 0.2698364733509873,
                  1.5: 0.2762255572290863}
        for alpha, anchor in frozen.items():
            p, q, s = endpoint_norm_indices(alpha)
            theta = duhamel_test_datum(bank256, p, s=s)
            r = verify_duhamel_bound(alpha, theta, bank256)
            slope = r.summary["slope"]
            assert rel_err(slope, anchor) < RTOL
            assert abs(slope - duhamel_exponent(alpha)) < 0.2

    def test_bound_ratio_stable_over_horizons(self, bank256):
        frozen = {2.0: (0.1793605678088060, 0.1901672427655159),
                  1.5: (0.1445856401654116, 0.1505394191285722)}
        for alpha, (lo, hi) in frozen.items():
            p, q, s = endpoint_norm_indices(alpha)
            theta = duhamel_test_datum(bank256, p, s=s)
            r = verify_duhamel_bound(alpha, theta, bank256)
            assert rel_err(r.ratios.min(), lo) < RTOL
            assert rel_err(r.ratios.max(), hi) < RTOL
            assert np.ptp(r.ratios) / r.ratios.mean() < 0.1

    def test_deeper_grid_consistent(self):
        bank512 = build_bank(Grid2(512))
        theta = duhamel_test_datum(bank512, 4.0, s=-0.5)
        r = verify_duhamel_bound(2.0, theta, bank512)
        assert rel_err(r.summary["slope"], 0.2767656405448415) < RTOL
        assert abs(r.summary["slope"] - 0.2906770718212571) < 0.05

    def test_zero_data_zero_ratios(self, bank256):
        zero = SpectralField(bank256.grid, np.zeros((256, 256), complex))
        r = verify_duhamel_bound(2.0, zero, bank256)
        assert r.sup_constant == 0.0

    def test_steady_norm_zero_horizon_limit(self, bank256):
        theta = duhamel_test_datum(bank256, 4.0)
        (small,) = _steady_duhamel_norms(theta, 2.0, (1e-12,), 4.0)
        assert small < 1e-9

    def test_horizon_validation(self, bank256, bank128):
        theta = duhamel_test_datum(bank256, 4.0)
        with pytest.raises(ParameterError):
            verify_duhamel_bound(2.0, theta, bank256, horizons=(0.1, 0.05))
        with pytest.raises(ParameterError):
            verify_duhamel_bound(2.0, theta, bank256, horizons=(-0.1, 0.05))
        with pytest.raises(ParameterError):
            verify_duhamel_bound(2.0, theta.physical(), bank256)
        shallow = duhamel_test_datum(bank128, 4.0)
        with pytest.raises(ParameterError):
            verify_duhamel_bound(2.0, shallow, bank128)


# ---------------------------------------------------------------------------
# Concurrency determinism
# ---------------------------------------------------------------------------


class TestThreading:
    @pytest.mark.parametrize(
        "trials, threads",
        [(MAX_TRIALS + 1, 1), (10**9, 1), (0, 1), (1, MAX_THREADS + 1), (1, 10**6), (1, 0)],
    )
    def test_counts_outside_the_budget_refused_first(self, trials, threads, monkeypatch):
        # refused before a child seed is spawned or a thread started
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused run reached the trial loop")

        monkeypatch.setattr(np.random, "SeedSequence", unreachable)
        monkeypatch.setattr(sqglab.lab, "ThreadPoolExecutor", unreachable)
        with pytest.raises(ParameterError, match="must lie in"):
            _run_trials(trials, 0, unreachable, threads)

    @pytest.mark.parametrize(
        "verify, kwargs, message",
        [
            (verify_bernstein, dict(p=0.5), "exponent p must be >= 1 or inf, got 0.5"),
            (verify_semigroup_decay, dict(alpha=3.0, p=2.0), "alpha must lie in (0, 2], got 3.0"),
            (verify_semigroup_decay, dict(alpha=1.0, p=0.5),
             "exponent p must be >= 1 or inf, got 0.5"),
            # the typed q, not the 2 q of the split factors
            (verify_paraproduct, dict(s=-0.5, eps=0.25, p=4.0, q=0.4),
             "exponent q must be >= 1 or inf, got 0.4"),
            (verify_bilinear, dict(s=-0.5, s_prime=-0.5, p=4.0, q=0.4),
             "exponent q must be >= 1 or inf, got 0.4"),
            (verify_bilinear, dict(s=-0.5, s_prime=-0.5, p=0.5),
             "exponent p must be >= 1 or inf, got 0.5"),
            (verify_multiplier_bound, dict(s=-0.5, q=0.5),
             "exponent q must be >= 1 or inf, got 0.5"),
        ],
    )
    def test_values_refused_before_any_trial(self, bank128h, monkeypatch, verify, kwargs, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused run drew a field")

        monkeypatch.setattr(sqglab.lab, "random_besov_field", unreachable)
        with pytest.raises(ParameterError) as caught:
            verify(bank128h, **kwargs, trials=2, seed=1)
        assert str(caught.value) == message

    def test_bernstein_threaded_identical(self, bank128h):
        a = verify_bernstein(bank128h, 2.0, levels=range(2, 5), trials=6,
                             seed=21, threads=1)
        b = verify_bernstein(bank128h, 2.0, levels=range(2, 5), trials=6,
                             seed=21, threads=3)
        assert np.array_equal(a.ratios, b.ratios)
        assert a.per_level_sup == b.per_level_sup

    def test_multiplier_threaded_identical(self, bank128):
        a = verify_multiplier_bound(bank128, s=-0.5, q=2.0, trials=8,
                                    seed=17, threads=1)
        b = verify_multiplier_bound(bank128, s=-0.5, q=2.0, trials=8,
                                    seed=17, threads=2)
        assert np.array_equal(a.ratios, b.ratios)

"""Tests for the frequency-bump divergence constructions."""

import collections
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import counterexamples
from sqglab.cli import main
from sqglab.counterexamples import (
    A1_FIRST_TERMS,
    BUMP_PLATEAU,
    BUMP_SUPPORT,
    RefinementError,
    a3_lower_sum,
    bump_coefficients,
    bump_profile,
    lower_bound_sum,
    prop_a1_pairings,
    prop_a3_product_norms,
    symmetrized_magnitude_series,
)
from sqglab.littlewood import annulus_profile
from sqglab.spectral import ParameterError


class TestBumpProfile:
    def test_plateau_and_tail_exact(self):
        assert bump_profile(0.0) == 1.0
        assert bump_profile(BUMP_PLATEAU) == 1.0
        assert bump_profile(BUMP_SUPPORT) == 0.0
        assert bump_profile(1.0) == 0.0

    def test_transition_strictly_inside(self):
        width = BUMP_SUPPORT - BUMP_PLATEAU
        r = np.linspace(BUMP_PLATEAU + 0.05 * width, BUMP_SUPPORT - 0.05 * width, 41)
        vals = bump_profile(r)
        assert np.all(vals > 0.0)
        assert np.all(vals < 1.0)
        assert np.all(np.diff(vals) < 0.0)


class TestBumpCoefficients:
    def test_coefficient_law(self):
        expected = [2.0**0.5, 2.0 / 4.0, 2.0**1.5 / 9.0]
        assert np.allclose(bump_coefficients(-0.5, 3), expected, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bump_coefficients(0.0, 3)
        with pytest.raises(ParameterError):
            bump_coefficients(0.5, 3)
        with pytest.raises(ParameterError):
            bump_coefficients(-0.5, -1)


class TestLowerBoundSums:
    def test_single_term_closed_forms(self):
        assert abs(lower_bound_sum(-0.5, 1) - 2.0) < 1e-15
        assert abs(a3_lower_sum(-0.75, 1) - math.sqrt(2.0)) < 1e-15
        assert lower_bound_sum(-0.5, 0) == 0.0
        assert a3_lower_sum(-0.5, 0) == 0.0

    def test_against_fsum(self):
        expected = math.fsum(2.0**n / n**4 for n in range(1, 13))
        assert abs(lower_bound_sum(-0.5, 12) - expected) < 1e-14

    def test_a3_boundary_converges_to_zeta_four(self):
        target = math.pi**4 / 90.0
        val = a3_lower_sum(-0.5, 50)
        assert abs(val - target) / target < 0.01
        assert abs(val - target) / target < 1e-5

    def test_a3_divergent_ratio_approaches_root_two(self):
        ratio = a3_lower_sum(-0.75, 100) / a3_lower_sum(-0.75, 99)
        assert abs(ratio - math.sqrt(2.0)) / math.sqrt(2.0) < 0.05

    def test_single_product_ratio_approaches_two(self):
        ratio = lower_bound_sum(-0.5, 200) / lower_bound_sum(-0.5, 199)
        assert abs(ratio - 2.0) / 2.0 < 0.05
        # at shallow truncation the polynomial factor still drags the ratio
        shallow = lower_bound_sum(-0.5, 12) / lower_bound_sum(-0.5, 11)
        assert abs(shallow - 1.0670) < 5e-4


class TestSinglePairing:
    def test_frozen_value(self):
        value, _ = prop_a1_pairings(-0.5, 12)[0][-1]
        assert abs(value - 5.706510472145511e-04) / 5.7065e-04 < 1e-10

    def test_increments_match_summation_oracle(self):
        # the quadrature increments are c_n^2 I_n with I_n nearly constant,
        # so dividing by the oracle increments c_n^2 must flatten them
        _, terms, _ = reference_pairing(-0.5, 12, "single")
        flattened = terms / bump_coefficients(-0.5, 12) ** 2
        spread = flattened.max() / flattened.min() - 1.0
        assert spread < 1e-3

    def test_successive_ratios_match_oracle(self):
        _, terms, _ = reference_pairing(-0.5, 12, "single")
        partial = np.cumsum(terms)
        oracle = np.array([lower_bound_sum(-0.5, k) for k in range(1, 13)])
        q_ratio = partial[1:] / partial[:-1]
        s_ratio = oracle[1:] / oracle[:-1]
        assert np.max(np.abs(q_ratio - s_ratio)) < 1e-3

    def test_increments_grow_past_the_dip(self):
        # terms c_n^2 I_n dip near n = 5 then grow geometrically
        _, terms, _ = reference_pairing(-0.5, 12, "single")
        assert np.all(terms > 0.0)
        assert np.all(np.diff(terms[5:]) > 0.0)

    def test_refinement_error_when_budget_too_tight(self):
        # evaluations that never settle exhaust the node budget
        with pytest.raises(RefinementError) as info:
            counterexamples._richardson(lambda m: float(m))
        assert info.value.tolerance == 0.01
        assert info.value.estimate > 0.01

    def test_overflow_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="overflow"):
            counterexamples._richardson(lambda m: math.inf)


class TestFilterDecomposition:
    # with the filters kept explicitly only offsets in {0, 1}^2 contribute,
    # and their sum reproduces the filterless value of the single term table,
    # because the four filter products telescope to 1 on the bump supports
    def test_offsets_sum_to_filterless(self):
        split = reference_filter_decomposition(-0.5, 4, 24)
        assert set(split) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(v > 0.0 for v in split.values())
        # force the same node count for an exact comparison
        table = counterexamples._TermIntegrals(
            counterexamples._a1_nodes, counterexamples._single_term
        )
        filterless = counterexamples._pairing_total(bump_coefficients(-0.5, 4), *table(24, 4))
        total = sum(split.values())
        assert abs(total - filterless) / filterless < 1e-12

    def test_mirror_offsets_agree(self):
        split = reference_filter_decomposition(-0.5, 3, 24)
        assert abs(split[(0, 1)] - split[(1, 0)]) / split[(0, 1)] < 1e-3


class TestSymmetrizedPairing:
    def test_cancellation_is_exact(self):
        rows, sym = prop_a1_pairings(-0.5, 12)
        assert abs(sym) < 1e-18 * rows[-1][0]

    def test_bounded_across_depths(self):
        rows, _ = prop_a1_pairings(-0.5, 25)
        singles = {n: value for n, (value, _) in enumerate(rows, start=A1_FIRST_TERMS)}
        syms = {n_terms: prop_a1_pairings(-0.5, n_terms)[1] for n_terms in (2, 4, 8, 12)}
        # the single product grows without bound, the symmetrized sum does not
        assert singles[12] > singles[2] * 1.3
        assert singles[25] > singles[12] * 25.0
        floor = 1e-12 * singles[12]
        reference = max(abs(syms[4]), floor)
        for n_terms in (2, 4, 8, 12):
            assert abs(syms[n_terms]) <= 2.0 * reference

    def test_magnitude_series_converges(self):
        # before cancellation each symmetrized term is c_n^2 O(4^(-n)),
        # so the magnitude series converges while the single one diverges
        mags = symmetrized_magnitude_series(-0.5, 12, m=24)
        assert np.all(mags > 0.0)
        mag_sums = np.cumsum(mags)
        assert (mag_sums[-1] - mag_sums[5]) / mag_sums[5] < 1e-4
        _, terms, _ = reference_pairing(-0.5, 12, "single")
        single_sums = np.cumsum(terms)
        assert (single_sums[-1] - single_sums[5]) / single_sums[5] > 0.2

    def test_magnitude_terms_shrink_geometrically(self):
        mags = symmetrized_magnitude_series(-0.5, 12, m=24)
        ratios = mags[1:] / mags[:-1]
        assert np.all(ratios < 0.5)


def kernel_minus(n, w1, w2):
    """(2^n - w1)/|2^n e1 - w|, the mirrored symbol near the g bump."""
    c = 2.0**n
    return (c - w1) / np.hypot(c - w1, w2)


@pytest.mark.parametrize("m", [16, 24, 32, 64])
def test_mirrored_kernel_is_the_plus_kernel_at_minus_w1(m):
    # the package forms the g bump's kernel as _kernel_plus(i, -w1, w2)
    w1, w2, _, _ = counterexamples._bump_nodes(m)
    for i in range(1, 60):
        got = counterexamples._kernel_plus(i, -w1, w2)
        assert np.array_equal(got.view(np.int64), kernel_minus(i, w1, w2).view(np.int64))


def reference_magnitude_series(s, n_terms, m):
    """symmetrized_magnitude_series as a dense term-outer loop over every
    node pair, rebuilding the chi(w + v) coupling of every chunk for every
    term."""
    w1, w2, chi, da = counterexamples._bump_nodes(m)
    out = np.empty(n_terms)
    for i, c in enumerate(bump_coefficients(s, n_terms), start=1):
        ka = counterexamples._kernel_plus(i, w1, w2)
        acc = 0.0
        for start in range(0, w1.size, 256):
            stop = min(start + 256, w1.size)
            s1 = w1[start:stop, None] + w1[None, :]
            s2 = w2[start:stop, None] + w2[None, :]
            coupling = bump_profile(np.hypot(s1, s2))
            kb = kernel_minus(i, w1, w2)
            diff = np.abs(ka[start:stop, None] - kb[None, :])
            acc += float((chi[start:stop] * da) @ ((diff * coupling) @ (chi * da)))
        out[i - 1] = c * c * acc
    return out


def reference_filter_decomposition(s, n_terms, m):
    """The single pairing split by filter-level offsets (k-n, l-n), the
    filters kept explicitly and the coupling rebuilt per (offset, term)."""
    w1, w2, chi, da = counterexamples._bump_nodes(m)
    out = {}
    for dk in (0, 1):
        for dl in (0, 1):
            total = 0.0
            for i, c in enumerate(bump_coefficients(s, n_terms), start=1):
                cc = 2.0**i
                filt_f = annulus_profile(i + dk, np.hypot(cc + w1, w2))
                filt_g = annulus_profile(i + dl, np.hypot(cc - w1, w2))
                left = counterexamples._kernel_plus(i, w1, w2) * filt_f * chi * da
                right = filt_g * chi * da
                acc = 0.0
                for start in range(0, w1.size, 256):
                    stop = min(start + 256, w1.size)
                    s1 = w1[start:stop, None] + w1[None, :]
                    s2 = w2[start:stop, None] + w2[None, :]
                    acc += float(left[start:stop] @ bump_profile(np.hypot(s1, s2)) @ right)
                total += c * c * acc
            out[(dk, dl)] = total
    return out


class TestSharedCoupling:
    """The self-correlation and the couplings of the magnitude series are
    computed once per node count and shared."""

    def test_default_a1_run_computes_two_node_counts(self, tmp_path):
        counterexamples._self_correlation.cache_clear()
        assert main(["counterexample", "a1", "--out", str(tmp_path)]) == 0
        info = counterexamples._self_correlation.cache_info()
        assert info.misses == 2
        assert info.hits > 0

    def test_cached_arrays_are_read_only(self):
        w1, w2, chi, _, corr = counterexamples._self_correlation(16)
        for a in (w1, w2, chi, corr):
            before = a.copy()
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                a *= 2.0
            assert np.array_equal(a, before)

    def test_correlation_peak_memory(self):
        # one chunk of the coupling is 128 x 1024 floats at m = 32; the sum
        # peaks near 6.3 chunks, and reads 7.3 or more when the node sums
        # w + v of a chunk outlive the coupling built from them (at the
        # earlier default of 512-row chunks it peaked at 23 MiB)
        tracemalloc.start()
        try:
            counterexamples._self_correlation.__wrapped__(32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 128 * 1024 * 8

    @pytest.mark.parametrize("kind", ["single", "symmetrized"])
    def test_pairing_bits_match_uncached_reference(self, kind, monkeypatch):
        # the a1 rows (single) or the symmetrized pairing, from the cache and
        # with the correlation recomputed at every call
        def pairing():
            rows, symmetrized = prop_a1_pairings(-0.5, 12)
            return [value for value, _ in rows] if kind == "single" else [symmetrized]

        counterexamples._self_correlation.cache_clear()
        got = [pairing() for _ in range(2)]
        with monkeypatch.context() as patch:
            patch.setattr(
                counterexamples,
                "_self_correlation",
                counterexamples._self_correlation.__wrapped__,
            )
            want = pairing()
        for values in got:
            assert [v.hex() for v in values] == [v.hex() for v in want]

    # the folded sum adds the mirror rows as doubled upper rows, a different
    # set of roundings than the dense loop, so it matches to a tolerance;
    # m = 25 has a w2 = 0 line of nodes, counted once
    @pytest.mark.parametrize("s", [-0.5, -0.75])
    @pytest.mark.parametrize("m", [24, 25, 32])
    def test_magnitude_series_matches_dense_oracle(self, m, s):
        got = symmetrized_magnitude_series(s, 12, m=m)
        want = reference_magnitude_series(s, 12, m)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("m", [24, 25])
    def test_magnitude_integrand_vanishes_off_the_support(self, m):
        # the dense integrand is exactly 0.0 on every row and column where
        # chi vanishes, and a row and its mirror (w1, -w2) carry the same
        # sum.  The nodes are mirror images only to 1e-17, which the bump's
        # flat edge amplifies to rel 5e-13 on rows of 1e-28, so each row is
        # held to 1e-15 of the whole term (6.6e-18 measured)
        w1, w2, chi, da = counterexamples._bump_nodes(m)
        coupling = bump_profile(np.hypot(w1[:, None] + w1[None, :], w2[:, None] + w2[None, :]))
        mirror = (np.arange(w1.size) // m) * m + (m - 1 - np.arange(w1.size) % m)
        for i in (1, 4, 12):
            ka = counterexamples._kernel_plus(i, w1, w2)
            kb = kernel_minus(i, w1, w2)
            dense = (chi * da)[:, None] * np.abs(ka[:, None] - kb[None, :]) * coupling
            dense *= (chi * da)[None, :]
            assert np.all(dense[chi == 0.0] == 0.0)
            assert np.all(dense[:, chi == 0.0] == 0.0)
            rows = np.array([math.fsum(row) for row in dense])
            assert np.all(np.abs(rows - rows[mirror]) <= 1e-15 * math.fsum(rows))
        a1, _, b1, _, weight = counterexamples._magnitude_support(m)
        upper = (chi > 0.0) & (2 * (np.arange(w1.size) % m) >= m - 1)
        assert weight.shape == (a1.size, b1.size) == (upper.sum(), (chi > 0.0).sum())

    def test_magnitude_series_couplings_built_once(self):
        # the support block of chi(w) chi(w + v) chi(v) depends on m alone; a
        # rerun reads it from the cache, bit for bit, and cannot write into it
        counterexamples._magnitude_support.cache_clear()
        first, second = (symmetrized_magnitude_series(-0.5, 12) for _ in range(2))
        assert np.array_equal(first.view(np.int64), second.view(np.int64))
        assert counterexamples._magnitude_support.cache_info().misses == 1
        support = counterexamples._magnitude_support(24)
        # 224 x 448 weights at m = 24: 0.8 MB
        assert support[-1].shape == (224, 448)
        for a in support:
            with pytest.raises(ValueError):
                a[0] = 1.0


def reference_pairing_terms(s, n_terms, kind, m):
    """Per-n pairing contributions at one node count, every term kernel
    rebuilt at every call."""
    w1, w2, chi, da, corr = counterexamples._self_correlation(m)
    weight = chi * corr * da
    terms = np.empty(n_terms)
    for i, c in enumerate(bump_coefficients(s, n_terms), start=1):
        kernel = counterexamples._kernel_plus(i, w1, w2)
        if kind == "symmetrized":
            kernel = kernel - kernel_minus(i, w1, w2)
        terms[i - 1] = c * c * float(np.dot(kernel, weight))
    return terms


def reference_pairing(s, n_terms, kind):
    """(value, per-n terms c_n^2 I_n, node count) of one pairing kind for
    one N alone, every node count evaluating all N term integrals: the
    floats of prop_a1_pairings' row N (single) and of its symmetrized
    pairing at n_max = N."""
    single, m_used = counterexamples._richardson(
        lambda m: float(reference_pairing_terms(s, n_terms, "single", m).sum())
    )
    terms = reference_pairing_terms(s, n_terms, kind, m_used)
    value = single if kind == "single" else float(terms.sum())
    return value, terms, m_used


class TestPairingSweep:
    """The a1 table is one sweep over N whose rows, and both pairing kinds,
    are the floats of one call per N."""

    @pytest.mark.parametrize("s", [-0.5, -0.75])
    def test_rows_match_per_n_reference_bits(self, s):
        rows, symmetrized = prop_a1_pairings(s, 40)
        assert len(rows) == 40 - A1_FIRST_TERMS + 1
        for n_terms, (value, lower) in enumerate(rows, start=A1_FIRST_TERMS):
            assert value.hex() == reference_pairing(s, n_terms, "single")[0].hex(), n_terms
            assert lower.hex() == lower_bound_sum(s, n_terms).hex(), n_terms
        assert symmetrized.hex() == reference_pairing(s, 40, "symmetrized")[0].hex()

    def test_validation(self):
        with pytest.raises(ParameterError):
            prop_a1_pairings(0.25, 3)
        with pytest.raises(ParameterError):
            prop_a1_pairings(-0.5, A1_FIRST_TERMS - 1)

    def test_overflow_raises_at_the_same_n(self):
        # at s = -12 the squared coefficients 2^(24 n) n^(-4) overflow by N = 50
        s = -12.0
        first_bad = None
        for n_terms in range(1, 51):
            try:
                reference_pairing(s, n_terms, "single")
            except ParameterError as exc:
                first_bad, message = n_terms, str(exc)
                break
        assert first_bad is not None
        # 2^(-2 s n) of the lower-bound sum overflows a row earlier
        with pytest.raises(ParameterError) as info:
            prop_a1_pairings(s, first_bad)
        assert str(info.value) == (
            f"lower-bound sum inf at N = {first_bad - 1}: 2^(-2 s n) overflows"
        )
        # at s = -300 both overflow on the first row, and the pairing is first
        with pytest.raises(ParameterError) as info:
            reference_pairing(-300.0, A1_FIRST_TERMS, "single")
        message = str(info.value)
        with pytest.raises(ParameterError) as info:
            prop_a1_pairings(-300.0, A1_FIRST_TERMS)
        assert str(info.value) == message

    def test_default_run_evaluates_each_kernel_once_per_node_count(
        self, tmp_path, monkeypatch
    ):
        plus, minus = collections.Counter(), collections.Counter()
        kernel_plus = counterexamples._kernel_plus

        def counted_plus(n, w1, w2):
            # the mirrored kernel is this one at -w1: every node array starts
            # at its most negative w1, so a first node above 0 is mirrored
            (minus if w1[0] > 0.0 else plus)[n, w1.size] += 1
            return kernel_plus(n, w1, w2)

        monkeypatch.setattr(counterexamples, "_kernel_plus", counted_plus)
        assert main(["counterexample", "a1", "--out", str(tmp_path)]) == 0
        # every N settles at m = 32: the single table evaluates each term once
        # at m = 16 and at 32 (a call per N evaluated term n again for every
        # N >= n), the symmetrized one at m = 32, and the magnitude series on
        # the 224 rows and 448 columns of its m = 24 support
        terms = range(1, 13)
        assert plus == {
            **{(n, 16 * 16): 1 for n in terms},
            **{(n, 32 * 32): 2 for n in terms},
            **{(n, 224): 1 for n in terms},
        }
        assert minus == {
            **{(n, 32 * 32): 1 for n in terms},
            **{(n, 448): 1 for n in terms},
        }


class TestProductNormA3:
    def test_empty_family(self):
        assert prop_a3_product_norms(-0.75, 0) == []

    def test_frozen_value_and_exact_lower_term(self):
        value, lower = prop_a3_product_norms(-0.75, 1)[-1]
        assert abs(lower - math.sqrt(2.0)) < 1e-15
        assert abs(value - 9.04676593e-04) / 9.04676593e-04 < 1e-6

    def test_value_proportional_to_lower_sum(self):
        # quadrature and oracle increments differ by the fixed constant
        # 2 (int chi)^2, so the running ratio must be flat in N and s
        ratios = []
        for s, n_terms in ((-0.75, 5), (-0.75, 20), (-0.5, 30), (-1.0, 8)):
            value, lower = prop_a3_product_norms(s, n_terms)[-1]
            ratios.append(value / lower)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() - 1.0 < 1e-3

    def test_divergence_then_convergence_dichotomy(self):
        # s = -0.75: geometric growth once 2^(n/2) beats n^4; s = -0.5:
        # bounded by zeta(4)
        grow = [a3_lower_sum(-0.75, n) for n in (20, 50, 80)]
        assert grow[1] > 10.0 * grow[0]
        assert grow[2] > 100.0 * grow[1]
        target = math.pi**4 / 90.0
        assert a3_lower_sum(-0.5, 50) < target
        assert a3_lower_sum(-0.5, 1000) < target * (1.0 + 1e-12)


def reference_a3_value(s, n_terms):
    """Row N of prop_a3_product_norms computed for that N alone: every node
    count rebuilds its nodes and evaluates all N term integrals."""

    def total(m):
        w1, w2, chi, da = counterexamples._bump_nodes(m)
        chi_mass = float(chi.sum() * da)
        value = 0.0
        for i, c in enumerate(bump_coefficients(s, n_terms), start=1):
            j_n = float((chi / np.hypot(2.0**i + w1, w2)).sum() * da)
            value += 2.0 * c * c * chi_mass * j_n
        return value

    return counterexamples._richardson(total)[0]


class TestProductNormSweep:
    """One sweep over N returns, row by row, the floats of separate calls."""

    @pytest.mark.parametrize("s", [-0.5, -0.75, -0.3, -1.0])
    def test_rows_match_per_n_reference_bits(self, s):
        rows = prop_a3_product_norms(s, 50)
        assert len(rows) == 50
        for n_terms, (value, lower) in enumerate(rows, start=1):
            assert value.hex() == reference_a3_value(s, n_terms).hex(), n_terms
            assert lower.hex() == a3_lower_sum(s, n_terms).hex(), n_terms

    def test_overflow_raises_at_the_same_n(self):
        # at s = -12 the squared coefficients 2^(24 n) n^(-4) overflow by N = 50
        s = -12.0
        first_bad = None
        for n_terms in range(1, 51):
            try:
                reference_a3_value(s, n_terms)
            except ParameterError as exc:
                first_bad, message = n_terms, str(exc)
                break
        assert first_bad is not None
        rows = prop_a3_product_norms(s, first_bad - 1)
        for n_terms, (value, _) in enumerate(rows, start=1):
            assert value.hex() == reference_a3_value(s, n_terms).hex(), n_terms
        with pytest.raises(ParameterError) as info:
            prop_a3_product_norms(s, first_bad)
        assert str(info.value) == message

    def test_single_call_is_the_last_row(self):
        rows = prop_a3_product_norms(-0.75, 7)
        assert prop_a3_product_norms(-0.75, 7)[-1] == rows[-1]
        assert prop_a3_product_norms(-0.75, 0) == []
        with pytest.raises(ParameterError):
            prop_a3_product_norms(0.25, 3)
        with pytest.raises(ParameterError):
            prop_a3_product_norms(-0.75, -1)

    def test_default_run_evaluates_each_integral_once(self, tmp_path, monkeypatch):
        nodes, integrals = collections.Counter(), collections.Counter()
        bump_nodes = counterexamples._bump_nodes
        term_integral = counterexamples._a3_term_integral

        def counted_nodes(m):
            nodes[m] += 1
            return bump_nodes(m)

        def counted_integral(i, w1, *rest):
            integrals[i, math.isqrt(w1.size)] += 1
            return term_integral(i, w1, *rest)

        monkeypatch.setattr(counterexamples, "_bump_nodes", counted_nodes)
        monkeypatch.setattr(counterexamples, "_a3_term_integral", counted_integral)
        assert main(["counterexample", "a3", "--out", str(tmp_path)]) == 0
        # every N settles at m = 32; one call per N evaluated 1,275 term
        # integrals at each node count, the sweep 50
        assert dict(nodes) == {16: 1, 32: 1}
        assert set(integrals.values()) == {1}
        assert set(integrals) == {(i, m) for i in range(1, 51) for m in (16, 32)}

    def test_bytes_repeat_in_process_and_in_a_fresh_process(self, tmp_path):
        outs = [tmp_path / name for name in ("first", "second", "fresh")]
        for out in outs[:2]:
            assert main(["counterexample", "a3", "--out", str(out)]) == 0
        src = Path(counterexamples.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-B", "-m", "sqglab.cli", "counterexample", "a3", "--out", str(outs[2])],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        for name in ("counterexample-a3.csv", "counterexample-a3-summary.txt"):
            first = (outs[0] / name).read_bytes()
            assert [(out / name).read_bytes() for out in outs[1:]] == [first, first]


@settings(max_examples=12, deadline=None)
@given(
    s=st.floats(min_value=-1.25, max_value=-0.25),
    n_max=st.integers(min_value=A1_FIRST_TERMS, max_value=6),
)
def test_pairing_positive_and_monotone(s, n_max):
    rows, _ = prop_a1_pairings(s, n_max)
    values = np.array([value for value, _ in rows])
    assert values[0] > 0.0
    assert np.all(np.diff(values) > 0.0)

"""Acceptance gate: every criterion of the verification program as one test.

Each test re-measures its claim from scratch at the stated tolerance, so
the ``pytest -v`` PASSED/FAILED line is the verdict line for that
criterion; on success a ``criterion <k> ...: PASS`` line is also printed
(visible with ``-s`` or ``-rP``).  Wall-clock budgets are asserted where
the criterion states one.

Run the gate alone with::

    python3 -m pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import pure_mode, random_field, rel_err, smooth_profile
from sqglab.counterexamples import (
    a3_lower_sum,
    build_counterexample_pair,
    lower_bound_sum,
    pairing_quadrature,
    prop_a3_product_norm,
    symmetrized_magnitude_series,
)
from sqglab.lab import (
    duhamel_test_datum,
    endpoint_norm_indices,
    level_spread,
    verify_bernstein,
    verify_duhamel_bound,
)
from sqglab.littlewood import block, build_bank
from sqglab.mild import SolveParams, divergence_form_check, picard_solve, solve
from sqglab.spectral import (
    fractional_laplacian,
    lp_norm,
    riesz_perp_velocity,
    semigroup_apply,
    shared_grid,
)
from sqglab.uniqueness import (
    continuity_criterion_test,
    contraction_ladder,
    contraction_norm_spec,
    end_point_exponent,
    instant_norm,
    twin_experiments,
)

TWO_PI = 2.0 * math.pi
PI_HALF = math.pi / 2.0


def _passed(number: int, label: str, t0: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"
        )
    note = "no stated budget" if budget is None else f"budget {budget:.0f}s"
    print(f"\ncriterion {number} ({label}): PASS in {elapsed:.2f}s ({note})")


def test_criterion_1_spectral_exactness():
    """Single-mode symbols exact to 1e-12; semigroup composition law."""
    t0 = time.perf_counter()
    grid = shared_grid(256, TWO_PI)
    modes = [(1, 0), (0, 2), (3, 4), (-7, 11), (25, -40)]
    for alpha in (1.0, 1.37, 2.0):
        for m1, m2 in modes:
            f = pure_mode(grid, m1, m2)
            kmag = math.hypot(m1, m2)
            phase = m1 * grid.x1 + m2 * grid.x2

            lap = fractional_laplacian(f, alpha)
            want = kmag**alpha * np.cos(phase)
            assert np.abs(lap.physical() - want).max() <= 1e-12 * kmag**alpha

            u1, u2 = riesz_perp_velocity(f)
            want1 = (m2 / kmag) * np.sin(phase)
            want2 = (-m1 / kmag) * np.sin(phase)
            assert np.abs(u1.physical() - want1).max() <= 1e-12
            assert np.abs(u2.physical() - want2).max() <= 1e-12

            t = 0.3
            decayed = semigroup_apply(f, alpha, t)
            want_t = math.exp(-t * kmag**alpha) * np.cos(phase)
            assert np.abs(decayed.physical() - want_t).max() <= 1e-12

    rng = np.random.default_rng(1)
    g = random_field(grid, rng)
    for alpha in (1.0, 1.37, 2.0):
        once = semigroup_apply(semigroup_apply(g, alpha, 0.07), alpha, 0.11)
        joint = semigroup_apply(g, alpha, 0.18)
        scale = float(np.abs(joint.coef).max())
        assert np.abs(once.coef - joint.coef).max() <= 1e-12 * scale

    _passed(1, "spectral exactness", t0, 1.0)


def test_criterion_2_partition_and_almost_orthogonality():
    """Partition residual <= 1e-12 on admissible frequencies; far blocks annihilate."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for n, box in ((256, TWO_PI), (128, PI_HALF), (128, TWO_PI)):
        bank = build_bank(shared_grid(n, box))
        assert bank.partition_residual() <= 1e-12

        f = random_field(bank.grid, rng)
        fnorm = lp_norm(f, 2.0)
        for j in range(1, bank.j_max + 1):
            fj = block(f, bank, j)
            for k in range(1, bank.j_max + 1):
                if abs(j - k) >= 2:
                    assert lp_norm(block(fj, bank, k), 2.0) <= 1e-12 * fnorm
    _passed(2, "partition of unity and almost-orthogonality", t0, 5.0)


def test_criterion_3_bernstein_suite():
    """p=2 gradient ratio <= 4/3 + 1e-9 everywhere; p in {4, inf} spread < 3.

    Level 1 of a pi/2 box carries no lattice points, so probing starts at
    level 2 — exactly the range the spread clause names.
    """
    t0 = time.perf_counter()
    banks = [
        build_bank(shared_grid(128, PI_HALF)),
        build_bank(shared_grid(256, PI_HALF)),
    ]

    for bank in banks:
        report = verify_bernstein(
            bank, 2.0, levels=range(2, bank.j_max + 1), trials=20, seed=3
        )
        assert report.skipped == 0
        assert report.params["gradient_sup"] <= 4.0 / 3.0 + 1e-9

    for p in (4.0, math.inf):
        reports = [
            verify_bernstein(
                bank, p, levels=range(2, min(bank.j_max, 7) + 1), trials=20, seed=3
            )
            for bank in banks
        ]
        assert level_spread(reports, lo=2, hi=7) < 3.0

    _passed(3, "Bernstein constants", t0, 30.0)


def test_criterion_4_divergence_form_identity():
    """Both routes through the divergence-form identity agree to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    bank = build_bank(shared_grid(128, TWO_PI))
    diagonal_pairs = [
        (k, l)
        for k in range(bank.j_max + 1)
        for l in range(bank.j_max + 1)
        if abs(k - l) <= 1
    ]
    worst = 0.0
    for trial in range(100):
        f = random_field(bank.grid, rng)
        g = random_field(bank.grid, rng)
        k, l = diagonal_pairs[trial % len(diagonal_pairs)]
        worst = max(worst, divergence_form_check(f, g, bank, k, l))
    assert worst <= 1e-10
    _passed(4, "divergence-form identity", t0, None)


def test_criterion_5_counterexample_dichotomy():
    """Divergent single pairing vs cancelling symmetrized pairing; product-norm dichotomy.

    The single pairing is one multiplicative constant away from the
    independent summation oracle, so its successive ratios must track the
    oracle's ratios (asserted to 5% at every N <= 12, measured ~1e-4), and
    the limiting ratio 2 is certified on the oracle ladder itself, where
    it is pure arithmetic.  The symmetrized pairing cancels to roundoff —
    orders of magnitude below any single-product term — so the bounded
    quantity that stays within a factor 2 of its N=4 value is the
    symmetrized magnitude aggregate, with the signed value pinned to the
    cancellation floor alongside it.
    """
    t0 = time.perf_counter()

    s = -0.5
    singles = {}
    oracle = {}
    for n in range(2, 13):
        f, g = build_counterexample_pair(s, n, "a1")
        singles[n] = pairing_quadrature(f, g, "single")
        oracle[n] = lower_bound_sum(s, n)

    for n in range(3, 13):
        assert singles[n] > singles[n - 1]
        quad_ratio = singles[n] / singles[n - 1]
        oracle_ratio = oracle[n] / oracle[n - 1]
        assert abs(quad_ratio / oracle_ratio - 1.0) <= 0.05
    constants = [singles[n] / oracle[n] for n in range(2, 13)]
    assert max(constants) / min(constants) <= 1.05
    ratio_tail = lower_bound_sum(s, 400) / lower_bound_sum(s, 399)
    assert abs(ratio_tail - 2.0) <= 0.05 * 2.0

    f12, g12 = build_counterexample_pair(s, 12, "a1")
    magnitudes = symmetrized_magnitude_series(f12, g12)
    partial = np.cumsum(magnitudes)
    f4, g4 = build_counterexample_pair(s, 4, "a1")
    assert rel_err(symmetrized_magnitude_series(f4, g4).sum(), partial[3]) < 1e-12
    base = partial[3]
    for n in range(4, 13):
        assert 0.5 * base <= partial[n - 1] <= 2.0 * base
    for n in (4, 8, 12):
        fn, gn = build_counterexample_pair(s, n, "a1")
        symmetrized = pairing_quadrature(fn, gn, "symmetrized")
        assert abs(symmetrized) <= 0.01 * singles[n]

    s_div = -0.75
    a3_values = {}
    for n in (10, 20, 30, 40, 50):
        value, lower = prop_a3_product_norm(s_div, n)
        assert value > 0.0
        a3_values[n] = value / lower
    assert max(a3_values.values()) / min(a3_values.values()) <= 1.05
    ratio_a3 = a3_lower_sum(s_div, 400) / a3_lower_sum(s_div, 399)
    assert abs(ratio_a3 - math.sqrt(2.0)) <= 0.05 * math.sqrt(2.0)

    s_conv = -0.5
    limit = math.pi**4 / 90.0
    value10, lower10 = prop_a3_product_norm(s_conv, 10)
    value50, lower50 = prop_a3_product_norm(s_conv, 50)
    assert abs(lower50 - limit) <= 0.01 * limit
    assert abs((value50 / lower50) / (value10 / lower10) - 1.0) <= 0.01

    _passed(5, "counterexample dichotomy", t0, 60.0)


def test_criterion_6_maximum_principle():
    """L^p norms non-increasing within 1e-6 per step; mean conserved to 1e-12."""
    t0 = time.perf_counter()
    grid = shared_grid(128, TWO_PI)
    theta0 = smooth_profile(grid)
    for alpha in (1.0, 1.5, 2.0):
        params = SolveParams(alpha=alpha, n=128, t_final=0.5, dt=0.0025)
        _, fields = solve(theta0, params)
        for p in (2.0, 4.0, math.inf):
            norms = [lp_norm(f, p) for f in fields]
            for before, after in zip(norms, norms[1:]):
                assert after <= before * (1.0 + 1e-6)
        mean0 = fields[0].mean()
        for f in fields:
            assert abs(f.mean() - mean0) <= 1e-12
    _passed(6, "maximum principle", t0, 120.0)


def test_criterion_7_linear_continuity():
    """Vanishing tail: d(t) drops >= 10x over the ladder; unit tail stays >= 0.5x."""
    t0 = time.perf_counter()
    bank = build_bank(shared_grid(512, TWO_PI))
    s, p, alpha = -0.5, 2.0, 2.0

    vanishing = continuity_criterion_test(
        lambda j: 2.0 ** (-s * j) * 2.0 ** (-j), bank, s, p, alpha
    )
    assert vanishing.times[0] == 1e-1 and vanishing.times[-1] == 1e-4
    assert vanishing.curve[-1] <= 0.1 * vanishing.curve[0]
    assert vanishing.converged

    unit = continuity_criterion_test(lambda j: 2.0 ** (-s * j), bank, s, p, alpha)
    assert min(unit.curve) >= 0.5 * unit.curve[0]

    _passed(7, "linear continuity criterion", t0, 60.0)


def test_criterion_8_contraction_uniqueness():
    """Contraction factors decrease with T and dip below 1; twins behave."""
    t0 = time.perf_counter()
    grid = shared_grid(128, TWO_PI)
    bank = build_bank(grid)
    theta0 = smooth_profile(grid)
    horizons = (0.05, 0.1, 0.2, 0.4)

    assert end_point_exponent(2.0) == (4.0, 2.0)

    for alpha in (2.0, 1.75, 1.0):
        spec = contraction_norm_spec(alpha)
        if alpha == 1.75:
            p_star, q_star = end_point_exponent(alpha)
            assert spec.index.p == p_star
            assert spec.data_index.q == q_star
        if alpha == 1.0:
            assert spec.riesz_low
            assert spec.index.p == math.inf and spec.index.q == math.inf

        params = SolveParams(alpha=alpha, n=128, t_final=0.4, dt=0.0025)
        ladder = contraction_ladder(theta0, params, bank, horizons)
        factors = [float(result) for result in ladder]  # ascending in T
        assert all(a < b for a, b in zip(factors, factors[1:]))
        assert factors[0] < 1.0  # T = 0.05

        twin_params = SolveParams(alpha=alpha, n=128, t_final=0.1, dt=0.005)
        (_, run), (_, rerun) = solve(theta0, twin_params), solve(theta0, twin_params)
        for fa, fb in zip(run, rerun):
            assert np.array_equal(fa.coef, fb.coef)
        gaps = [instant_norm(fa - fb, bank, spec) for fa, fb in zip(run, rerun)]
        assert max(gaps) == 0.0

        identical_gap, order, _ = twin_experiments(theta0, twin_params, bank, spec)
        assert identical_gap == 0.0
        assert abs(order - 2.0) <= 0.3

    _passed(8, "contraction and uniqueness harness", t0, 300.0)


def test_criterion_9_duhamel_scaling():
    """Log-log Duhamel slope within 0.2 of min{1, 1/(2 alpha)} as T -> 0."""
    t0 = time.perf_counter()
    bank = build_bank(shared_grid(256, TWO_PI))
    for alpha in (1.5, 2.0):
        p, _, s = endpoint_norm_indices(alpha)
        datum = duhamel_test_datum(bank, p, s=s)
        report = verify_duhamel_bound(alpha, datum, bank)
        target = min(1.0, 1.0 / (2.0 * alpha))
        assert abs(report.params["slope"] - target) <= 0.2
    _passed(9, "Duhamel smoothing scaling", t0, 120.0)


def test_criterion_10_march_is_the_mild_solution():
    """The ETD2 march converges to the Picard fixed point at order 2 +- 0.2."""
    t0 = time.perf_counter()
    grid = shared_grid(64, TWO_PI)
    theta0 = smooth_profile(grid, 0.5)
    for alpha in (2.0, 1.5, 1.25, 1.0, 0.75):
        gaps = []
        for dt in (0.01, 0.005, 0.0025):
            params = SolveParams(alpha=alpha, n=64, t_final=0.1, dt=dt, picard_depth=8)
            _, fixed_point, distances = picard_solve(theta0, params)
            assert distances[-1] <= 1e-10
            _, marched = solve(theta0, params)
            # sup-in-time L^2 gap, relative to the sup-in-time L^2 norm
            gap = max(lp_norm(a - b, 2.0) for a, b in zip(fixed_point, marched))
            gaps.append(gap / max(lp_norm(b, 2.0) for b in marched))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert abs(math.log2(coarse / fine) - 2.0) <= 0.2
    _passed(10, "march is the mild solution", t0, 60.0)

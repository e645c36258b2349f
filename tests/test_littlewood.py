"""Tests for the dyadic partition, Besov norms, and time-mixed norms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ball_limited_field,
    partition_residual,
    pure_mode,
    random_field,
    rel_err,
    whole_symbol,
)
from sqglab import littlewood
from sqglab.littlewood import (
    ENERGY_FLOOR,
    BesovIndex,
    DyadicBank,
    annulus_profile,
    besov_norm,
    besov_time_norm,
    block,
    block_norms,
    build_bank,
    chemin_lerner_norm,
    lowpass_profile,
    lq_sum,
    max_feasible_level,
    packet_profile,
    series_block_norms,
    smooth_step,
    time_lr,
)
from sqglab.lab import random_besov_field
from sqglab.spectral import (
    Grid2,
    ParameterError,
    SpectralField,
    dealiased_coef,
    lp_norm,
    mode_energy,
    quadrature_root,
)

RNG = np.random.default_rng(20260819)


class TestProfiles:
    def test_lowpass_plateau_exact(self):
        for r in [0.0, 0.3, 0.74, 0.75]:
            assert float(lowpass_profile(r)) == 1.0

    def test_lowpass_tail_exact(self):
        for r in [4.0 / 3.0, 1.34, 2.0, 100.0]:
            assert float(lowpass_profile(r)) == 0.0

    def test_lowpass_transition_strictly_inside(self):
        v = float(lowpass_profile(1.0))
        assert 0.0 < v < 1.0

    def test_lowpass_monotone(self):
        r = np.linspace(0.5, 1.5, 400)
        v = lowpass_profile(r)
        assert np.all(np.diff(v) <= 1e-15)

    def test_smooth_step_endpoints(self):
        assert float(smooth_step(-1.0)) == 0.0
        assert float(smooth_step(0.0)) == 0.0
        assert float(smooth_step(1.0)) == 1.0
        assert float(smooth_step(2.0)) == 1.0
        assert abs(float(smooth_step(0.5)) - 0.5) < 1e-15

    def test_annulus_support(self):
        for j in [1, 2, 5]:
            lo, hi = 0.375 * 2.0**j, 4.0 / 3.0 * 2.0**j
            inside = np.linspace(lo * 1.05, hi * 0.95, 50)
            assert np.all(annulus_profile(j, inside) >= 0.0)
            assert np.all(annulus_profile(j, [0.0, lo * 0.999, lo]) == 0.0)
            assert np.all(annulus_profile(j, [hi, hi * 1.001, hi * 10]) == 0.0)

    def test_annulus_plateau_exact(self):
        for j in [1, 3, 6]:
            r = np.linspace(2.0 / 3.0 * 2.0**j, 0.75 * 2.0**j, 30)
            assert np.all(annulus_profile(j, r) == 1.0)

    def test_annulus_values_in_unit_interval(self):
        r = np.linspace(0.0, 40.0, 2000)
        for j in [1, 2, 3]:
            v = annulus_profile(j, r)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_annulus_rejects_level_zero(self):
        with pytest.raises(ParameterError):
            annulus_profile(0, 1.0)

    def test_telescoping_to_lowpass(self):
        # psi + sum_{j<=J} phi_j == chi(r / 2^J) pointwise as functions of r
        r = np.linspace(0.0, 30.0, 1500)
        total = lowpass_profile(r)
        for j in range(1, 6):
            total = total + annulus_profile(j, r)
        assert np.abs(total - lowpass_profile(r / 2.0**5)).max() < 1e-14


class TestBankConstruction:
    @pytest.mark.parametrize(
        "n,box,expected",
        [
            (64, 2 * np.pi, 4),
            (128, 2 * np.pi, 5),
            (256, 2 * np.pi, 6),
            (1024, 2 * np.pi, 8),
            (128, np.pi / 2, 7),
        ],
    )
    def test_default_depth(self, n, box, expected):
        grid = Grid2(n, box_length=box)
        assert max_feasible_level(grid) == expected
        assert build_bank(grid).j_max == expected

    def test_too_small_grid_rejected(self):
        with pytest.raises(ParameterError):
            build_bank(Grid2(16))

    def test_too_deep_request_rejected(self):
        grid = Grid2(64)
        with pytest.raises(ParameterError):
            build_bank(grid, j_max=5)

    def test_too_shallow_request_rejected(self):
        with pytest.raises(ParameterError):
            build_bank(Grid2(256), j_max=2)

    def test_symbols_in_unit_interval(self):
        bank = build_bank(Grid2(64))
        for j in range(bank.j_max + 1):
            sym = whole_symbol(bank, j)
            assert np.all(sym >= 0.0) and np.all(sym <= 1.0)

    @pytest.mark.parametrize(
        "n,box",
        [(64, 2 * np.pi), (256, 2 * np.pi), (128, np.pi / 2), (64, 5.0)],
    )
    def test_partition_residual(self, n, box):
        bank = build_bank(Grid2(n, box_length=box))
        assert partition_residual(bank) < 1e-12


class TestBlocks:
    def test_pure_plateau_mode_hits_one_level(self):
        # |xi| = 6 lies on the level-3 plateau [2/3 * 8, 3/4 * 8]
        grid = Grid2(64)
        bank = build_bank(grid)
        f = pure_mode(grid, 6, 0)
        b3 = block(f, bank, 3)
        assert np.abs(b3.coef - f.coef).max() < 1e-15 * np.abs(f.coef).max()
        for j in [1, 2, 4]:
            assert np.abs(block(f, bank, j).coef).max() == 0.0
        assert np.abs(block(f, bank, 0).coef).max() == 0.0

    def test_almost_orthogonality_exact(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        f = random_field(grid, RNG)
        for j in bank.levels():
            for k in bank.levels():
                if abs(j - k) >= 2:
                    assert np.abs(block(block(f, bank, j), bank, k).coef).max() == 0.0
            if j >= 2:
                assert np.abs(block(block(f, bank, 0), bank, j).coef).max() == 0.0

    def test_reconstruction_on_admissible_ball(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        f = ball_limited_field(grid, RNG, 0.75 * 2.0**bank.j_max)
        total = block(f, bank, 0)
        for j in bank.levels():
            total = total + block(f, bank, j)
        scale = np.abs(f.coef).max()
        assert np.abs(total.coef - f.coef).max() < 1e-12 * scale

    def test_level_bounds_checked(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        f = random_field(grid, RNG)
        with pytest.raises(ParameterError, match="level -1 outside 0..4"):
            block(f, bank, -1)
        with pytest.raises(ParameterError, match="level 5 outside 0..4"):
            block(f, bank, bank.j_max + 1)
        # level 0 is psi: f.coef times the whole symbol inside the band
        # square, bit for bit, and zero outside it
        want = f.coef * whole_symbol(bank, 0)
        want[~in_square(grid, bank.bands[0])] = 0.0
        assert same_bits(block(f, bank, 0).coef, want)

    def test_grid_mismatch_rejected(self):
        bank = build_bank(Grid2(64))
        f = random_field(Grid2(32), RNG)
        with pytest.raises(ParameterError):
            block(f, bank, 1)


class TestEmptyLevels:
    # at box 1e-30 the lowest nonzero lattice wavenumber is near 2^102, so
    # of the 105 levels of an n = 32 bank only psi and levels 102-105 hold
    # a lattice point
    @pytest.fixture(scope="class")
    def tiny_box(self):
        bank = build_bank(Grid2(32, box_length=1e-30))
        return bank, random_field(bank.grid, np.random.default_rng(5))

    @pytest.mark.parametrize("p", [1.0, 4.0, math.inf])
    def test_empty_levels_cost_no_transform(self, tiny_box, p, monkeypatch):
        bank, f = tiny_box
        occupied = [j for j, band in enumerate(bank.bands) if band is not None]
        assert occupied == [0, 102, 103, 104, 105]
        calls = []
        ifft = np.fft.ifft

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting)
        norms = block_norms(f, bank, p)
        spent = len(calls)
        calls.clear()
        for j in occupied:
            lp_norm(block(f, bank, j), p)
        assert spent == len(calls)
        empty = np.ones(bank.j_max + 1, dtype=bool)
        empty[occupied] = False
        assert np.array_equal(norms[empty].view(np.int64), np.zeros(empty.sum(), np.int64))
        monkeypatch.undo()
        want = [lp_norm(block(f, bank, j), p) for j in occupied]
        assert list(norms[occupied]) == want

    def test_bank_holds_only_its_occupied_levels(self):
        # at box 1e-272 an n = 128 bank has 911 levels and 7 of them hold a
        # lattice point; a symbol per level would hold 912 n^2 floats
        grid = Grid2(128, box_length=1e-272)
        tracemalloc.start()
        try:
            bank = build_bank(grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert bank.j_max == 911
        assert sum(band is not None for band in bank.bands) == 7
        assert held <= 24 * 128**2 * 8

    @pytest.mark.parametrize(
        "n, box, first",
        [(128, 1e-272, 906), (32, 1e-30, 102), (64, 2.0 * math.pi, 1)],
    )
    def test_empty_levels_are_not_sampled(self, n, box, first, monkeypatch):
        # a level whose outer edge lies below the smallest nonzero |k| is
        # not sampled; the bank equals one that samples every level
        grid = Grid2(n, box_length=box)
        sampled = []

        def counting(j, r):
            sampled.append(j)
            return annulus_profile(j, r)

        monkeypatch.setattr(littlewood, "annulus_profile", counting)
        bank = build_bank(grid)
        monkeypatch.undo()
        assert sampled == list(range(first, bank.j_max + 1))
        assert bank.j_max == max_feasible_level(grid)
        full = profile_symbols(bank)
        for j, want in enumerate(full):
            got = whole_symbol(bank, j)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        m1 = np.abs(grid.index1[:, 0])
        bands = []
        for sym in full:
            rows = sym.any(axis=1)
            bands.append(int(m1[rows].max()) if rows.any() else None)
        assert bank.bands == bands

    def test_shared_empty_symbol_changes_no_value(self):
        # the same bits as the symbols sampled on every lattice point, empty
        # levels among them
        bank = build_bank(Grid2(32, box_length=1e-272))
        full = profile_symbols(bank)
        assert partition_residual(bank) == reference_partition_residual(bank, full)
        f = random_field(bank.grid, np.random.default_rng(7))
        for p in (1.0, 2.0, 4.0, math.inf):
            got, want = block_norms(f, bank, p), reference_block_norms(f, full, p)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# References that sample every symbol on the whole lattice, as the profiles
# define it, and apply it there: the bank's band squares must give the same
# bits.


def profile_symbols(bank) -> list:
    """psi, phi_1, ..., phi_J sampled on every lattice point."""
    r = bank.grid.kabs_on()
    return [lowpass_profile(r)] + [annulus_profile(j, r) for j in bank.levels()]


def reference_partition_residual(bank, full) -> float:
    total = full[0].copy()
    for sym in full[1:]:
        total = total + sym
    admissible = bank.grid.kabs_on() <= 0.75 * 2.0**bank.j_max
    return float(np.abs(total[admissible] - 1.0).max())


def reference_block_norms(f, full, p) -> np.ndarray:
    if p == 2.0:
        # the Parseval sum of each whole symbol, under block_norms' weight
        e = mode_energy(f)
        sums = [np.einsum("ij,ij,ij->", s, s, e) for s in full]
        return np.array([quadrature_root(t, 2.0, f.grid, parseval=True) for t in sums])
    return np.array([lp_norm(SpectralField(f.grid, f.coef * s), p) for s in full])


def in_square(grid, band) -> np.ndarray:
    if band is None:
        return np.zeros((grid.n, grid.n), dtype=bool)
    return (np.abs(grid.index1) <= band) & (np.abs(grid.index2) <= band)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBandSquareBank:
    # every level is held on its band square alone, and every result read
    # through it has the bits of the symbols sampled on the whole lattice
    CASES = [(128, 2.0 * math.pi), (128, 0.5 * math.pi), (256, 2.0 * math.pi), (32, 1e-272)]

    @pytest.fixture(scope="class", params=CASES, ids=["128-2pi", "128-pi/2", "256-2pi", "32-1e-272"])
    def case(self, request):
        n, box = request.param
        bank = build_bank(Grid2(n, box_length=box))
        f = random_field(bank.grid, np.random.default_rng(11))
        return bank, profile_symbols(bank), f

    def test_symbols_vanish_outside_their_squares(self, case):
        bank, full, _ = case
        for j, sym in enumerate(full):
            assert not sym[~in_square(bank.grid, bank.bands[j])].any()

    def test_blocks(self, case):
        # inside its square a block is f.coef times the whole symbol, bit for
        # bit; outside it is +0.0, where that product is a zero of either sign
        bank, full, f = case
        for j, sym in enumerate(full):
            want = f.coef * sym
            got = block(f, bank, j).coef
            assert np.array_equal(got, want)
            want[~in_square(bank.grid, bank.bands[j])] = 0.0
            assert same_bits(got, want)

    def test_partial_sums(self, case):
        # the chain of sums low_high_paraproduct accumulates with add_symbol
        bank, full, _ = case
        sym = full[0].copy()
        chain = whole_symbol(bank, 0)
        for j in range(bank.j_max + 1):
            if j:
                sym = sym + full[j]
                bank.add_symbol(j, chain)
            assert same_bits(chain, sym)
        assert partition_residual(bank) == reference_partition_residual(bank, full)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_block_norms(self, case, p):
        bank, full, f = case
        assert same_bits(block_norms(f, bank, p), reference_block_norms(f, full, p))

    def test_random_besov_field(self, case):
        # the construction of lab.random_besov_field, on whole symbols
        bank, full, _ = case
        grid = bank.grid
        for s in (0.0, 0.25):
            got = random_besov_field(bank, np.random.default_rng(3), s=s)
            noise = np.random.default_rng(3).standard_normal((grid.n, grid.n))
            white = SpectralField(grid, dealiased_coef(grid, noise))
            norms = reference_block_norms(white, full, 2.0)
            coef = np.zeros_like(white.coef)
            if norms[0] > ENERGY_FLOOR:
                coef += white.coef * full[0] / norms[0]
            for j in bank.levels():
                if norms[j] > ENERGY_FLOOR:
                    coef += white.coef * full[j] * (2.0 ** (-s * j) / norms[j])
            coef[0, 0] = 0.0
            assert same_bits(got.coef, coef)


class TestBankMemory:
    def test_bank_holds_its_band_squares(self):
        # (2 b_j + 1)^2 floats per occupied level: 1.2 MiB at n = 512, where
        # an n-by-n symbol per level held 16.3 MiB
        grid = Grid2(512)
        tracemalloc.start()
        try:
            bank = build_bank(grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        squares = sum((2 * b + 1) ** 2 for b in bank.bands if b is not None)
        assert held <= squares * 8 + 16 * 1024


class TestBesovNorm:
    def test_index_validation(self):
        with pytest.raises(ParameterError):
            BesovIndex(0.0, 0.5, 2.0)
        with pytest.raises(ParameterError):
            BesovIndex(0.0, 2.0, 0.0)
        with pytest.raises(ParameterError):
            BesovIndex(math.inf, 2.0, 2.0)
        with pytest.raises(ParameterError):
            BesovIndex(math.nan, 2.0, 2.0)
        BesovIndex(-0.5, math.inf, math.inf)  # infinite exponents are legal

    def test_single_mode_closed_form(self):
        # one active block: norm is exactly 2^(s j) times the L^p norm
        grid = Grid2(64)
        bank = build_bank(grid)
        f = pure_mode(grid, 6, 0)
        for s in [-0.5, 0.0, 1.25]:
            idx = BesovIndex(s, 2.0, 2.0)
            expected = 2.0 ** (3 * s) * grid.box_length / math.sqrt(2.0)
            assert rel_err(besov_norm(f, bank, idx), expected) < 1e-12

    def test_l2_equivalence_spread(self):
        # B^0_{2,2} and L^2 agree up to overlap constants on 200 samples
        grid = Grid2(64)
        bank = build_bank(grid)
        idx = BesovIndex(0.0, 2.0, 2.0)
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(200):
            f = ball_limited_field(grid, rng, 0.75 * 2.0**bank.j_max)
            ratios.append(besov_norm(f, bank, idx) / lp_norm(f, 2.0))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 3.0
        assert np.all(ratios > 0.5)

    def test_triangle_lower_bound(self):
        # ||f||_p <= B^0_{p,1} norm, since the blocks sum back to f
        grid = Grid2(64)
        bank = build_bank(grid)
        rng = np.random.default_rng(11)
        for p in [2.0, 4.0, math.inf]:
            idx = BesovIndex(0.0, p, 1.0)
            for _ in range(10):
                f = ball_limited_field(grid, rng, 0.75 * 2.0**bank.j_max)
                assert lp_norm(f, p) <= besov_norm(f, bank, idx) * (1 + 1e-12)

    def test_block_boundedness_uniform(self):
        # sup_j ||phi_j * f||_p stays within a fixed multiple of ||f||_p
        grid = Grid2(64)
        bank = build_bank(grid)
        rng = np.random.default_rng(13)
        for p in [2.0, 4.0, 8.0]:
            idx = BesovIndex(0.0, p, math.inf)
            for _ in range(10):
                f = ball_limited_field(grid, rng, 0.75 * 2.0**bank.j_max)
                assert besov_norm(f, bank, idx) <= 4.0 * lp_norm(f, p)

    def test_q_monotonicity_on_fields(self):
        grid = Grid2(64)
        bank = build_bank(grid)
        f = ball_limited_field(grid, RNG, 0.75 * 2.0**bank.j_max)
        prev = math.inf
        for q in [1.0, 2.0, 4.0, math.inf]:
            cur = besov_norm(f, bank, BesovIndex(-0.25, 2.0, q))
            assert cur <= prev * (1 + 1e-12)
            prev = cur


@given(
    values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    q1=st.floats(1.0, 8.0),
    q2=st.floats(1.0, 8.0),
)
@settings(max_examples=200, deadline=None)
def test_lq_sum_monotone_in_q(values, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    a, b = lq_sum(values, lo), lq_sum(values, hi)
    assert b <= a * (1 + 1e-9) + 1e-12
    assert lq_sum(values, math.inf) <= a * (1 + 1e-9) + 1e-12


class TestTimeNorms:
    def _series(self, rng, n_times=6, n=32):
        grid = Grid2(n)
        times = np.sort(rng.uniform(0.0, 1.0, n_times))
        times += np.arange(n_times) * 1e-6  # enforce strict increase
        fields = [random_field(grid, rng) * rng.uniform(0.2, 2.0) for _ in times]
        return times, fields

    def test_time_lr_constant_closed_form(self):
        times = np.linspace(0.0, 2.0, 9)
        vals = np.full(9, 3.0)
        for r in [1.0, 2.0, 5.0]:
            assert rel_err(time_lr(vals, times, r), 3.0 * 2.0 ** (1.0 / r)) < 1e-12
        assert time_lr(vals, times, math.inf) == 3.0

    def test_time_lr_rejects_bad_exponent(self):
        with pytest.raises(ParameterError):
            time_lr([1.0], [0.0], 0.5)

    def test_minkowski_direction_rowwise(self):
        # l^q over blocks of L^r in time <= L^r in time of l^q over blocks,
        # exactly as stated, whenever r <= q
        rng = np.random.default_rng(5)
        idx_weights = None
        for trial in range(50):
            times, fields = self._series(rng)
            bank = build_bank(fields[0].grid)
            mat = series_block_norms(fields, bank, 2.0)
            if idx_weights is None:
                idx_weights = np.concatenate(
                    [[1.0], 2.0 ** (-0.5 * np.arange(1, bank.j_max + 1))]
                )
            weighted = idx_weights[:, None] * mat
            for r, q in [(1.0, 2.0), (2.0, 2.0), (2.0, 4.0), (1.0, math.inf)]:
                time_first = lq_sum(
                    [time_lr(weighted[j], times, r) for j in range(len(weighted))],
                    q,
                )
                block_first = time_lr(
                    [lq_sum(weighted[:, c], q) for c in range(weighted.shape[1])],
                    times,
                    r,
                )
                assert time_first <= block_first * (1 + 1e-12)

    def test_mixed_norm_comparison(self):
        # the additive low-pass term costs at most a factor 2 on top of
        # the rowwise Minkowski inequality
        rng = np.random.default_rng(9)
        for trial in range(10):
            times, fields = self._series(rng)
            bank = build_bank(fields[0].grid)
            for r, q in [(1.0, 2.0), (2.0, 2.0), (2.0, math.inf)]:
                idx = BesovIndex(-0.5, 2.0, q)
                cl = chemin_lerner_norm(fields, times, bank, idx, r)
                lb = besov_time_norm(fields, times, bank, idx, r)
                assert cl <= 2.0 * lb * (1 + 1e-12)

    def test_sup_in_time_matches_max_sample(self):
        rng = np.random.default_rng(17)
        times, fields = self._series(rng)
        bank = build_bank(fields[0].grid)
        idx = BesovIndex(0.0, 2.0, 2.0)
        vals = [besov_norm(f, bank, idx) for f in fields]
        assert rel_err(besov_time_norm(fields, times, bank, idx, math.inf), max(vals)) < 1e-12

    def test_block_norm_matrix_consistency(self):
        rng = np.random.default_rng(21)
        times, fields = self._series(rng, n_times=3)
        bank = build_bank(fields[0].grid)
        mat = series_block_norms(fields, bank, 2.0)
        for c, f in enumerate(fields):
            col = block_norms(f, bank, 2.0)
            assert np.abs(mat[:, c] - col).max() < 1e-15 * max(col.max(), 1.0)


class TestPacketProfile:
    # the quarter box has lattice spacing 4, so the level-1 annulus
    # (3/4 <= |k| <= 8/3) holds no lattice point
    @pytest.fixture(scope="class")
    def quarter_bank(self):
        return build_bank(Grid2(128, box_length=np.pi / 2))

    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_empty_level_skipped(self, quarter_bank, p):
        f = packet_profile(quarter_bank, p, lambda j: 1.0)
        g = packet_profile(quarter_bank, p, lambda j: 0.0 if j == 1 else 1.0)
        assert np.array_equal(f.coef, g.coef)
        assert block_norms(f, quarter_bank, p)[1] == 0.0

    def test_only_empty_levels_rejected(self, quarter_bank):
        with pytest.raises(ParameterError):
            packet_profile(quarter_bank, 2.0, lambda j: 1.0 if j == 1 else 0.0)

    def test_zero_amplitudes_give_zero_field(self, quarter_bank):
        f = packet_profile(quarter_bank, 2.0, lambda j: 0.0)
        assert not f.coef.any()

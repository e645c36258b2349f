"""The march as a stream: what it yields, who folds over it, what it holds.

`mild.march` yields (t_k, theta_k, g_k, v_k) for k = 0..N, where theta_k
is the state as a field, g_k the stage-1 advection of the step from t_k
and v_k the grid values that advection read.  `solve` collects it, the
contraction ladder reads its advections as the Duhamel integrand, the
uniqueness twin runs fold their gaps over it, and the `solve` command
folds its table over it, so none of them holds a series and their memory
does not grow with the horizon.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sqglab.mild
import sqglab.spectral
from conftest import random_field, smooth_profile
from sqglab.cli import main
from sqglab.lab import random_besov_field
from sqglab.littlewood import build_bank
from sqglab.mild import SolveParams, march, picard_solve, solve
from sqglab.spectral import (
    ParameterError,
    SpectralField,
    _square,
    dealiased_advection,
    grid_symbol,
    shared_grid,
)
from sqglab.uniqueness import contraction_ladder

PARAMS = SolveParams(alpha=1.5, n=64, t_final=0.04, dt=0.0025)


@pytest.fixture(scope="module")
def grid64():
    return shared_grid(64)


@pytest.fixture(scope="module")
def bank64(grid64):
    return build_bank(grid64)


class TestMarch:
    def test_yields_every_step_with_its_advection(self, grid64):
        steps = list(march(smooth_profile(grid64), PARAMS))
        assert [t for t, _, _, _ in steps] == [k * PARAMS.dt for k in range(17)]
        assert all(g is not None and v is not None for _, _, g, v in steps[:-1])
        assert steps[-1][2:] == (None, None)
        linear = march(smooth_profile(grid64), replace(PARAMS, nonlinear=False))
        assert all((g, v) == (None, None) for _, _, g, v in linear)

    def test_stage_one_advection_is_the_integrand_at_t_k(self, grid64, bank64):
        # on the layout of the march band: the whole array of smooth data,
        # the square of n//3 of random data
        random = random_besov_field(bank64, np.random.default_rng(5)) * 0.05
        for theta0 in (smooth_profile(grid64), random):
            for k, (t, theta, g, v) in enumerate(march(theta0, PARAMS)):
                if g is not None:
                    layout = _square(theta.coef, theta.band)
                    want_g, want_v = sqglab.mild._advection(grid64, layout, theta.band, k, t)
                    assert np.array_equal(g, want_g)
                    assert np.array_equal(v, want_v)

    def test_yielded_arrays_are_never_written_again(self, grid64):
        theta0 = smooth_profile(grid64)
        kept = [
            (theta.coef, theta.coef.copy(), g, None if g is None else g.copy())
            for _, theta, g, _ in march(theta0, PARAMS)
        ]
        for coef, coef_then, g, g_then in kept:
            assert np.array_equal(coef, coef_then)
            assert g is None or np.array_equal(g, g_then)
        assert kept[0][0] is not theta0.coef

    def test_solve_keeps_every_step(self, grid64):
        theta0 = smooth_profile(grid64)
        steps = list(march(theta0, PARAMS))
        times, fields = solve(theta0, PARAMS)
        assert list(times) == [t for t, _, _, _ in steps]
        for f, (_, theta, _, _) in zip(fields, steps):
            assert np.array_equal(f.coef, theta.coef)

    def test_checks_run_on_entry(self, grid64):
        # no step is taken before a bad datum is rejected
        with pytest.raises(ParameterError):
            march(smooth_profile(grid64), replace(PARAMS, n=32))


class TestRealDataMustBeHermitian:
    def single_sided_mode(self, grid):
        # e^{i x1} alone: its grid values would be read as cos(x1)
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[1, 0] = grid.n**2
        return SpectralField(grid, coef)

    def test_march_solve_and_picard_reject_it(self, grid64):
        theta0 = self.single_sided_mode(grid64)
        assert theta0.conjugate_symmetry_defect() > 1e-12
        linear = replace(PARAMS, nonlinear=False)
        runs = ((march, PARAMS), (solve, PARAMS), (solve, linear), (picard_solve, PARAMS))
        for run, params in runs:
            with pytest.raises(ParameterError, match="conjugate-symmetric"):
                run(theta0, params)


class TestLadderReusesTheStepper:
    def test_three_advections_per_step(self, grid64, bank64, monkeypatch):
        # per step: the solution's two stages and the linear series'
        # integrand; plus G at the end of both, 3 N + 2 in all, where
        # re-deriving the solution's integrands would make 4 N + 2
        calls = []
        advection = sqglab.mild._advection

        def counting(*args):
            calls.append(args[1])
            return advection(*args)

        monkeypatch.setattr(sqglab.mild, "_advection", counting)
        horizons = (0.005, 0.01, 0.02, 0.04)
        contraction_ladder(smooth_profile(grid64), PARAMS, bank64, horizons)
        assert PARAMS.n_steps() == 16
        assert len(calls) == 50

    def test_state_at_each_horizon_is_the_march_to_it(self, grid64, bank64):
        # the ladder keeps the state at the one horizon it is asked for
        theta0 = smooth_profile(grid64)
        horizons = (0.005, 0.01, 0.02, 0.04)
        for at in horizons:
            ladder = contraction_ladder(theta0, PARAMS, bank64, horizons, state_at=at)
            for t, result in zip(horizons, ladder):
                if t == at:
                    alone = solve(theta0, replace(PARAMS, t_final=t))[1][-1]
                    assert np.array_equal(result.state.coef, alone.coef)
                else:
                    assert result.state is None

    def test_no_state_is_kept_unless_named(self, grid64, bank64):
        theta0 = smooth_profile(grid64)
        horizons = (0.005, 0.01, 0.02, 0.04)
        ladder = contraction_ladder(theta0, PARAMS, bank64, horizons)
        assert [r.state for r in ladder] == [None] * 4
        with pytest.raises(ParameterError, match="state_at"):
            contraction_ladder(theta0, PARAMS, bank64, horizons, state_at=0.03)

    def test_uniqueness_command_reads_the_fine_twin_from_the_ladder(
        self, tmp_path, monkeypatch
    ):
        # the ladder's 3 N + 2 = 50, then 4 for each of the three runs
        # at 2 dt and 16 for the dt/2 refinement: 78, where marching the
        # dt refinement again would add its 8 and make 86
        calls = []
        advection = sqglab.mild._advection

        def counting(*args):
            calls.append(args[1])
            return advection(*args)

        monkeypatch.setattr(sqglab.mild, "_advection", counting)
        argv = ["uniqueness", "alpha1", "--n", "32", "--T", "0.04", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(calls) == 78


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryFlatInHorizon:
    # at n = 64 one field is 64 KiB; 8 times the horizon adds 56 steps,
    # which a held series of one field per step would add 3.5 MiB for
    HORIZONS = (0.02, 0.16)

    def test_solve_command(self, tmp_path, capsys):
        def run(T):
            argv = ["solve", "--n", "64", "--T", str(T), "--out", str(tmp_path)]
            return lambda: main(argv)

        run(self.HORIZONS[0])()  # warm the grid, symbol and tableau caches
        short, long = (traced_peak(run(T)) for T in self.HORIZONS)
        assert long <= 1.5 * short

    def test_uniqueness_command(self, tmp_path, capsys):
        # the twin configuration runs to T/4 at 2 dt, its refinements at
        # dt and dt/2 and its perturbed twin beside it: held as series,
        # five runs would add 35 fields (2.2 MiB) over 8 times the horizon
        def run(T):
            argv = ["uniqueness", "endpoint", "--n", "64", "--T", str(T), "--out", str(tmp_path)]
            return lambda: main(argv)

        run(self.HORIZONS[0])()
        short, long = (traced_peak(run(T)) for T in self.HORIZONS)
        assert long <= 1.5 * short

    def test_contraction_ladder(self, grid64, bank64):
        theta0 = smooth_profile(grid64)

        def run(T):
            params = replace(PARAMS, t_final=T)
            horizons = [T / 8.0, T / 4.0, T / 2.0, T]
            return lambda: contraction_ladder(theta0, params, bank64, horizons)

        run(self.HORIZONS[0])()
        short, long = (traced_peak(run(T)) for T in self.HORIZONS)
        assert long <= 1.5 * short


class TestTableauCache:
    # one uniqueness command marches at dt, 2 dt and dt/2; a long-lived
    # process keeps the ETD tableaux of the last command alone
    def run(self, case, out):
        argv = ["uniqueness", case, "--n", "32", "--T", "0.04", "--out", str(out)]
        assert main(argv) == 0
        slug = f"uniqueness-{case}"
        return (out / f"{slug}.csv").read_bytes(), (out / f"{slug}-summary.txt").read_bytes()

    def test_three_commands_leave_three_tableaux(self, tmp_path, capsys):
        for case in ("endpoint", "alpha1", "mid"):
            self.run(case, tmp_path)
        assert sqglab.mild._tableau.cache_info().currsize <= 3

    def test_rebuilt_tableaux_write_the_same_bytes(self, tmp_path, capsys):
        first = self.run("endpoint", tmp_path)
        for case in ("alpha1", "mid"):
            self.run(case, tmp_path)
        misses = sqglab.mild._tableau.cache_info().misses
        assert self.run("endpoint", tmp_path) == first
        # its three tableaux were evicted and built again
        assert sqglab.mild._tableau.cache_info().misses == misses + 3

    def test_retained_memory(self, tmp_path, capsys):
        # what three commands leave behind, in n-by-n float64 arrays: 10.2
        # here (the last command's three tableaux of three arrays each,
        # and small objects), 29.4 when every tableau was kept
        sqglab.mild._tableau.cache_clear()  # no tableau built before
        self.run("super", tmp_path)  # warm the grid, symbols and parser
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for case in ("endpoint", "alpha1", "mid"):
                self.run(case, tmp_path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained <= 12 * 32**2 * 8


class TestAdvectionAllocation:
    # traced peak of one advection at n = 128, in units of one n-by-n
    # complex128 array: 2.5 with one buffer reused inside the call for the
    # transforms and the products, 3.5 with a second buffer for the
    # products, 6.5 when every transform pass and product allocated its
    # own array
    def test_traced_peak(self):
        grid = shared_grid(128)
        f = random_field(grid, np.random.default_rng(3))
        scalar = f.physical()
        dealiased_advection(grid, f.coef, scalar)  # warm the symbol cache
        peak = traced_peak(lambda: dealiased_advection(grid, f.coef, scalar))
        assert peak <= 3.0 * grid.n**2 * 16


class TestMarchWorkingSet:
    # traced peak of a random-data n = 256 march above its start, in units
    # of one n-by-n complex128 array, for a consumer that drops v_k on
    # arrival: 3.6 (the advection's buffer and grid values, and the state,
    # its advection, the predictor and the predictor's advection on the
    # band square of n//3, 0.44 each), 4.6 when the advection held its
    # embedded inverse through the velocity transforms, 5.6 when the step
    # held them all on the whole array, 7.1 when the advection kept a
    # second buffer and the grid values held their complex inverse, and
    # the step kept a product through it
    def test_traced_peak(self):
        grid = shared_grid(256)
        theta0 = random_besov_field(build_bank(grid), np.random.default_rng(1)) * 0.05
        params = SolveParams(alpha=1.5, n=256, t_final=0.01, dt=0.0025)

        def run():
            for _, _, _, values in march(theta0, params):
                del values

        run()  # warm the symbol and tableau caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 4.0 * grid.n**2 * 16


class TestBandedMarchLayout:
    def test_tableau_and_symbols_are_band_squares(self):
        # a banded march builds its ETD weights and its Riesz and gradient
        # symbols on the (2b + 1)-square alone, and no n-by-n Riesz symbol
        n, band = 64, 64 // 3
        grid = shared_grid(n, 3.0)
        theta0 = random_besov_field(build_bank(grid), np.random.default_rng(2)) * 0.05
        params = SolveParams(alpha=1.5, n=n, t_final=0.01, dt=0.0025, box_length=3.0)
        symbols, tableaux = sqglab.spectral._symbol, sqglab.mild._tableau
        symbols.cache_clear()
        tableaux.cache_clear()
        for _ in march(theta0, params):
            pass
        assert (symbols.cache_info().currsize, tableaux.cache_info().currsize) == (4, 1)
        square = (2 * band + 1,) * 2
        tab = tableaux(grid, 1.5, 0.0025, band)
        assert [a.shape for a in (tab.semigroup, tab.phi1_dt, tab.phi2_dt)] == [square] * 3
        for axis in (0, 1):
            for kind in ("riesz_perp", "gradient"):
                assert grid_symbol(grid, kind, axis, band).shape == square
        assert symbols.cache_info().misses == 4 and tableaux.cache_info().misses == 1
        # the whole-array Riesz symbol is built only now, on demand
        assert grid_symbol(grid, "riesz_perp", 0).shape == (n, n)
        assert symbols.cache_info().misses == 5

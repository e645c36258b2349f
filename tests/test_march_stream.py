"""The march as a stream: what it yields, who folds over it, what it holds.

`mild.march` yields (t_k, coef_k, g_k) for k = 0..N, where g_k is the
stage-1 advection of the step from t_k.  `solve` collects it, the
contraction ladder reads its advections as the Duhamel integrand, the
uniqueness twin runs fold their gaps over it, and the `solve` command
folds its table over it, so none of them holds a series and their memory
does not grow with the horizon.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sqglab.mild
from conftest import random_field, smooth_profile
from sqglab.cli import main
from sqglab.littlewood import build_bank
from sqglab.mild import SolveParams, march, picard_solve, solve
from sqglab.spectral import ParameterError, SpectralField, dealiased_advection, shared_grid
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
        assert [t for t, _, _ in steps] == [k * PARAMS.dt for k in range(17)]
        assert all(g is not None for _, _, g in steps[:-1])
        assert steps[-1][2] is None
        linear = march(smooth_profile(grid64), replace(PARAMS, nonlinear=False))
        assert all(g is None for _, _, g in linear)

    def test_stage_one_advection_is_the_integrand_at_t_k(self, grid64):
        for k, (t, coef, g) in enumerate(march(smooth_profile(grid64), PARAMS)):
            if g is not None:
                assert np.array_equal(g, sqglab.mild._advection_coef(grid64, coef, k, t))

    def test_yielded_arrays_are_never_written_again(self, grid64):
        theta0 = smooth_profile(grid64)
        kept = [
            (coef, coef.copy(), g, None if g is None else g.copy())
            for _, coef, g in march(theta0, PARAMS)
        ]
        for coef, coef_then, g, g_then in kept:
            assert np.array_equal(coef, coef_then)
            assert g is None or np.array_equal(g, g_then)
        assert kept[0][0] is not theta0.coef

    def test_solve_keeps_every_step(self, grid64):
        theta0 = smooth_profile(grid64)
        steps = list(march(theta0, PARAMS))
        times, fields = solve(theta0, PARAMS)
        assert list(times) == [t for t, _, _ in steps]
        for f, (_, coef, _) in zip(fields, steps):
            assert np.array_equal(f.coef, coef)

    def test_checks_run_on_entry(self, grid64):
        # no step is taken before a bad datum is rejected
        with pytest.raises(ParameterError):
            march(smooth_profile(grid64), replace(PARAMS, n=32))


class TestRealDataMustBeHermitian:
    def single_sided_mode(self, grid):
        # e^{i x1} alone: complex-valued, yet flagged real
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[1, 0] = grid.n**2
        return SpectralField(grid, coef, real=True)

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
        advection = sqglab.mild._advection_coef

        def counting(*args):
            calls.append(args[2])
            return advection(*args)

        monkeypatch.setattr(sqglab.mild, "_advection_coef", counting)
        horizons = (0.005, 0.01, 0.02, 0.04)
        contraction_ladder(smooth_profile(grid64), PARAMS, bank64, horizons)
        assert PARAMS.n_steps() == 16
        assert len(calls) == 50


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


class TestAdvectionAllocation:
    # traced peak of one advection at n = 128, in units of one n-by-n
    # complex128 array: 3.5 with two buffers reused inside the call, 6.5
    # when every transform pass and product allocated its own array
    def test_traced_peak(self):
        grid = shared_grid(128)
        f = random_field(grid, np.random.default_rng(3))
        scalar = f.physical()
        dealiased_advection(f, scalar)  # warm the symbol cache
        peak = traced_peak(lambda: dealiased_advection(f, scalar))
        assert peak <= 4.5 * grid.n**2 * 16

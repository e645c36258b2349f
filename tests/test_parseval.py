"""L^2 norms by Parseval against the physical-space quadrature they replace.

lp_norm(f, 2) and block_norms(f, bank, 2) read the coefficients and take
no inverse transform.  Every field keeps only the real part of its
inverse transform, so the sum runs over the Hermitian part of the
coefficients; that must match the Riemann sum of |physical()|^2 to
roundoff for Hermitian and non-Hermitian coefficients alike.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field, whole_symbol
from sqglab.counterexamples import bump_coefficients, bump_profile
from sqglab.littlewood import (
    block,
    block_norms,
    build_bank,
    max_feasible_level,
)
from sqglab.spectral import (
    Grid2,
    ParameterError,
    SpectralField,
    lp_norm,
    shared_grid,
)

RTOL = 1e-13


def physical_l2(f: SpectralField) -> float:
    w = np.abs(f.physical())
    return math.sqrt(np.square(w).sum() * f.grid.cell_area)


def physical_block_norms(f, bank) -> np.ndarray:
    pieces = [block(f, bank, j) for j in range(bank.j_max + 1)]
    return np.array([physical_l2(piece) for piece in pieces])


def complex_coef(grid: Grid2, rng) -> np.ndarray:
    shape = (grid.n, grid.n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fields(grid: Grid2, rng) -> dict[str, SpectralField]:
    """Fields of Hermitian and non-Hermitian coefficients on one grid."""
    return {
        "hermitian": random_field(grid, rng, band_limited=False),
        "non-hermitian real": SpectralField(grid, complex_coef(grid, rng)),
    }


class TestLpNormParseval:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_physical_sum(self, seed):
        grid = shared_grid(64)
        for name, f in fields(grid, np.random.default_rng(seed)).items():
            assert lp_norm(f, 2.0) == pytest.approx(physical_l2(f), rel=RTOL, abs=0.0), name

    def test_bump_family_coefficients(self):
        # bump coefficients sit at +2^n e1 only: far from Hermitian
        grid = Grid2(256, 40.0 * math.pi)
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        for n, c in enumerate(bump_coefficients(-0.5, 2), start=1):
            coef += c * bump_profile(np.hypot(grid.k1 - 2.0**n, grid.k2))
        f = SpectralField(grid, coef)
        assert f.conjugate_symmetry_defect() > 0.5
        assert lp_norm(f, 2.0) == pytest.approx(physical_l2(f), rel=RTOL, abs=0.0)
        # the real part keeps half the energy of a one-sided spectrum
        whole = math.sqrt(np.square(np.abs(np.fft.ifft2(coef))).sum() * grid.cell_area)
        assert lp_norm(f, 2.0) == pytest.approx(whole / math.sqrt(2.0), rel=RTOL)

    def test_zero_field_exactly_zero(self):
        grid = shared_grid(32)
        zero = SpectralField(grid, np.zeros((32, 32), dtype=np.complex128))
        assert lp_norm(zero, 2.0) == 0.0


class TestBlockNormsParseval:
    @pytest.mark.parametrize("box", [2.0 * math.pi, 0.5 * math.pi])
    def test_matches_per_block_physical_norms(self, box):
        bank = build_bank(shared_grid(128, box))
        for name, f in fields(bank.grid, np.random.default_rng(7)).items():
            np.testing.assert_allclose(
                block_norms(f, bank, 2.0), physical_block_norms(f, bank),
                rtol=RTOL, atol=0.0, err_msg=name,
            )

    def test_empty_annulus_reads_exactly_zero(self):
        # on the quarter box the lattice spacing is 4, so the level-1
        # annulus (3/4 <= |k| <= 8/3) holds no lattice point
        bank = build_bank(shared_grid(128, 0.5 * math.pi))
        assert not whole_symbol(bank, 1).any()
        f = random_field(bank.grid, np.random.default_rng(1), band_limited=False)
        norms = block_norms(f, bank, 2.0)
        assert norms[1] == 0.0
        assert np.all(norms[2:] > 0.0)

    def test_zero_field_exactly_zero(self):
        bank = build_bank(shared_grid(64))
        zero = SpectralField(bank.grid, np.zeros((64, 64), dtype=np.complex128))
        assert np.all(block_norms(zero, bank, 2.0) == 0.0)

    def test_field_and_bank_grids_must_agree(self):
        bank = build_bank(shared_grid(64))
        other = random_field(shared_grid(128), np.random.default_rng(0))
        with pytest.raises(ParameterError):
            block_norms(other, bank, 2.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    box=st.sampled_from([2.0 * math.pi, 0.5 * math.pi]),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_property(n, box, hermitian, seed):
    grid = shared_grid(n, box)
    rng = np.random.default_rng(seed)
    if hermitian:
        f = random_field(grid, rng, band_limited=False)
    else:
        f = SpectralField(grid, complex_coef(grid, rng))
    assert lp_norm(f, 2.0) == pytest.approx(physical_l2(f), rel=RTOL, abs=0.0)
    if max_feasible_level(grid) < 3:
        return  # too few dyadic levels for a bank on this grid
    bank = build_bank(grid)
    np.testing.assert_allclose(
        block_norms(f, bank, 2.0), physical_block_norms(f, bank), rtol=RTOL, atol=0.0
    )

"""Dyadic frequency decomposition, Besov norms, and time-mixed norms.

The partition of unity is built from one radial cutoff profile chi with
chi = 1 on {r <= 3/4} and chi = 0 on {r >= 4/3}, smoothed by the standard
exp(-1/u) step.  Level j >= 1 carries the annulus symbol

    phi_j(r) = chi(r / 2^j) - chi(r / 2^(j-1)),

supported on {(3/4) 2^(j-1) <= r <= (8/3) 2^(j-1)} and identically 1 on
{(2/3) 2^j <= r <= (3/4) 2^j}.  The telescoping sum gives

    psi + sum_{j<=J} phi_j = chi(r / 2^J),

so the bank resolves the identity exactly on the ball {r <= (3/4) 2^J}.
Profiles are plain functions of the radius, usable both for sampling on a
grid lattice and for continuum quadrature off the grid.  The time-mixed
norms read a sampled solution as the plain (times, fields) that
mild.solve returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import Grid2, ParameterError, SpectralField, band_slices, lp_norm, mode_energy

_PLATEAU = 3.0 / 4.0
_EDGE = 4.0 / 3.0

# norms below this count as empty: a block, a kernel or a sample with no
# energy is skipped rather than divided by
ENERGY_FLOOR = 1e-14


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, built from exp(-1/u)."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros(u.shape)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        a = np.exp(-1.0 / um)
        b = np.exp(-1.0 / (1.0 - um))
        out[mid] = a / (a + b)
    return out


def lowpass_profile(r):
    """Radial low-pass symbol: 1 on r <= 3/4, 0 on r >= 4/3."""
    r = np.asarray(r, dtype=np.float64)
    return smooth_step((_EDGE - r) / (_EDGE - _PLATEAU))


def annulus_profile(j: int, r):
    """Radial symbol of dyadic level j >= 1."""
    if j < 1:
        raise ParameterError(f"dyadic level must satisfy j >= 1, got {j}")
    r = np.asarray(r, dtype=np.float64)
    return lowpass_profile(r / 2.0**j) - lowpass_profile(r / 2.0 ** (j - 1))


def max_feasible_level(grid: Grid2) -> int:
    """Largest J with the level-J annulus inside the dealias ball."""
    j = 0
    while _EDGE * 2.0 ** (j + 1) <= grid.dealias_cutoff:
        j += 1
    return j


class DyadicBank:
    """Sampled partition of unity on a grid: one low-pass and J annuli.

    bands[j] is the largest |m1| on which the level-j symbol (0 for psi)
    is nonzero, or None when it vanishes on the whole lattice.  Every such
    empty level shares one read-only zero symbol, so the bank holds
    memory for its occupied levels only, however deep it is.  A level
    whose outer edge (4/3) 2^j lies below the smallest nonzero |k| is
    known to be empty and is not sampled at all.
    """

    def __init__(self, grid: Grid2, j_max: int):
        self.grid = grid
        self.j_max = int(j_max)
        r = grid.kabs
        self.psi_hat = lowpass_profile(r)
        empty = np.broadcast_to(0.0, r.shape)  # read-only, holds one float
        # r[0, 1] is the smallest nonzero |k|; the margin keeps a level
        # whose edge rounds onto the lattice among the sampled ones
        k_min = r[0, 1]
        self.phi_hat = []
        for j in range(1, self.j_max + 1):
            if _EDGE * 2.0**j * (1.0 + 1e-9) < k_min:
                self.phi_hat.append(empty)
                continue
            sym = annulus_profile(j, r)
            self.phi_hat.append(sym if sym.any() else empty)
        self.admissible = r <= _PLATEAU * 2.0**self.j_max
        m1 = np.abs(grid.index1[:, 0])
        self.bands = []
        for sym in (self.psi_hat, *self.phi_hat):
            self.bands.append(None if sym is empty else int(m1[sym.any(axis=1)].max()))

    def partition_residual(self) -> float:
        """max |psi + sum_j phi_j - 1| over admissible lattice frequencies."""
        total = self.psi_hat.copy()
        for sym in self.phi_hat:
            total = total + sym
        return float(np.abs(total[self.admissible] - 1.0).max())

    def levels(self) -> range:
        return range(1, self.j_max + 1)


def build_bank(grid: Grid2, j_max: int | None = None) -> DyadicBank:
    """Build the dyadic bank, defaulting to the deepest feasible level.

    Raises a parameter error when the grid cannot host at least three
    dyadic levels below its dealias cutoff, or when the requested depth
    exceeds the feasible one.
    """
    feasible = max_feasible_level(grid)
    if feasible < 3:
        raise ParameterError(
            f"grid n={grid.n}, box_length={grid.box_length:g} supports only "
            f"{feasible} dyadic levels below the dealias cutoff; at least 3 are required"
        )
    if j_max is None:
        j_max = feasible
    if j_max < 3:
        raise ParameterError(f"j_max must be at least 3, got {j_max}")
    if j_max > feasible:
        raise ParameterError(
            f"requested j_max={j_max} exceeds the feasible depth {feasible}"
        )
    return DyadicBank(grid, j_max)


def _check_bank_field(f: SpectralField, bank: DyadicBank) -> None:
    if f.grid != bank.grid:
        raise ParameterError("field and bank live on different grids")


def block(f: SpectralField, bank: DyadicBank, j: int) -> SpectralField:
    """Dyadic block f_j = phi_j * f (spectral multiplication by the symbol)."""
    _check_bank_field(f, bank)
    if not 1 <= j <= bank.j_max:
        raise ParameterError(f"level {j} outside 1..{bank.j_max}")
    return SpectralField(f.grid, f.coef * bank.phi_hat[j - 1])


def psi_block(f: SpectralField, bank: DyadicBank) -> SpectralField:
    """Low-pass part psi * f."""
    _check_bank_field(f, bank)
    return SpectralField(f.grid, f.coef * bank.psi_hat)


def band_block(f: SpectralField, bank: DyadicBank, j: int) -> SpectralField:
    """Block j of f (0 for psi), multiplied on the rows |m1| <= bank.bands[j]
    alone, where it equals block or psi_block, and zero on the rows where
    the symbol vanishes.  The level must not be empty."""
    sym = bank.phi_hat[j - 1] if j else bank.psi_hat
    coef = np.zeros_like(f.coef)
    for rows in band_slices(f.grid.n, bank.bands[j]):
        np.multiply(f.coef[rows], sym[rows], out=coef[rows])
    return SpectralField(f.grid, coef)


def s_partial(f: SpectralField, bank: DyadicBank, j: int) -> SpectralField:
    """Partial sum S_j f = psi * f + sum_{1 <= k <= j} phi_k * f."""
    _check_bank_field(f, bank)
    if not 0 <= j <= bank.j_max:
        raise ParameterError(f"level {j} outside 0..{bank.j_max}")
    sym = bank.psi_hat.copy()
    for k in range(1, j + 1):
        sym = sym + bank.phi_hat[k - 1]
    return SpectralField(f.grid, f.coef * sym)


def _check_exponent(value: float, name: str) -> float:
    value = float(value)
    if value != math.inf and not value >= 1.0:
        raise ParameterError(f"{name} must satisfy {name} >= 1 (math.inf allowed), got {value}")
    return value


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, q) of a Besov space B^s_{p,q}.

    Infinite exponents are the distinguished value math.inf, never a large
    float standing in for it.
    """

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ParameterError(f"regularity s must be finite, got {self.s}")
        _check_exponent(self.p, "p")
        _check_exponent(self.q, "q")


def lq_sum(values, q: float) -> float:
    """Discrete l^q aggregation; q = math.inf takes the max."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    if q == math.inf:
        return float(values.max())
    return float((values**q).sum() ** (1.0 / q))


def block_norms(f: SpectralField, bank: DyadicBank, p: float) -> np.ndarray:
    """L^p norms of (psi * f, phi_1 * f, ..., phi_J * f), length J + 1.

    At p = 2 no block is formed: the symbols are radial, so each block
    norm is the Parseval sum of the symbol squared against the per-mode
    energy of f, taken once for all levels.  At other p each block is
    formed and inverted on its band rows alone (see band_block), which
    gives the same floats as lp_norm(block(f, bank, j), p).  An empty
    level reads 0.0, as the transform of its zero block would, and costs
    no multiply and no transform.
    """
    _check_bank_field(f, bank)
    out = np.zeros(bank.j_max + 1)
    if p == 2.0:
        e = mode_energy(f)
        scale = f.grid.cell_area / f.grid.n**2
        for j, sym in enumerate((bank.psi_hat, *bank.phi_hat)):
            if bank.bands[j] is not None:
                out[j] = math.sqrt(scale * np.einsum("ij,ij,ij->", sym, sym, e))
        return out
    for j, band in enumerate(bank.bands):
        if band is not None:
            out[j] = lp_norm(band_block(f, bank, j), p, band)
    return out


def packet_profile(bank: DyadicBank, p: float, amplitudes) -> SpectralField:
    """Sum of origin-centered annulus kernels with prescribed L^p sizes.

    amplitudes is either a callable on the level or a sequence covering
    levels 1..j_max; each kernel is normalized to unit L^p first, so the
    block norms realize the requested law up to adjacent-filter overlap.
    A level with zero amplitude carries no packet, and neither does a
    level whose annulus holds no lattice point (coarse frequency spacing
    can leave a low annulus empty).  A parameter error is raised when some
    amplitude is nonzero but every such level is empty.
    """
    grid = bank.grid
    if callable(amplitudes):
        amps = [float(amplitudes(j)) for j in bank.levels()]
    else:
        amps = [float(a) for a in amplitudes]
        if len(amps) != bank.j_max:
            raise ParameterError(
                f"need {bank.j_max} level amplitudes, got {len(amps)}"
            )
    coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
    placed = 0
    for j, amp in zip(bank.levels(), amps):
        if amp == 0.0:
            continue
        kern = SpectralField(grid, bank.phi_hat[j - 1].astype(np.complex128))
        size = lp_norm(kern, p)
        if size < ENERGY_FLOOR:
            continue
        coef += kern.coef * (amp / size)
        placed += 1
    if placed == 0 and any(amps):
        raise ParameterError(
            f"every level with a nonzero amplitude is empty on grid n={grid.n}, "
            f"box_length={grid.box_length:g}"
        )
    return SpectralField(grid, coef)


def besov_norm(f: SpectralField, bank: DyadicBank, idx: BesovIndex) -> float:
    """||psi * f||_p + l^q over j of 2^(s j) ||phi_j * f||_p."""
    return besov_from_norms(block_norms(f, bank, idx.p), idx)


def besov_from_norms(norms, idx: BesovIndex) -> float:
    """The B^s_{p,q} sum of block norms (psi, phi_1, ..., phi_J) in hand."""
    weights = 2.0 ** (idx.s * np.arange(1, len(norms)))
    return float(norms[0] + lq_sum(weights * norms[1:], idx.q))


def time_lr(values, times, r: float) -> float:
    """L^r norm in time by the trapezoid rule; r = math.inf takes the max."""
    values = np.asarray(values, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if r != math.inf and not r >= 1.0:
        raise ParameterError(f"time exponent r must satisfy r >= 1, got {r}")
    if r == math.inf:
        return float(values.max())
    if times.size == 1:
        # a single sample carries no measure; fall back to the value itself
        return float(values[0])
    return float(np.trapezoid(values**r, times) ** (1.0 / r))


def series_block_norms(fields, bank: DyadicBank, p: float) -> np.ndarray:
    """Matrix of block norms, shape (J + 1, len(fields)); row 0 is psi."""
    out = np.empty((bank.j_max + 1, len(fields)))
    for col, f in enumerate(fields):
        out[:, col] = block_norms(f, bank, p)
    return out


def chemin_lerner_norm(fields, times, bank: DyadicBank, idx: BesovIndex, r: float) -> float:
    """Time-first mixed norm of fields sampled at times: L^r in time inside
    each block, then l^q.

    Equals ||psi*f||_{L^r L^p} + l^q_j of 2^(s j) ||phi_j*f||_{L^r L^p}.
    For r <= q this never exceeds the time-outside aggregation, by the
    integral Minkowski inequality applied row by row.
    """
    mat = series_block_norms(fields, bank, idx.p)
    return besov_from_norms([time_lr(row, times, r) for row in mat], idx)


def besov_time_norm(fields, times, bank: DyadicBank, idx: BesovIndex, r: float) -> float:
    """Time-outside mixed norm L^r(0, T; B^s_{p,q}) of fields sampled at times."""
    mat = series_block_norms(fields, bank, idx.p)
    return time_lr([besov_from_norms(col, idx) for col in mat.T], times, r)

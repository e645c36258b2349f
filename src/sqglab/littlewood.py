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

from .spectral import (
    Grid2,
    ParameterError,
    SpectralField,
    _mode_energy,
    _quadrants,
    _square,
    lp_norm,
    quadrature_root,
)

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
    is nonzero, or None when it vanishes on the whole lattice.  The
    symbols are radial, so each one vanishes outside its index square
    |m1|, |m2| <= bands[j] (smooth_step is exactly 0 past its ends), and
    the bank samples and holds only that square, (2 bands[j] + 1)^2
    floats: an empty level holds nothing, however deep the bank is.
    add_symbol expands a level onto the whole lattice.
    """

    def __init__(self, grid: Grid2, j_max: int):
        self.grid = grid
        self.j_max = int(j_max)
        r = grid.kabs
        # |k| along the m1 axis for m1 = 0..n/2-1, increasing; |k| at
        # (m1, m2) is at least its m1 entry (and its m2 entry), so a level
        # vanishes on every row and column past its last entry below the
        # edge (4/3) 2^j, computed as the profiles compute r / 2^j
        axis = r[: grid.n // 2, 0]
        self.bands = []
        self._squares = []
        for j in range(self.j_max + 1):
            bound = int(np.count_nonzero(axis / 2.0**j < _EDGE)) - 1
            if j and bound == 0:
                # only the origin lies below the edge, and an annulus
                # symbol is 1 - 1 = 0 there: empty, and not sampled
                sym = None
            else:
                near = _square(r, bound)
                sym = lowpass_profile(near) if j == 0 else annulus_profile(j, near)
                m = np.abs(np.r_[0 : bound + 1, -bound:0])
                rows = sym.any(axis=1)
                sym = _square(sym, int(m[rows].max())) if rows.any() else None
            self.bands.append(None if sym is None else sym.shape[0] // 2)
            self._squares.append(sym)

    def add_symbol(self, j: int, out: np.ndarray) -> np.ndarray:
        """Add the symbol of level j (0 for psi) into the n-by-n array out,
        in place, and return out.

        Only the level's band square is read and written: the symbol is
        +0.0 outside it, where adding it would change no value.  Into an
        array of zeros this writes the whole symbol, the same floats the
        profile gives sampled on every lattice point.
        """
        sym = self._squares[j]
        if sym is not None:
            for at, of in _quadrants(out.shape[0], self.bands[j]):
                out[at] += sym[of]
        return out

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
    """Dyadic block j of f, the symbol of level j (psi at j = 0) times f,
    with the level's band (0 for an empty level).

    The product is formed on the level's band square alone and is zero
    elsewhere.  Inside the square these are the floats of f.coef times the
    whole symbol; outside it that product is a zero too, possibly of the
    other sign.
    """
    _check_bank_field(f, bank)
    if not 0 <= j <= bank.j_max:
        raise ParameterError(f"level {j} outside 0..{bank.j_max}")
    coef = np.zeros(f.coef.shape, dtype=np.complex128)
    sym, band = bank._squares[j], bank.bands[j]
    if sym is None:
        return SpectralField(f.grid, coef, 0)
    for at, of in _quadrants(f.grid.n, band):
        np.multiply(f.coef[at], sym[of], out=coef[at])
    return SpectralField(f.grid, coef, band)


def add_block(out: np.ndarray, f: SpectralField, bank: DyadicBank, j: int, scale: float) -> None:
    """out += (block j of f, 0 for psi) * scale, in place, on the level's
    band square alone.  Outside the square that product is a zero, which
    would change no entry of out but a -0.0."""
    sym = bank._squares[j]
    if sym is not None:
        for at, of in _quadrants(f.grid.n, bank.bands[j]):
            piece = f.coef[at] * sym[of]
            piece *= scale
            out[at] += piece


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
    energy of f, taken once for all levels.  That energy is formed on the
    top occupied level's square alone (and within the band of f): every
    symbol is +0.0 outside it, so for finite coefficients the energy there
    added only +0.0 terms to each sum.  At other p each block is formed
    on its band square and inverted on its band rows alone (see block).
    An empty level reads 0.0, as the transform of its zero block would,
    and costs no multiply and no transform.
    """
    _check_bank_field(f, bank)
    out = np.zeros(bank.j_max + 1)
    if p == 2.0:
        top = max(band for band in bank.bands if band is not None)
        e = _mode_energy(f.coef, top if f.band is None else min(top, f.band))
        # one whole symbol at a time, in an array local to the call: the
        # einsum over all n^2 entries fixes the order of the sum's terms
        sym = np.zeros(e.shape)
        for j, band in enumerate(bank.bands):
            if band is not None:
                bank.add_symbol(j, sym)
                total = np.einsum("ij,ij,ij->", sym, sym, e)
                out[j] = quadrature_root(total, 2.0, f.grid, parseval=True)
                for at, _ in _quadrants(f.grid.n, band):
                    sym[at] = 0.0
        return out
    for j, band in enumerate(bank.bands):
        if band is not None:
            out[j] = lp_norm(block(f, bank, j), p)
    return out


def packet_profile(bank: DyadicBank, p: float, amplitudes) -> SpectralField:
    """Sum of origin-centered annulus kernels with prescribed L^p sizes.

    amplitudes is either a callable on the level or a sequence covering
    levels 1..j_max; each kernel is normalized to unit L^p first, so the
    block norms realize the requested law up to adjacent-filter overlap.
    A level with zero amplitude carries no packet, and neither does a
    level whose annulus holds no lattice point (coarse frequency spacing
    can leave a low annulus empty), nor one whose kernel norm lies below
    ENERGY_FLOOR.  A parameter error is raised when some amplitude is
    nonzero but no level carries a packet; it names the floor when some
    such level is nonempty.  The field has the band of the top level
    placed (0 with none).
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
    placed = floored = top = 0
    for j, amp in zip(bank.levels(), amps):
        if amp == 0.0 or bank.bands[j] is None:
            continue
        kern = SpectralField(grid, bank.add_symbol(j, np.zeros_like(coef)), bank.bands[j])
        size = lp_norm(kern, p)
        if size < ENERGY_FLOOR:
            floored += 1
            continue
        scale = amp / size
        # on the band square alone: outside it coef stays +0.0, which
        # adding the kernel's zero times scale there would leave as it is
        for at, _ in _quadrants(grid.n, bank.bands[j]):
            coef[at] += kern.coef[at] * scale
        placed += 1
        top = bank.bands[j]
    where = f"grid n={grid.n}, box_length={grid.box_length:g}"
    if placed == 0 and floored:
        raise ParameterError(
            f"every nonempty level with a nonzero amplitude has a kernel L^{p:g} norm "
            f"below the energy floor {ENERGY_FLOOR:g} on {where}"
        )
    if placed == 0 and any(amps):
        raise ParameterError(f"every level with a nonzero amplitude is empty on {where}")
    return SpectralField(grid, coef, top)


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

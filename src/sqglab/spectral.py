"""Fourier-side fields and diagonal multiplier calculus on a periodic box.

Fields live on a uniform n-by-n grid over [0, L)^2, and every field is
real: its grid values are the real part of the inverse transform of its
coefficients, which depends on their Hermitian part
h(k) = (c(k) + conj(c(-k)))/2 alone.  No operation makes a complex field.
Coefficients follow the numpy ``fft2`` layout: integer frequency indices run over [-n/2, n/2) per
axis and the physical wavenumber of index m is k = (2*pi/L) * m.  Every
operator in this module is a diagonal multiplier on those coefficients.
Pointwise products are formed on the grid: :func:`grid_velocity` and
:func:`grid_gradient` give the factors' grid values, and
:func:`dealiased_coef` transforms the product back and truncates it by
the 2/3 rule; :func:`dealiased_advection` does both for the march.
This module is the only one that calls ``np.fft``.  L^2 norms are
Parseval sums over the coefficients and take no transform; every other
L^p norm reads the inverse transform.

Every 2-D transform is two 1-D passes in numpy's own ``fft2`` order, axis 1
then axis 0, which equals ``np.fft.fft2``/``ifft2`` byte for byte.  Two
kinds of pass are skipped, and neither moves a bit of a result that is
kept.  A field may carry a band b (see SpectralField): every coefficient
with max(|m1|, |m2|) > b is a zero.  Its inverse transforms run pass 1 on
the band rows alone, since the transform of a zero row is zero, and its
Parseval sums form the energy on the band square alone.  A forward
transform truncated by the 2/3 rule runs pass 2 only on the kept columns
|m2| <= n//3: inside the kept square max(|m1|, |m2|) <= n//3 it holds the
floats of ``fft2(v)``, and +0.0 outside it.  Its field has band n//3.  A
march keeps the band of its datum, widened to n//3 (see mild.march); a
datum given by grid values has none.

The layout of a band b is the (2b + 1)-square copy of the square
|m1|, |m2| <= b, in fft order along each axis (0..b, then -b..-1):
_square cuts it from an n-by-n array and _embed writes it back into one
of +0.0.  The layout of no band is the whole array, where both are the
identity, so code written on layouts serves both by one path.  An
elementwise operation on the layout gives the floats it gives on the
square of the whole array.  A banded march holds its states, advections
and ETD weights on its layout, and grid_symbol and dealiased_advection
take a band to build their symbols and result there.  A Grid2 holds no
n-by-n array: Grid2.kabs_on builds |k| on the layout that reads it, from
the 1-D wavenumbers, and the kept square is cut by slices.

Conventions kept throughout the package:

* axis 0 of an array is the x1 direction, axis 1 is x2,
* perp gradient is (-d/dx2, d/dx1),
* Lambda = (-Laplacian)^(1/2) has symbol |k|, with the k = 0 coefficient
  mapped to zero by every negative-order multiplier.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np


class ParameterError(ValueError):
    """An argument fell outside the supported parameter range."""


# a larger grid is refused before any n-by-n array exists; one complex
# n-by-n array takes 16 n^2 bytes, 64 MiB at n = 2048
MAX_GRID_N = 2048
_SMALLEST_NORMAL = sys.float_info.min


def _check_alpha(alpha: float) -> float:
    """The dissipation order alpha as a float, refused outside (0, 2]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    return alpha


def _check_exponent(value: float, name: str) -> None:
    """Refuse an integrability exponent that is neither >= 1 nor math.inf."""
    if value != math.inf and not value >= 1.0:
        raise ParameterError(f"exponent {name} must be >= 1 or inf, got {value}")


def _check_same_grid(a: "Grid2", b: "Grid2") -> None:
    if a != b:
        raise ParameterError(f"operands live on different grids: {a!r} and {b!r}")


class Grid2:
    """Uniform periodic grid on [0, box_length)^2 and its frequency lattice.

    A grid holds O(n) memory: the 1-D wavenumbers and sample points, and
    read-only n-by-n broadcast views of them (index1, index2, k1, k2, x1,
    x2).  It stores no n-by-n array; kabs_on builds |k| on the layout a
    caller reads, and the 2/3 rule's kept square is cut by slices (see
    band_slices).

    Parameters
    ----------
    n : int
        Samples per axis.  Must be a power of two, at least 16, so that
        dyadic frequency decompositions nest cleanly, and at most
        MAX_GRID_N.
    box_length : float
        Side length L of the periodic box.
    """

    def __init__(self, n: int, box_length: float = 2.0 * math.pi):
        n = int(n)
        if n < 16 or (n & (n - 1)) != 0:
            raise ParameterError(f"grid size must be a power of two >= 16, got {n}")
        if n > MAX_GRID_N:
            raise ParameterError(f"grid size {n} exceeds the budget {MAX_GRID_N}")
        box_length = float(box_length)
        if not box_length > 0.0 or not math.isfinite(box_length):
            raise ParameterError(f"box_length must be positive and finite, got {box_length}")
        self.n = n
        self.box_length = box_length

        idx = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        self.index1 = np.broadcast_to(idx[:, None], (n, n))
        self.index2 = np.broadcast_to(idx[None, :], (n, n))
        unit = 2.0 * math.pi / box_length
        if not math.isfinite(unit * n):
            raise ParameterError(f"box_length {box_length} is too small: wavenumbers overflow")
        k = unit * idx
        # read-only views of one column or row: shared_grid and the symbol
        # caches hand one grid to every caller
        self.k1 = np.broadcast_to(k[:, None], (n, n))
        self.k2 = np.broadcast_to(k[None, :], (n, n))

        x = box_length * np.arange(n) / n
        self.x1 = np.broadcast_to(x[:, None], (n, n))
        self.x2 = np.broadcast_to(x[None, :], (n, n))

        # the 2/3 rule keeps the square max(|m1|, |m2|) <= n//3.  Every
        # lattice point of radius <= unit*n/3 lies in it, so the square
        # contains the full radial ball used by the dyadic machinery.
        self.dealias_cutoff = unit * (n / 3.0)
        self.cell_area = (box_length / n) ** 2

    def kabs_on(self, band: int | None = None) -> np.ndarray:
        """|k| = hypot(k1, k2) on the layout of band (see _square), the
        whole n-by-n array at None: a fresh array, the floats of the same
        pairs on the whole lattice.  The grid holds no n-by-n array, so
        each caller builds |k| on the layout it reads, once."""
        k = _wavenumbers(self, band)
        return np.hypot(k[:, None], k[None, :])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid2)
            and other.n == self.n
            and other.box_length == self.box_length
        )

    def __hash__(self):
        return hash((self.n, self.box_length))

    def __repr__(self) -> str:
        return f"Grid2(n={self.n}, box_length={self.box_length!r})"


@functools.lru_cache(maxsize=32)
def shared_grid(n: int, box_length: float = 2.0 * math.pi) -> Grid2:
    """Memoized grid factory; instances compare equal by (n, box_length)."""
    return Grid2(n, box_length)


def band_slices(n: int, band: int) -> tuple[slice, slice]:
    """Slices of the indices |m| <= band along an axis of n, in fft order."""
    return slice(0, band + 1), slice(n - band, n)


def _wavenumbers(grid: Grid2, band: int | None) -> np.ndarray:
    """The 1-D wavenumbers along either axis on the layout of band (see
    _square): those of |m| <= band in fft order, or all n at None."""
    k = grid.k1[:, 0]
    if band is None:
        return k
    return np.concatenate([k[s] for s in band_slices(grid.n, band)])


@functools.lru_cache(maxsize=64)
def _quadrants(n: int, band: int | None) -> tuple:
    """The square |m1|, |m2| <= band of an fft-ordered n-by-n array as four
    (at, of) pairs of index tuples: at in the n-by-n array, of in its
    layout, the (2 band + 1)-square copy, which keeps the fft order
    (0..band, then -band..-1) along each axis.  At band None the layout is
    the whole array, one pair of whole slices."""
    if band is None:
        whole = (slice(None), slice(None))
        return ((whole, whole),)
    full, copy = band_slices(n, band), band_slices(2 * band + 1, band)
    return tuple(
        ((rows, cols), (copy_rows, copy_cols))
        for rows, copy_rows in zip(full, copy)
        for cols, copy_cols in zip(full, copy)
    )


def _square(a: np.ndarray, band: int | None) -> np.ndarray:
    """The layout of band of the fft-ordered square array a: a copy of the
    square |m1|, |m2| <= band (see _quadrants), or a itself at band None."""
    if band is None:
        return a
    out = np.empty((2 * band + 1, 2 * band + 1), dtype=a.dtype)
    for at, of in _quadrants(a.shape[0], band):
        out[of] = a[at]
    return out


def _embed(s: np.ndarray, n: int, band: int | None) -> np.ndarray:
    """The inverse of _square: the layout array s of band written into an
    n-by-n array of +0.0, or s itself at band None."""
    if band is None:
        return s
    out = np.zeros((n, n), dtype=s.dtype)
    for at, of in _quadrants(n, band):
        out[at] = s[of]
    return out


def _inverse(coef: np.ndarray, band: int | None = None, w: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform of the complex array coef, written into w and
    returned.  Without w a fresh array is made; w may be coef itself.

    With band, every row |m1| > band of coef must be zero; pass 1 reads
    only the band rows, and the other rows of a fresh w are zeros.
    """
    if w is None:
        w = np.empty_like(coef) if band is None else np.zeros_like(coef)
    if band is None:
        np.fft.ifft(coef, axis=1, out=w)
    else:
        for rows in band_slices(coef.shape[0], band):
            np.fft.ifft(coef[rows], axis=1, out=w[rows])
    return np.fft.ifft(w, axis=0, out=w)


def _forward(w: np.ndarray, grid: Grid2 | None = None) -> np.ndarray:
    """Forward transform of the complex array w, in place.  Given the grid,
    the result is truncated by the 2/3 rule: pass 2 runs only on the kept
    columns |m2| <= n//3, and the rows and columns outside the kept square
    are set to +0.0.  Inside the square max(|m1|, |m2|) <= n//3 the result
    holds the floats of fft2 of w, since a column's pass-2 transform reads
    that column alone."""
    np.fft.fft(w, axis=1, out=w)
    if grid is None:
        return np.fft.fft(w, axis=0, out=w)
    n, m = grid.n, grid.n // 3
    for cols in band_slices(n, m):
        np.fft.fft(w[:, cols], axis=0, out=w[:, cols])
    w[:, m + 1 : n - m] = 0.0
    w[m + 1 : n - m, :] = 0.0
    return w


def _mirror(coef: np.ndarray) -> np.ndarray:
    """The coefficient array at negated frequencies, c(-k), as a new array."""
    return np.roll(coef[::-1, ::-1], 1, axis=(0, 1))


def _joint_band(a: int | None, b: int | None) -> int | None:
    """The band of a sum: the wider of two known bands, else unknown."""
    return None if a is None or b is None else max(a, b)


class SpectralField:
    """Real scalar field on a :class:`Grid2`, stored by its fft2 coefficients.

    A coefficient array need not be conjugate-symmetric; the field is the
    real part of its inverse transform all the same (see mode_energy).

    band is a promise about coef: every coefficient with
    max(|m1|, |m2|) > band is a zero, +0.0 or -0.0.  None promises nothing,
    and so does a band of n//2 or more, which is stored as None.  The
    inverse transforms and Parseval sums of the field read only the band
    square, which moves no bit: the work skipped only ever added zeros.
    A raw coefficient array and from_physical give None; the dyadic blocks
    and dealiased_field give theirs.  Diagonal multipliers,
    negation and a finite real scalar keep the band, and a sum or
    difference takes the wider of two known bands.  Whoever writes into
    coef outside the band square must drop the band.
    """

    __slots__ = ("grid", "coef", "band")

    def __init__(self, grid: Grid2, coef: np.ndarray, band: int | None = None):
        if coef.shape != (grid.n, grid.n):
            raise ParameterError(
                f"coefficient array shape {coef.shape} does not match grid n={grid.n}"
            )
        if band is not None:
            band = int(band)
            if band < 0:
                raise ParameterError(f"band must be nonnegative, got {band}")
        self.grid = grid
        self.coef = np.asarray(coef, dtype=np.complex128)
        # a square of n//2 or more holds every index: nothing to skip
        self.band = band if band is None or band < grid.n // 2 else None

    @classmethod
    def from_physical(cls, grid: Grid2, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n, grid.n):
            raise ParameterError(
                f"value array shape {values.shape} does not match grid n={grid.n}"
            )
        return cls(grid, _forward(values.astype(np.complex128)))

    def physical(self) -> np.ndarray:
        return _inverse(self.coef, self.band).real

    def mean(self) -> float:
        """Average of the field over the box (the k = 0 amplitude)."""
        return (self.coef[0, 0] / self.grid.n**2).real

    def conjugate_symmetry_defect(self) -> float:
        """Relative departure from c(-k) = conj(c(k))."""
        c = self.coef
        mirrored = _mirror(c)
        scale = np.abs(c).max()
        if scale == 0.0:
            return 0.0
        return float(np.abs(c - np.conj(mirrored)).max() / scale)

    # Linear-space arithmetic; products belong to physical space.
    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self.grid, other.grid)
        return SpectralField(
            self.grid, self.coef + other.coef, _joint_band(self.band, other.band)
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self.grid, other.grid)
        return SpectralField(
            self.grid, self.coef - other.coef, _joint_band(self.band, other.band)
        )

    def __mul__(self, scalar: float) -> "SpectralField":
        if np.iscomplexobj(scalar):
            raise ParameterError(f"a field scales by a real number, got {scalar!r}")
        # an infinite or nan scalar makes a nan of every zero
        band = self.band if math.isfinite(scalar) else None
        return SpectralField(self.grid, self.coef * scalar, band)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coef, self.band)


def grid_symbol(
    grid: Grid2, kind: str, axis: int | None = None, band: int | None = None
) -> np.ndarray:
    """The shared, read-only symbol of a kind that depends on the grid
    alone, on the layout of band (the whole array at band None, see
    _square).

    ``inverse_lambda``  1/|k|, 0 at k = 0                  (axis None)
    ``gradient``        i*k_axis, one row or column broadcast to
                        the layout's square                (axis 0 or 1)
    ``riesz_perp``      i*kperp_axis/|k|, 0 at k = 0        (axis 0 or 1)

    Negative-order symbols send the mean mode to zero; that is the only
    sane convention on the torus, where Lambda annihilates constants.
    Each symbol is built once per grid, axis and band, on its layout
    alone, with the floats its entries have on the whole array.
    """
    # one cache key however the caller spells the arguments
    return _symbol(grid, kind, axis, band)


@functools.lru_cache(maxsize=16)
def _symbol(grid: Grid2, kind: str, axis: int | None, band: int | None) -> np.ndarray:
    if kind == "gradient" and axis in (0, 1):
        # one row or column, viewed as the layout's square so that it can
        # be cut into quadrants like the other symbols
        k = _wavenumbers(grid, band)
        sym = np.broadcast_to(1j * (k[:, None] if axis == 0 else k[None, :]), (k.size, k.size))
    elif kind == "inverse_lambda" and axis is None:
        kabs = grid.kabs_on(band)
        with np.errstate(divide="ignore"):
            sym = np.where(kabs > 0.0, 1.0 / np.where(kabs > 0.0, kabs, 1.0), 0.0)
    elif kind == "riesz_perp" and axis in (0, 1):
        kabs = grid.kabs_on(band)
        k = _wavenumbers(grid, band)
        kperp = -k[None, :] if axis == 0 else k[:, None]
        safe = np.where(kabs > 0.0, kabs, 1.0)
        sym = np.where(kabs > 0.0, 1j * kperp / safe, 0.0)
    elif kind in ("inverse_lambda", "gradient", "riesz_perp"):
        raise ParameterError(f"no axis {axis!r} for the {kind} symbol")
    else:
        raise ParameterError(f"unknown symbol kind {kind!r}")
    sym.flags.writeable = False
    return sym


def _apply(field: SpectralField, symbol: np.ndarray) -> SpectralField:
    """The finite symbol times field; a zero stays a zero, so the band holds."""
    return SpectralField(field.grid, symbol * field.coef, field.band)


def fractional_laplacian(field: SpectralField, alpha: float) -> SpectralField:
    """Apply Lambda^alpha = (-Laplacian)^(alpha/2), alpha in (0, 2]."""
    return _apply(field, field.grid.kabs_on() ** _check_alpha(alpha))


def inverse_lambda(field: SpectralField) -> SpectralField:
    """Apply Lambda^(-1); the mean mode is sent to zero."""
    return _apply(field, grid_symbol(field.grid, "inverse_lambda"))


def gradient(field: SpectralField, axis: int) -> SpectralField:
    """Partial derivative along axis (0 for x1, 1 for x2)."""
    # checked here, since an unhashable axis would fail inside the cache
    if axis not in (0, 1):
        raise ParameterError(f"gradient axis must be 0 or 1, got {axis!r}")
    return _apply(field, grid_symbol(field.grid, "gradient", axis))


def riesz_perp_velocity(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity u = perp-grad Lambda^(-1) theta.

    Componentwise u_hat(k) = i * kperp / |k| * theta_hat(k) with
    kperp = (-k2, k1) and u_hat(0) = 0.  The spectral divergence of the
    result vanishes identically because k . kperp = 0 mode by mode.
    """
    return tuple(_apply(field, grid_symbol(field.grid, "riesz_perp", axis)) for axis in (0, 1))


def semigroup_apply(field: SpectralField, alpha: float, t: float) -> SpectralField:
    """Apply the dissipative semigroup exp(-t Lambda^alpha), finite t >= 0.

    On a field with a band the symbol is formed and applied on the band
    square alone, and the result is +0.0 outside it.
    """
    alpha = _check_alpha(alpha)
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ParameterError(f"semigroup time must be finite and nonnegative, got {t}")
    band = field.band
    # the symbol on the layout of the band, where the field can be nonzero
    sym = np.exp(-t * field.grid.kabs_on(band) ** alpha)
    coef = np.empty_like(field.coef) if band is None else np.zeros_like(field.coef)
    for at, of in _quadrants(field.grid.n, band):
        np.multiply(sym[of], field.coef[at], out=coef[at])
    return SpectralField(field.grid, coef, band)


def dealias(field: SpectralField) -> SpectralField:
    """Zero every coefficient with max(|m1|, |m2|) above the 2/3 cutoff:
    the kept square is copied as it is, and +0.0 written outside it.

    With both factors of a pointwise product supported inside the retained
    square, aliasing from the product lands entirely outside it, so
    truncating the product reproduces the exact truncated convolution.
    """
    n, m = field.grid.n, field.grid.n // 3
    band = m if field.band is None else min(field.band, m)
    return SpectralField(field.grid, _embed(_square(field.coef, m), n, m), band)


def grid_velocity(field: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Grid values of the velocity perp-grad Lambda^(-1) field (see riesz_perp_velocity)."""
    return tuple(
        _inverse(grid_symbol(field.grid, "riesz_perp", axis) * field.coef, field.band).real
        for axis in (0, 1)
    )


def grid_gradient(field: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Grid values of the two partial derivatives of field."""
    return tuple(
        _inverse(grid_symbol(field.grid, "gradient", axis) * field.coef, field.band).real
        for axis in (0, 1)
    )


def dealiased_coef(grid: Grid2, values: np.ndarray) -> np.ndarray:
    """Coefficients of a grid product, truncated by the 2/3 rule (see dealias)."""
    return _forward(values.astype(np.complex128), grid)


def dealiased_field(grid: Grid2, values: np.ndarray) -> SpectralField:
    """The field of dealiased_coef(grid, values), with its band n//3."""
    return SpectralField(grid, dealiased_coef(grid, values), grid.n // 3)


def dealiased_advection(
    grid: Grid2, c: np.ndarray, scalar: np.ndarray, band: int | None = None
) -> np.ndarray:
    """Coefficients of -div(u s) on the layout of band (see _square), u the
    velocity of the field whose layout array is c and s grid values, each
    product u_i s truncated by the 2/3 rule as by dealiased_coef.

    A band, when given, is at least n//3, so that the truncated products
    lie inside its square.  The Riesz and gradient symbols are read on the
    layout alone.  One n-by-n buffer is reused within the call, so that a
    march pass allocates little: symbol times c is written into the
    quadrants of the square, the buffer being +0.0 outside it both when
    made and after each truncated forward transform; the velocity
    component is transformed in place, skipping the rows outside the
    band; the product with s is formed in the same buffer (its real part
    times s, and an imaginary part of +0.0, as a cast of the real product
    would give), and that is transformed forward in place.  The result is
    a fresh array on the layout.
    """
    n = grid.n
    if band is not None and not n // 3 <= band < n // 2:
        raise ParameterError(f"advection band must lie in [n//3, n/2), got {band} at n={n}")
    w = np.empty((n, n), dtype=np.complex128) if band is None else np.zeros((n, n), np.complex128)
    quadrants = _quadrants(n, band)
    out = np.empty_like(c)
    for axis in (0, 1):
        riesz = grid_symbol(grid, "riesz_perp", axis, band)
        for at, of in quadrants:
            np.multiply(riesz[of], c[of], out=w[at])
        _inverse(w, band, w)
        w.real *= scalar
        w.imag = 0.0
        _forward(w, grid)
        grad = grid_symbol(grid, "gradient", axis, band)
        for at, of in quadrants:
            if axis == 0:
                np.multiply(grad[of], w[at], out=out[of])
            else:
                out[of] += np.multiply(grad[of], w[at], out=w[at])
    return np.negative(out, out=out)


def mode_energy(field: SpectralField) -> np.ndarray:
    """Per-mode energy |h(k)|^2 of the coefficients physical() inverts.

    A field keeps only the real part of its inverse transform, which is
    the transform of the Hermitian part h(k) = (c(k) + conj(c(-k)))/2.
    By Parseval the L^2 norm of any diagonal
    multiplier m applied to the field is sqrt(cell_area/n^2 * sum m^2 e)
    whenever m(k) = m(-k), as for every radial symbol.  With a band the
    energy is formed on the band square alone (see _mode_energy).
    """
    return _mode_energy(field.coef, field.band)


def _mode_energy(coef: np.ndarray, band: int | None = None) -> np.ndarray:
    """mode_energy of the coefficients coef, on the square |m1|, |m2| <= band
    alone when band is given.

    That square is its own mirror, so its Hermitian part takes the same
    floats as on the whole array.  It is written into an n-by-n array of
    +0.0, the energy of every zero outside it, so a sum over the result
    reads the same array as without the band.
    """
    c = _square(coef, band)
    h = _mirror(c)
    np.conjugate(h, out=h)
    h += c
    h *= 0.5
    e = np.square(h.real)
    e += np.square(h.imag)
    return _embed(e, coef.shape[0], band)


def lp_norm(field: SpectralField, p: float) -> float:
    """L^p norm over the box via the uniform-grid quadrature.

    On a periodic uniform grid the trapezoid rule collapses to the plain
    Riemann sum (L/n)^2 * sum |f|^p.  p = math.inf returns the grid max;
    p = 2 is the same sum taken by Parseval over the coefficients.  Where
    the sum of |f|^p under- or overflows (a large finite p), it is taken
    over (|f| / max |f|)^p and scaled back by max |f|.  The transform and
    the Parseval sum (see mode_energy) read the band square of the field
    alone.
    """
    if p == 2.0:
        return quadrature_root(mode_energy(field).sum(), p, field.grid, parseval=True)
    return grid_lp_norms(field.grid, field.physical(), (p,))[0]


def quadrature_root(total, p: float, grid: Grid2, parseval: bool = False) -> float:
    """(scale * total)^(1/p), the L^p norm whose p-th powers sum to total.

    The weight scale = side^2 is the cell area, side = L/n, for a sum over
    grid values, and cell_area / n^2, side = L/n^2, for a Parseval sum
    over coefficients.  Where scale is below the smallest normal float (a
    box below about 1.5e-154 n, or 1.5e-154 n^2 for Parseval) it has lost
    bits or reads 0.0, so the root is taken first, total^(1/p) side^(2/p),
    and a representable norm stays so.  Any other scale keeps the bits of
    the plain form.
    """
    side, scale = grid.box_length / grid.n, grid.cell_area
    if parseval:
        side, scale = side / grid.n, scale / grid.n**2
    if scale < _SMALLEST_NORMAL:
        # side^(1/p) twice: side^(2/p) itself underflows for p near 1
        side_root = side ** (1.0 / p)
        return float(total ** (1.0 / p) * side_root * side_root)
    if p == 1.0:
        return float(total * scale)
    if p == 2.0:
        return math.sqrt(scale * total)
    return float((total * scale) ** (1.0 / p))


def grid_lp_norms(grid: Grid2, values: np.ndarray, ps) -> list[float]:
    """L^p norms of the grid values of a field on grid, for each exponent
    in ps, by the quadrature of lp_norm; p = 2 too is the sum over the
    grid here, where lp_norm takes it by Parseval.
    """
    for p in ps:
        _check_exponent(p, "p")
    w = np.abs(values)
    out = []
    for p in ps:
        if p == math.inf:
            out.append(float(w.max()))
        elif p == 1.0:
            out.append(quadrature_root(w.sum(), p, grid))
        else:
            with np.errstate(over="ignore"):
                total = np.power(w, p).sum()
            peak = w.max() if total == 0.0 or total == math.inf else 0.0
            if 0.0 < peak < math.inf:
                # the plain sum under- or overflowed (large p): sum the
                # p-th powers of w / max instead; a sum that did neither
                # never comes here, so its result keeps its bits
                total = np.power(w / peak, p).sum()
                out.append(float(quadrature_root(total, p, grid) * peak))
            else:
                out.append(quadrature_root(total, p, grid))
    return out

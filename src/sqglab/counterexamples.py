"""Frequency-bump constructions showing when dyadic products diverge.

The data are finite sums of smooth frequency bumps with the coefficients
c_n = 2^(-s n) n^(-2) of bump_coefficients,

    f_N = sum_{n=1..N} c_n * (bump of radius 1/10 at +2^n e1),

paired in a1 against g_N, the same sum at -2^n e1; the a3 family puts
bump n at both +2^n e1 and -2^n e1.  Tested against the low-pass test
function, the single product (d/dx1 Lambda^(-1) f) g produces the
divergent series sum 2^(-2 s n) n^(-4) for s < 0, while the symmetrized
sum of two products cancels; the Lambda^(-1)-weighted product diverges
exactly when the exponent -2s-1 is positive.

All pairings are evaluated as frequency-domain integrals over the compact
bump supports, in coordinates translated to each bump center, so the
centers 2^n never enter a grid resolution budget.  Because every integrand
is smooth and compactly supported inside the quadrature box, the tensor
midpoint rule converges superalgebraically; a Richardson comparison
between two node counts guards every returned value.

The costly parts depend on the node count m alone, so each is computed
once per m and shared read-only: the bump self-correlation (memoized, its
chi(w + v) coupling built chunk by chunk) and the support block of the
magnitude series.  That block keeps the rows w with chi(w) > 0 and w2 >= 0
and the columns v with chi(v) > 0 (224 x 448 floats, 0.8 MB, at m = 24):
every other entry of the integrand is exactly 0, and the integrand is
unchanged under (w2, v2) -> (-w2, -v2), so each row with w2 > 0 stands
for its mirror row too.

Both tables run through one sweep over N: each term integral is computed
once per node count, in a table that lives for that one call and grows
only as far as the N being refined, and every N sums its own terms in
order, so each row is the float an evaluation of that N alone gives.

Scale conventions: bump-norm units (the L^p norm of a single bump is the
unit), and pairing values drop the overall factor i of the derivative
symbol, matching the real lower bounds they are compared against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .littlewood import lowpass_profile, smooth_step
from .spectral import ParameterError

BUMP_SUPPORT = 0.1
BUMP_PLATEAU = 0.05

# Richardson refinement: node counts double from M0 up to MAX_M until two
# evaluations agree to RTOL
RICHARDSON_M0 = 16
RICHARDSON_MAX_M = 64
RICHARDSON_RTOL = 0.01

# the a1 table's first row; each row's growth ratio compares it with the last
A1_FIRST_TERMS = 2


class RefinementError(RuntimeError):
    """Quadrature failed its Richardson convergence check."""

    def __init__(self, estimate: float, tolerance: float):
        self.estimate = estimate
        self.tolerance = tolerance
        super().__init__(
            f"quadrature refinement estimate {estimate:.3e} exceeds "
            f"tolerance {tolerance:.3e} at the maximum node count"
        )


def bump_profile(r):
    """Radial bump: 1 on r <= 1/20, 0 on r >= 1/10, smooth in between."""
    r = np.asarray(r, dtype=np.float64)
    return smooth_step((BUMP_SUPPORT - r) / (BUMP_SUPPORT - BUMP_PLATEAU))


def bump_coefficients(s: float, n_terms: int) -> np.ndarray:
    """The coefficients c_n = 2^(-s n) n^(-2), n = 1..n_terms, of the bumps."""
    if not s < 0.0:
        raise ParameterError(f"bump construction requires s < 0, got {s}")
    if n_terms < 0:
        raise ParameterError(f"n_terms must be nonnegative, got {n_terms}")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    return 2.0 ** (-s * n) * n**-2.0


def lower_bound_sum(s: float, n_terms: int) -> float:
    """Partial sum sum_{n<=N} 2^(-2 s n) n^(-4) (single-product lower bound)."""
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    return float(np.sum(2.0 ** (-2.0 * s * n) * n**-4.0))


def a3_lower_sum(s: float, n_terms: int) -> float:
    """Partial sum sum_{n<=N} 2^((-2s-1) n) n^(-4) (product-norm lower bound)."""
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    return float(np.sum(2.0 ** ((-2.0 * s - 1.0) * n) * n**-4.0))


# ---------------------------------------------------------------------------
# Midpoint quadrature over the bump ball
# ---------------------------------------------------------------------------


def _midpoint_1d(m: int) -> tuple[np.ndarray, float]:
    h = 2.0 * BUMP_SUPPORT / m
    return -BUMP_SUPPORT + (np.arange(m) + 0.5) * h, h


def _bump_nodes(m: int):
    """Flattened 2D midpoint nodes over the bump box with chi values."""
    x, h = _midpoint_1d(m)
    w1 = np.repeat(x, m)
    w2 = np.tile(x, m)
    chi = bump_profile(np.hypot(w1, w2))
    return w1, w2, chi, h * h


@functools.lru_cache(maxsize=4)
def _self_correlation(m: int, chunk: int = 128):
    """C(w) = int chi(v) chi(w + v) dv on the midpoint nodes, plus nodes.

    The O(m^4) sum depends on m alone: it is computed once per node count
    and shared, so the returned arrays are read-only.  Each entry sums its
    own row of couplings over all m^2 nodes, so the chunk (rows per block)
    bounds the working set at chunk x m^2 floats and moves no bit.  The
    node sums w + v of a chunk are temporaries, dropped once its coupling
    chi(w + v) is built.
    """
    w1, w2, chi, da = _bump_nodes(m)
    corr = np.empty(w1.size)
    for start in range(0, w1.size, chunk):
        rows = slice(start, min(start + chunk, w1.size))
        coupling = bump_profile(
            np.hypot(w1[rows, None] + w1[None, :], w2[rows, None] + w2[None, :])
        )
        corr[rows] = (coupling * chi[None, :]).sum(axis=1) * da
    for a in (w1, w2, chi, corr):
        a.flags.writeable = False
    return w1, w2, chi, da, corr


def _kernel_plus(n: int, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(2^n + w1)/|2^n e1 + w|, the derivative symbol near the f bump; at
    -w1 it is the mirrored symbol (2^n - w1)/|2^n e1 - w| near the g bump."""
    c = 2.0**n
    return (c + w1) / np.hypot(c + w1, w2)


class _TermIntegrals:
    """Per-term integrals term(i, *nodes_of_m(m)) of one kind, for
    i = 1, 2, ... at each node count m.

    A term depends on neither s nor N, so a table evaluates each one once
    and grows per node count only as far as the deepest N asked for.  A
    table lives for one call.
    """

    def __init__(self, nodes_of_m, term):
        self.nodes_of_m = nodes_of_m
        self.term = term
        self._by_m = {}  # m -> (nodes, [term 1, term 2, ...])

    def __call__(self, m: int, n_terms: int):
        """The nodes at m and the first n_terms term integrals there."""
        if m not in self._by_m:
            self._by_m[m] = (self.nodes_of_m(m), [])
        nodes, done = self._by_m[m]
        for i in range(len(done) + 1, n_terms + 1):
            done.append(self.term(i, *nodes))
        return nodes, done[:n_terms]


def _a1_nodes(m: int):
    """The nodes w and the weight chi(w) C(w) da of the a1 term integrals
    I_i = int kernel_i(w) chi(w) C(w) dw.

    In coordinates translated to the bump centers the test-function weight
    couples the two integration variables through chi(w + v) only, so the
    v integral collapses to the bump self-correlation C(w) and each term
    is a 2D integral.  The dyadic filters drop out exactly: the active
    levels at radius about 2^n are {n, n+1} on both factors, every such
    (k, l) pair obeys |k - l| <= 1, and the four filter products sum to 1.
    """
    w1, w2, chi, da, corr = _self_correlation(m)
    return w1, w2, chi * corr * da


def _single_term(i: int, w1, w2, weight) -> float:
    return float(np.dot(_kernel_plus(i, w1, w2), weight))


def _symmetrized_term(i: int, w1, w2, weight) -> float:
    return float(np.dot(_kernel_plus(i, w1, w2) - _kernel_plus(i, -w1, w2), weight))


def _pairing_total(coef: np.ndarray, nodes, terms) -> float:
    """sum_n c_n^2 I_n at one node count."""
    return float((coef * coef * np.array(terms)).sum())


def _symmetrized_pairing(coef, table: _TermIntegrals, ref: float, m: int):
    """The symmetrized pairing at the node count m where the single one
    settled at ref.

    The cancellation is exact on the symmetric node set, so the relative
    Richardson test would compare one roundoff-sized value against
    another; guard against the single-product scale instead.
    """
    value = _pairing_total(coef, *table(m, coef.size))
    if abs(value) > RICHARDSON_RTOL * abs(ref):
        raise RefinementError(abs(value) / max(abs(ref), 1e-300), RICHARDSON_RTOL)
    return value


def _richardson(evaluate):
    """Run evaluate(m) at node counts doubling from RICHARDSON_M0 until two
    agree to RICHARDSON_RTOL."""
    m = RICHARDSON_M0
    # an overflow surfaces as a non-finite value, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = evaluate(m)
        while True:
            m *= 2
            fine = evaluate(m)
            if not math.isfinite(fine):
                # refining cannot help once the coefficients have overflowed
                raise ParameterError(
                    f"quadrature value {fine}: the bump coefficients 2^(-s n) overflow"
                )
            scale = max(abs(fine), 1e-300)
            estimate = abs(fine - coarse) / scale
            if estimate <= RICHARDSON_RTOL:
                return fine, m
            if m >= RICHARDSON_MAX_M:
                raise RefinementError(estimate, RICHARDSON_RTOL)
            coarse = fine


def _sweep(s: float, first: int, n_max: int, table: _TermIntegrals, total, lower_sum):
    """Rows (value, lower_sum(s, N)) for N = first..n_max, each value the
    Richardson-refined total(c, *table(m, N)), and the coefficients and
    node count of the last N."""
    # validates s and n_max; an overflow surfaces as a non-finite value,
    # which _richardson reports
    with np.errstate(over="ignore"):
        coef = bump_coefficients(s, n_max)
    rows, m_used = [], None
    for n_terms in range(first, n_max + 1):
        with np.errstate(over="ignore"):
            coef = bump_coefficients(s, n_terms)
        value, m_used = _richardson(lambda m: total(coef, *table(m, n_terms)))
        # the a1 sum's 2^(-2 s n) overflows a few N before the squared
        # coefficients do; the a3 sum's 2^((-2 s - 1) n) only after them
        with np.errstate(over="ignore"):
            lower = lower_sum(s, n_terms)
        if not math.isfinite(lower):
            raise ParameterError(
                f"lower-bound sum {lower} at N = {n_terms}: 2^(-2 s n) overflows"
            )
        rows.append((value, lower))
    return rows, coef, m_used


def prop_a1_pairings(s: float, n_max: int) -> tuple[list[tuple[float, float]], float]:
    """Single-product pairings and their lower-bound sums for every
    N = A1_FIRST_TERMS..n_max in one sweep, and the symmetrized pairing
    at n_max.

    The single pairing is sum_{|k-l|<=1} of the product
    (d/dx1 Lambda^(-1) (phi_k * f_N)) (phi_l * g_N) tested against the
    inverse transform of the bump; it accumulates the divergent series
    c_n^2 * I_n.  The symmetrized pairing adds the mirror-image term
    (d/dx1 Lambda^(-1) (phi_l * g_N)) (phi_k * f_N), whose kernel is odd
    under the reflection (w, v) -> (-v, -w), so the terms cancel.

    Row N is (single pairing, sum_{n<=N} 2^(-2 s n) n^(-4)).  The
    symmetrized pairing is taken where row n_max settled.
    """
    single = _TermIntegrals(_a1_nodes, _single_term)
    rows, coef, m_used = _sweep(s, A1_FIRST_TERMS, n_max, single, _pairing_total, lower_bound_sum)
    # the sweep has validated s and n_max, and ran no row below A1_FIRST_TERMS
    if n_max < A1_FIRST_TERMS:
        raise ParameterError(f"need at least {A1_FIRST_TERMS} terms, got {n_max}")
    symmetrized = _TermIntegrals(_a1_nodes, _symmetrized_term)
    return rows, _symmetrized_pairing(coef, symmetrized, rows[-1][0], m_used)


@functools.lru_cache(maxsize=2)
def _magnitude_support(m: int):
    """The block of the magnitude integrand that can be nonzero, folded by
    its reflection symmetry: (row nodes, column nodes, weights).

    Columns are the nodes v with chi(v) > 0.  Rows are the nodes w with
    chi(w) > 0 on the upper half of the w2 axis, weighted 2 because each
    stands for its mirror node (w1, -w2) too, and those on the w2 = 0 line
    (odd m), weighted 1; nodes are mirrored by index, so every node of the
    support is counted once.  The weight of a block entry is
    fold(w) chi(w) chi(w + v) chi(v) da^2.  It depends on m alone, so it
    is built once per node count and shared, and is read-only.
    """
    w1, w2, chi, da = _bump_nodes(m)
    col = np.arange(w1.size) % m  # the w2 index of each node
    rows = np.flatnonzero((chi > 0.0) & (2 * col >= m - 1))
    cols = np.flatnonzero(chi > 0.0)
    fold = np.where(2 * col[rows] > m - 1, 2.0, 1.0)
    coupling = bump_profile(
        np.hypot(w1[rows, None] + w1[None, cols], w2[rows, None] + w2[None, cols])
    )
    weight = (fold * chi[rows] * da)[:, None] * coupling * (chi[cols] * da)[None, :]
    out = (w1[rows], w2[rows], w1[cols], w2[cols], weight)
    for a in out:
        a.flags.writeable = False
    return out


def symmetrized_magnitude_series(s: float, n_terms: int, m: int = 24) -> np.ndarray:
    """Per-n integrals of |kernel difference|, the size of what cancels.

    The signed symmetrized pairing vanishes; this series bounds each term
    before cancellation and decays like c_n^2 2^(-n), so its partial sums
    converge for s >= -1/2 while the single-product series diverges.  Each
    term sums |ka(w) - kb(v)| against the weights of _magnitude_support:
    both kernels read w2 and v2 through hypot alone and chi is radial, so
    the integrand is unchanged under (w2, v2) -> (-w2, -v2).
    """
    c = bump_coefficients(s, n_terms)
    a1, a2, b1, b2, weight = _magnitude_support(m)
    b1 = -b1  # the g bump's kernel is the f bump's at mirrored w1
    diff = np.empty(weight.shape)
    acc = np.empty(n_terms)
    for i in range(1, n_terms + 1):
        np.subtract(
            _kernel_plus(i, a1, a2)[:, None], _kernel_plus(i, b1, b2)[None, :], out=diff
        )
        np.abs(diff, out=diff)
        # numpy's own sum, not a BLAS dot, whose order follows its thread count
        np.multiply(diff, weight, out=diff)
        acc[i - 1] = diff.sum()
    return c * c * acc


def _a3_nodes(m: int):
    """The midpoint nodes at node count m and the chi mass int chi dw: the
    term integrals read the nodes, _a3_total the mass."""
    w1, w2, chi, da = _bump_nodes(m)
    return w1, w2, chi, da, float(chi.sum() * da)


def _a3_term_integral(i: int, w1, w2, chi, da, chi_mass) -> float:
    """J_i = int chi(w) / |2^i e1 + w| dw on the midpoint nodes."""
    return float((chi / np.hypot(2.0**i + w1, w2)).sum() * da)


def _a3_total(coef: np.ndarray, nodes, terms) -> float:
    """sum_n 2 c_n^2 (int chi) J_n, summed in Python floats, which round
    as numpy scalars do at a fraction of the cost."""
    chi_mass = nodes[-1]
    value = 0.0
    for c, j_i in zip(coef.tolist(), terms):
        value += 2.0 * c * c * chi_mass * j_i
    return value


def prop_a3_product_norms(s: float, n_max: int) -> list[tuple[float, float]]:
    """Low-pass pairing of (Lambda^(-1) f_N) g_N and its lower-bound sum
    for every N = 1..n_max, in one sweep.

    For the symmetric family the only surviving frequency combinations put
    the two factors on opposite bumps, the low-pass weight is identically 1
    there, and the integral factorizes into (int chi) * int chi / |center + w|.
    Row N is (quadrature value, sum_{n<=N} 2^((-2s-1) n) n^(-4)).
    """
    if lowpass_profile(2.0 * BUMP_SUPPORT) != 1.0:
        raise ParameterError("low-pass plateau no longer covers the bump sums")
    table = _TermIntegrals(_a3_nodes, _a3_term_integral)
    return _sweep(s, 1, n_max, table, _a3_total, a3_lower_sum)[0]

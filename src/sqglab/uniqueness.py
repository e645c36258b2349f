"""Uniqueness experiments: contraction of the solution map on differences.

The difference w of two mild solutions with the same data solves a linear
equation forced by the symmetrized product N(w, theta), and shrinking the
horizon drives the Lipschitz constant of the Duhamel map below one.  This
module measures that contraction factor in the norms the argument runs
in: for alpha in (3/2, 2] an L^(p/2)-in-time negative-order Besov norm,
and for rougher dissipation a sup-in-time Besov norm combined with the
grid max of the Riesz velocity of the low-pass block.  The ladder of
factors over shrinking horizons is one fold over the march: the solution
and the linear evolution step side by side with their Duhamel integrals,
and only per-time norm parts are kept, so no series is held.
contraction_factor and difference_norm measure the same on plain lists of
fields sampled at every step, the reference the ladder matches bit for
bit.  Alongside the factor it reads the gaps between twin runs
(determinism, temporal order and growth of a perturbation), folded over
their marches the same way, and the linear-semigroup continuity criterion
that characterizes strong B^s_{p,infty} continuity at t = 0 through the
vanishing of the weighted block-norm tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .littlewood import (
    ENERGY_FLOOR,
    BesovIndex,
    DyadicBank,
    besov_norm,
    block,
    block_norms,
    packet_profile,
    time_lr,
)
from .mild import SolveParams, duhamel_along, duhamel_series, march
from .spectral import (
    ParameterError,
    SpectralField,
    lp_norm,
    riesz_perp_velocity,
    semigroup_apply,
)


def end_point_exponent(alpha: float) -> tuple[float, float]:
    """Critical integrability pair (p, q) = (4/(2 alpha - 3), p/(p - 2)).

    Defined for alpha in (3/2, 2] only; below that the critical space
    degenerates to p = infinity and a different norm family applies.
    The derivative-count identity -2 alpha/p + 2/p + 1 =
    -1/2 + (p - 2) alpha/p behind this choice is checked both ways on
    every call.
    """
    if not 1.5 < alpha <= 2.0:
        raise ParameterError(
            f"integrability pair needs alpha in (3/2, 2], got {alpha}"
        )
    p = 4.0 / (2.0 * alpha - 3.0)
    q = p / (p - 2.0)
    gap = exponent_identity_gap(alpha)
    if gap > 1e-12:
        raise ParameterError(f"exponent identity violated by {gap:.3e}")
    return p, q


def exponent_identity_gap(alpha: float) -> float:
    """|(-2 alpha/p + 2/p + 1) - (-1/2 + (p - 2) alpha/p)| at p = 4/(2 alpha - 3)."""
    p = 4.0 / (2.0 * alpha - 3.0)
    left = -2.0 * alpha / p + 2.0 / p + 1.0
    right = -0.5 + (p - 2.0) / p * alpha
    return abs(left - right)


# ---------------------------------------------------------------------------
# Contraction norms per dissipation strength
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionNorm:
    """The norm a difference of solutions is contracted in.

    index/time_exponent define the mixed norm on the difference series
    (time integration outside the block aggregation); riesz_low adds the
    sup-in-time grid max of the Riesz velocity of the low-pass block,
    the extra scalar the rough-dissipation cases track.  data_index is
    the space the solutions themselves are assumed bounded in.
    """

    index: BesovIndex
    time_exponent: float
    riesz_low: bool
    data_index: BesovIndex

    def __post_init__(self):
        if self.time_exponent != math.inf and not self.time_exponent >= 1.0:
            raise ParameterError(
                f"time exponent must be >= 1, got {self.time_exponent}"
            )


def contraction_norm_spec(alpha: float, s: float | None = None) -> ContractionNorm:
    """Dispatch the contraction norm by dissipation strength.

    alpha > 3/2: L^(p/2)(0,T; B^(-1/2)_{p,p/2}), data in B^(-1/2)_{p,p/(p-2)}.
    alpha = 3/2: sup-in-time B^(-1/2)_{inf,inf} + Riesz low-pass max,
                 data in B^(-1/2)_{inf,1}.
    1 < alpha < 3/2: same shape at regularity 1 - alpha, data exponent
                 q = inf.
    alpha = 1:   regularity -s for a configurable 0 < s < 1/2 (default
                 1/4), data in B^0_{inf,inf}; s < 1/2 is the window
                 1 < r < 1/s of the argument's auxiliary time exponent r = 2.
    alpha < 1:   regularity -s with 0 < s < 1 - alpha (default (1-alpha)/2).
    """
    if not 0.0 < alpha <= 2.0:
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if alpha > 1.5:
        p, q = end_point_exponent(alpha)
        return ContractionNorm(
            index=BesovIndex(-0.5, p, p / 2.0),
            time_exponent=p / 2.0,
            riesz_low=False,
            data_index=BesovIndex(-0.5, p, q),
        )
    # the sup-in-time cases differ in their regularity and data index alone
    if alpha == 1.5:
        reg, data_reg, data_q = -0.5, -0.5, 1.0
    elif alpha > 1.0:
        reg, data_reg, data_q = 1.0 - alpha, 1.0 - alpha, math.inf
    elif alpha == 1.0:
        s = 0.25 if s is None else float(s)
        if not 0.0 < s < 0.5:
            raise ParameterError(f"alpha = 1 needs 0 < s < 1/2, got {s}")
        reg, data_reg, data_q = -s, 0.0, math.inf
    else:
        s = 0.5 * (1.0 - alpha) if s is None else float(s)
        if not 0.0 < s < 1.0 - alpha:
            raise ParameterError(f"alpha < 1 needs 0 < s < 1 - alpha, got {s}")
        reg, data_reg, data_q = -s, 1.0 - alpha, math.inf
    return ContractionNorm(
        index=BesovIndex(reg, math.inf, math.inf),
        time_exponent=math.inf,
        riesz_low=True,
        data_index=BesovIndex(data_reg, math.inf, data_q),
    )


def riesz_low_max(f: SpectralField, bank: DyadicBank) -> float:
    """Grid max over both components of the Riesz velocity of the low block."""
    u1, u2 = riesz_perp_velocity(block(f, bank, 0))
    return max(lp_norm(u1, math.inf), lp_norm(u2, math.inf))


def instant_norm(f: SpectralField, bank: DyadicBank, spec: ContractionNorm) -> float:
    """Single-time contraction quantity: Besov norm plus optional Riesz part."""
    return sum(_norm_parts(f, bank, spec))


def _norm_parts(f: SpectralField, bank: DyadicBank, spec: ContractionNorm) -> tuple:
    """The per-time parts of the contraction norm at one sample: the Besov
    value and, when spec.riesz_low, the Riesz low-pass max (else 0).

    An all-zero field, such as the gap of identical twins, reads
    (0.0, 0.0) with no transform: its norms are 0.0, and adding 0.0 to a
    norm, which is never -0.0, leaves its bits as they are.
    """
    if not f.coef.any():
        return 0.0, 0.0
    riesz = riesz_low_max(f, bank) if spec.riesz_low else 0.0
    return besov_norm(f, bank, spec.index), riesz


def _aggregate(parts, times, spec: ContractionNorm) -> float:
    """Mixed-time contraction norm from the per-time parts of its samples."""
    besov, riesz = zip(*parts)
    value = time_lr(besov, times, spec.time_exponent)
    if spec.riesz_low:
        value += max(riesz)
    return value


def difference_norm(fields, times, bank: DyadicBank, spec: ContractionNorm) -> float:
    """Mixed-time contraction norm of a difference series sampled at times."""
    return _aggregate([_norm_parts(f, bank, spec) for f in fields], times, spec)


# ---------------------------------------------------------------------------
# Contraction factor of the solution map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionResult:
    """Lipschitz ratio of the Duhamel map on a pair of trial series.

    state holds the marched solution at the horizon when
    contraction_ladder measured the ratio along its march and was asked
    to keep the state there, else None.
    """

    factor: float
    numerator: float
    denominator: float
    degenerate: bool
    state: SpectralField | None = field(default=None, compare=False, repr=False)

    def __float__(self) -> float:
        return self.factor


def _ratio(numerator: float, denominator: float, state=None) -> ContractionResult:
    # identical inputs: report a degenerate zero rather than divide
    if denominator < ENERGY_FLOOR:
        return ContractionResult(0.0, 0.0, denominator, True, state)
    return ContractionResult(numerator / denominator, numerator, denominator, False, state)


def contraction_factor(
    fields1,
    fields2,
    params: SolveParams,
    bank: DyadicBank,
    spec: ContractionNorm | None = None,
) -> ContractionResult:
    """||Duhamel[theta1] - Duhamel[theta2]||_X / ||theta1 - theta2||_X.

    fields1 and fields2 sample theta1 and theta2 at every step k dt of the
    horizon, as solve returns them.  The linear parts of the solution map
    cancel in the difference, so the data term never enters.  Identical
    inputs (denominator below ENERGY_FLOOR) give a degenerate zero rather
    than a division.  The ratio is exactly symmetric in its arguments.
    """
    spec = contraction_norm_spec(params.alpha) if spec is None else spec
    times = params.dt * np.arange(params.n_steps() + 1)
    d1, d2 = duhamel_series(fields1, params), duhamel_series(fields2, params)
    image = [a - b for a, b in zip(d1, d2)]
    gap = [a - b for a, b in zip(fields1, fields2)]
    return _ratio(
        difference_norm(image, times, bank, spec), difference_norm(gap, times, bank, spec)
    )


def contraction_ladder(
    theta0: SpectralField,
    params: SolveParams,
    bank: DyadicBank,
    horizons,
    spec: ContractionNorm | None = None,
    state_at: float | None = None,
) -> list[ContractionResult]:
    """Contraction factor at each horizon, folded over one march.

    The trial pair is the marched solution against the bare linear
    evolution of the same data; their difference is the accumulated
    nonlinear correction, which exercises the map away from zero.  One
    pass marches both to the longest horizon beside their Duhamel
    integrals, whose integrand along the solution is the stepper's own
    stage-1 advection, and keeps only the per-time norm parts of the
    difference and of its image.  Each horizon aggregates a prefix of
    them, with the same bits as contraction_factor on the pair cut at
    that horizon.  The result at the horizon state_at, one of horizons,
    holds the solution there as its state, the same bits as the last
    state of a march of params to that horizon; the march never writes a
    yielded array again, so it is held, not copied.  No other state is
    kept, and none when state_at is None.
    """
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0.0:
        raise ParameterError("horizons must be positive")
    if state_at is not None and float(state_at) not in horizons:
        raise ParameterError(f"state_at {state_at} is not one of the horizons")
    spec = contraction_norm_spec(params.alpha) if spec is None else spec
    cuts = [replace(params, t_final=t).n_steps() + 1 for t in horizons]
    keep = None if state_at is None else cuts[horizons.index(float(state_at))]
    top = replace(params, t_final=horizons[-1])
    times, gaps, images, state = [], [], [], None
    # a bare zip, and the step's names dropped at its end: an enumerate
    # tuple or the loop names would hold this step's fields through the
    # next step's advections, the peak of the march
    for (t, a, da), (_, b, db) in zip(
        duhamel_along(march(theta0, top), top),
        duhamel_along(march(theta0, replace(top, nonlinear=False)), top),
    ):
        # the difference fields are unnamed, so each goes once its norm
        # parts are taken, not when the next step rebinds it
        times.append(t)
        gaps.append(_norm_parts(a - b, bank, spec))
        images.append(_norm_parts(da - db, bank, spec))
        if len(times) == keep:
            state = a
        del a, da, b, db
    return [
        _ratio(
            _aggregate(images[:cut], times[:cut], spec),
            _aggregate(gaps[:cut], times[:cut], spec),
            state if cut == keep else None,
        )
        for cut in cuts
    ]


# ---------------------------------------------------------------------------
# Twin runs
# ---------------------------------------------------------------------------


DELTA = 1e-6


def perturbed_datum(
    theta0: SpectralField, bank: DyadicBank, spec: ContractionNorm
) -> SpectralField:
    """theta0 plus DELTA times a unit-norm copy of the same profile.

    The difference to theta0 has contraction quantity DELTA, so the twin
    gap of the two runs over DELTA reads the growth of the perturbation.
    """
    scale = instant_norm(theta0, bank, spec)
    if scale <= 0.0:
        raise ParameterError("a perturbed twin needs nonzero initial data")
    return SpectralField(theta0.grid, theta0.coef * (1.0 + DELTA / scale))


def _final(states) -> SpectralField:
    """The last state of a march."""
    for _, theta, _, values in states:
        # not held through the next step's advections
        del values
    return theta


def twin_experiments(
    theta0: SpectralField,
    params: SolveParams,
    bank: DyadicBank,
    spec: ContractionNorm,
    fine: SpectralField,
) -> tuple[float, float, float]:
    """The three twin-run readings of one configuration, folded over its marches.

    fine is the final state of the march of params at dt/2 from theta0,
    which the caller has in hand: the uniqueness command reads
    it from its contraction ladder, which marches at that step.

    Returns (identical_gap, order, amplification), each read through the
    contraction quantity of a difference:

    - identical_gap: the max over every step of the gap between two
      independent marches of params from theta0, zero bit for bit when
      the march is deterministic;
    - order: log2 of the ratio of the final gaps between the dt and dt/2
      runs and between the dt/2 and dt/4 runs, which estimates the
      stepper's temporal order (2 for ETD2);
    - amplification: the final gap between the run from theta0 and the
      run from perturbed_datum, over DELTA.

    The twin marches step side by side; of the dt/4 and perturbed runs
    only the final state is kept, so no series is held.
    """
    identical_gap = 0.0
    for (_, a, _, _), (_, b, _, _) in zip(march(theta0, params), march(theta0, params)):
        identical_gap = max(identical_gap, instant_norm(a - b, bank, spec))
    run = a
    finer = _final(march(theta0, replace(params, dt=params.dt / 4)))
    perturbed = _final(march(perturbed_datum(theta0, bank, spec), params))
    bottom = instant_norm(fine - finer, bank, spec)
    if bottom <= 0.0:
        raise ParameterError("refinement gap vanished; data too small to resolve")
    order = float(np.log2(instant_norm(run - fine, bank, spec) / bottom))
    return identical_gap, order, instant_norm(run - perturbed, bank, spec) / DELTA


# ---------------------------------------------------------------------------
# Linear continuity criterion
# ---------------------------------------------------------------------------


CONTINUITY_DROP = 0.1


@dataclass(frozen=True)
class ContinuityReport:
    """Semigroup continuity at t = 0 against the block-norm tail.

    curve[k] = || exp(-t_k Lambda^alpha) theta0 - theta0 || in
    B^s_{p,infty}; tail is the sup of 2^(s j) block norms over the top
    two bank levels.  converged records whether the curve dropped by at
    least CONTINUITY_DROP from the largest to the smallest time.
    """

    times: tuple
    curve: np.ndarray
    tail: float
    converged: bool


def continuity_criterion_test(
    amplitudes,
    bank: DyadicBank,
    s: float,
    p: float,
    alpha: float,
    times=(1e-1, 1e-2, 1e-3, 1e-4),
) -> ContinuityReport:
    """Measure semigroup continuity at t = 0 next to the weighted tail.

    Strong continuity in B^s_{p,infty} is equivalent to the vanishing of
    2^(s j) || phi_j * theta0 ||_p as j grows; at desk scale the finite
    bank shows the dichotomy as a decay-rate gap on a fixed time ladder,
    with the tail reported alongside for the side-by-side comparison.
    """
    if not 0.0 < alpha <= 2.0:
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    times = tuple(float(t) for t in times)
    if any(t <= 0.0 for t in times) or list(times) != sorted(times, reverse=True):
        raise ParameterError("times must be positive and decreasing")
    theta0 = packet_profile(bank, p, amplitudes)
    idx = BesovIndex(s, p, math.inf)
    curve = np.array(
        [
            besov_norm(semigroup_apply(theta0, alpha, t) - theta0, bank, idx)
            for t in times
        ]
    )
    norms = block_norms(theta0, bank, p)
    tail = max(float(2.0 ** (s * j) * norms[j]) for j in (bank.j_max - 1, bank.j_max))
    converged = bool(curve[-1] <= CONTINUITY_DROP * curve[0]) if curve[0] > 0.0 else True
    return ContinuityReport(
        times=times,
        curve=curve,
        tail=tail,
        converged=converged,
    )

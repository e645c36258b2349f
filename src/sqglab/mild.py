"""Mild-solution machinery for the dissipative SQG equation.

The equation marched here is

    d theta/dt = -Lambda^alpha theta - div(u theta),   u = perp-grad Lambda^(-1) theta,

whose mild (Duhamel) form is

    theta(t) = e^{-t Lambda^alpha} theta0 - int_0^t e^{-(t-s) Lambda^alpha} div(u theta)(s) ds.

The integrator mirrors that formula term for term: the linear semigroup is
applied exactly through its symbol, and the Duhamel integral over one step
is approximated by the second-order exponential rule obtained from linear
interpolation of the nonlinear integrand (ETD2).  The divergence is applied
spectrally after the product, so each step is the weak form tested against
gradients and the mean mode is conserved to rounding.

The steps are taken in one place, the generator march, which yields
each state as an n-by-n SpectralField with the march's band, beside its
advection g_k on the layout of that band (see spectral._square): the
(2b + 1)-square of a band b, where a banded march takes its steps, or the
whole array of no band.  solve collects every step of it for library
callers as (times, fields), the march's own times and a list of
SpectralField; duhamel_along runs the Duhamel recurrence along it on the
same layout, with the stepper's own advections as the integrand, and
passes each integral D_k on as a field that carries the band.  The CLI
folds over it (the solve table, the contraction ladder and the
uniqueness twin runs), so no command holds a series.

The same exponential quadrature drives the global Picard iteration: iterate
m+1 solves the linear-plus-Duhamel recurrence with the nonlinearity frozen
at iterate m, which is the fixed-point map whose contraction the uniqueness
harness measures.  Its fixed point is the mild solution, which the ETD2
march approximates to second order in dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .littlewood import DyadicBank, block
from .spectral import (
    Grid2,
    ParameterError,
    SpectralField,
    _check_alpha,
    _check_same_grid,
    _embed,
    _inverse,
    _square,
    dealiased_advection,
    dealiased_coef,
    grid_gradient,
    grid_symbol,
    grid_velocity,
    inverse_lambda,
    lp_norm,
    shared_grid,
)

BLOWUP_THRESHOLD = 1e12
# a march of more steps is refused before it starts, not left to run on
MAX_STEPS = 1_000_000


class BlowUpError(RuntimeError):
    """The marched field left the trusted numerical range."""

    def __init__(self, step: int, time: float, magnitude: float):
        self.step = step
        self.time = time
        self.magnitude = magnitude
        super().__init__(
            f"field magnitude {magnitude:.3e} exceeded {BLOWUP_THRESHOLD:.0e} "
            f"at step {step} (t = {time:.6g})"
        )


class NonContractionError(RuntimeError):
    """Picard iterate distances grew for three consecutive iterates."""

    def __init__(self, distances):
        self.distances = list(distances)
        super().__init__(
            "Picard iteration diverging; successive iterate distances "
            + ", ".join(f"{d:.3e}" for d in self.distances)
        )


@dataclass(frozen=True)
class SolveParams:
    """Parameters of one mild-solution march.

    The exponential integrator is unconditionally stable for the linear
    part; the step-size bound dt * k_max^alpha <= 40 only caps the
    quadrature error of the nonlinear integral on the stiffest retained
    mode.  t_final is the horizon T, and the messages name it so.
    """

    alpha: float
    n: int
    t_final: float
    dt: float
    box_length: float = 2.0 * math.pi
    picard_depth: int = 4
    nonlinear: bool = True

    def __post_init__(self):
        _check_alpha(self.alpha)
        for name, value in (("T", self.t_final), ("dt", self.dt)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not self.dt > 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if not self.t_final >= self.dt:
            raise ParameterError(
                f"horizon T={self.t_final} must be at least one step dt={self.dt}"
            )
        if self.picard_depth < 1:
            raise ParameterError(f"picard_depth must be >= 1, got {self.picard_depth}")
        steps = self.t_final / self.dt
        if not math.isfinite(steps):
            raise ParameterError(f"step count T/dt = {self.t_final}/{self.dt} overflows")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError(f"T={self.t_final} is not an integer multiple of dt={self.dt}")
        if self.n_steps() > MAX_STEPS:
            raise ParameterError(f"step count T/dt = {steps:.3g} exceeds {MAX_STEPS}")
        k_max = self.k_max()
        if self.dt * k_max**self.alpha > 40.0:
            raise ParameterError(
                f"dt * k_max^alpha = {self.dt * k_max ** self.alpha:.3g} exceeds 40; "
                "reduce dt or the resolution"
            )

    def grid(self) -> Grid2:
        return shared_grid(self.n, self.box_length)

    def k_max(self) -> float:
        """The largest |k| the march keeps, at the corner m1 = m2 = n//3 of
        the kept square: the max of |k| over the square, bit for bit, since
        every other point of it is shorter by far more than an ulp."""
        grid = self.grid()
        k = grid.k1[grid.n // 3, 0]
        return float(np.hypot(k, k))

    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def _phi(z: np.ndarray, k: int) -> np.ndarray:
    """phi_k(z) for k = 1, 2: (e^z - 1)/z and (e^z - 1 - z)/z^2,
    series-evaluated near 0 to avoid cancellation."""
    out = np.expm1(z)
    if k == 2:
        np.subtract(out, z, out=out)
    # 0/0 at k = 0; every small entry is overwritten by its series
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, z if k == 1 else np.square(z), out=out)
    small = np.abs(z) < 1e-2
    zs = z[small]
    out[small] = sum(zs**i / math.factorial(i + k) for i in range(6))
    return out


class _EtdTableau:
    """Cached exponential-integrator weights for one (grid, alpha, dt), on
    the layout of one band (see spectral._square)."""

    def __init__(self, grid: Grid2, alpha: float, dt: float, band: int | None):
        # -dt |k|^alpha, formed in place in the array of |k|
        z = grid.kabs_on(band)
        z **= alpha
        z *= -dt
        self.semigroup = np.exp(z)
        self.phi1_dt = dt * _phi(z, 1)
        self.phi2_dt = dt * _phi(z, 2)
        for a in (self.semigroup, self.phi1_dt, self.phi2_dt):
            a.flags.writeable = False


# one command's step sizes: uniqueness marches at dt (the ladder), 2 dt
# (the twins) and dt/2 (the finer twin), so it builds each tableau once,
# and a long-lived process holds no more than three: 288 MiB at n = 2048
# with no band, 128 MiB on the band square of n//3
@functools.lru_cache(maxsize=3)
def _tableau(grid: Grid2, alpha: float, dt: float, band: int | None) -> _EtdTableau:
    return _EtdTableau(grid, alpha, dt, band)


def _advection(
    grid: Grid2, c: np.ndarray, band: int | None, step: int, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """(g, v) of the field whose layout array of band is c: g the
    coefficients of -div(u theta) on that layout, with blow-up check, and
    v the grid values of theta it read."""
    # the square is embedded in one buffer and inverted in place, and the
    # whole array of no band into a fresh one; a copy of the real part
    # lets that buffer go before the velocity transforms start
    w = _embed(c, grid.n, band)
    theta_p = _inverse(w, band, None if w is c else w).real.copy()
    del w
    hi, lo = float(theta_p.max()), float(theta_p.min())
    peak = max(abs(hi), abs(lo))
    if not (math.isfinite(hi) and math.isfinite(lo)) or peak > BLOWUP_THRESHOLD:
        raise BlowUpError(step, t, peak)
    return dealiased_advection(grid, c, theta_p, band), theta_p


def _etd2_step(
    tab: _EtdTableau,
    grid: Grid2,
    c: np.ndarray,
    band: int | None,
    g0: np.ndarray | None,
    dt: float,
    step: int,
    t: float,
) -> np.ndarray:
    """One step from the state whose layout array of band is c, and whose
    stage-1 advection is g0 (None: linear), to the layout array of the
    next state.

    The predictor S c + phi1 g0 and the corrector
    S c + (phi1 - phi2) g0 + phi2 g1 are summed in that order, in place in
    one array that becomes the result.  At most one product is a
    temporary at a time, and none lives through the advection of the
    predictor, which is the peak of the step.
    """
    new = np.multiply(tab.semigroup, c)
    if g0 is not None:
        new += tab.phi1_dt * g0
        g1 = _advection(grid, new, band, step, t + dt)[0]
        np.multiply(tab.semigroup, c, out=new)
        new += (tab.phi1_dt - tab.phi2_dt) * g0
        g1 *= tab.phi2_dt
        new += g1
    return new


def duhamel_step(theta: SpectralField, params: SolveParams, t: float = 0.0) -> SpectralField:
    """Advance theta by one dt of the mild formulation."""
    _check_same_grid(theta.grid, params.grid())
    grid = theta.grid
    tab = _tableau(grid, params.alpha, params.dt, None)
    step = int(round(t / params.dt))
    # no band is passed on: a nonlinear step fills the n//3 square, which
    # a narrower band of the datum would misstate
    g0 = _advection(grid, theta.coef, None, step, t)[0] if params.nonlinear else None
    return SpectralField(grid, _etd2_step(tab, grid, theta.coef, None, g0, params.dt, step, t))


def _check_datum(theta: SpectralField, params: SolveParams) -> None:
    """Reject a datum the march would misread: off the params grid, with
    energy above the dealias cutoff, or not conjugate-symmetric (the march
    reads grid values as the real part, which would silently drop the
    anti-Hermitian part)."""
    _check_same_grid(theta.grid, params.grid())
    c, n, m = theta.coef, theta.grid.n, theta.grid.n // 3
    # the rows, then the columns, outside the kept square |m1|, |m2| <= m
    outside = max(float(np.abs(c[m + 1 : n - m]).max()), float(np.abs(c[:, m + 1 : n - m]).max()))
    scale = float(np.abs(c).max())
    if scale > 0.0 and outside > 1e-13 * scale:
        raise ParameterError(
            "initial datum carries energy above the dealias cutoff; "
            "restrict it to the retained band first"
        )
    if theta.conjugate_symmetry_defect() > 1e-12:
        raise ParameterError("initial datum is not conjugate-symmetric")


def march(theta0: SpectralField, params: SolveParams):
    """The ETD2 march over [0, t_final], one step at a time.

    Checks theta0 against params on entry, then yields (t_k, theta_k,
    g_k, v_k) for k = 0..N:

    - t_k = k dt;
    - theta_k, the SpectralField of theta(t_k), with the band of the
      march;
    - g_k, the coefficients of the stage-1 advection G(theta_k) of the
      step from t_k, which is also the Duhamel integrand at t_k, on the
      layout of the band (see spectral._square);
    - v_k, the grid values of theta_k that advection read, the floats of
      theta_k.physical().

    g_k and v_k are None at k = N and on a linear march.  A datum of band
    b marches with band max(b, n//3): every advection is truncated to the
    square of n//3 and the semigroup keeps a zero a zero, so every state
    and predictor is zero outside that square.  The step then holds its
    states, advections and ETD tableau on the (2 band + 1)-square layout
    alone, each inverse transform skips the rows past the band, and each
    theta_k is that square embedded in an n-by-n array of +0.0.  A datum
    with no band marches with none, on the whole array, by the same code.
    Either way the floats inside the square are those of the whole-array
    march.  The march owns every array it yields and never writes to one
    again.  A consumer that keeps v_k holds it through the next step's
    advections, the peak of the march.
    """
    _check_datum(theta0, params)
    grid = theta0.grid
    band = None if theta0.band is None else max(theta0.band, grid.n // 3)
    c = _square(theta0.coef, band)
    return _steps(grid, c.copy() if c is theta0.coef else c, band, params)


def _steps(grid: Grid2, c: np.ndarray, band: int | None, params: SolveParams):
    tab = _tableau(grid, params.alpha, params.dt, band)
    n_steps = params.n_steps()
    for step in range(n_steps):
        t = step * params.dt
        g0 = values = None
        if params.nonlinear:
            g0, values = _advection(grid, c, band, step, t)
        yield t, SpectralField(grid, _embed(c, grid.n, band), band), g0, values
        values = None
        c = _etd2_step(tab, grid, c, band, g0, params.dt, step, t)
        if not np.all(np.isfinite(c)):
            raise BlowUpError(step + 1, t + params.dt, math.inf)
    yield n_steps * params.dt, SpectralField(grid, _embed(c, grid.n, band), band), None, None


def duhamel_along(states, params: SolveParams):
    """Pass the march's (t_k, theta_k, g_k, v_k) on as (t_k, theta_k, D_k).

    D_k is the field of the Duhamel integral of -div(u theta) along the
    states, with their band: D_0 = 0 and

        D_{k+1} = e^{-dt Lambda^alpha} D_k
                  + dt [ (phi1 - phi2) G_k + phi2 G_{k+1} ],

    the same exponential-trapezoid quadrature the stepper uses, run on
    the layout of the band as the march runs its steps.  The band is that
    of the first state widened to n//3, as march widens it, and no later
    state may carry a wider one; the states of one march share theirs.
    G_k is g_k, on that layout, when given and is evaluated from theta_k
    when g_k is None.  v_k is let go on arrival.
    """
    g_prev = None
    # no enumerate: its cached tuple would hold v_k through the next step
    for t, theta, g, values in states:
        del values
        if g_prev is None:
            grid = theta.grid
            band = None if theta.band is None else max(theta.band, grid.n // 3)
            tab = _tableau(grid, params.alpha, params.dt, band)
            w1 = tab.phi1_dt - tab.phi2_dt
        if g is None:
            g = _advection(grid, _square(theta.coef, band), band, int(round(t / params.dt)), t)[0]
        if g_prev is None:
            acc = np.zeros_like(g)
        else:
            acc = tab.semigroup * acc + w1 * g_prev + tab.phi2_dt * g
        # let G_{k-1} go before the yield, not hold it while the consumer works
        g_prev = g
        yield t, theta, SpectralField(grid, _embed(acc, grid.n, band), band)


def solve(theta0: SpectralField, params: SolveParams) -> tuple[np.ndarray, list]:
    """March theta0 over [0, t_final], keeping every step.

    Returns (times, fields): the march's own times t_k as a float64 array
    and the fields theta(t_k), k = 0..N, with the band of the march.
    """
    times, fields = [], []
    for t, theta, _, values in march(theta0, params):
        del values
        times.append(t)
        fields.append(theta)
    return np.array(times), fields


def duhamel_series(fields, params: SolveParams) -> list:
    """The duhamel_along integral of -div(u theta) frozen on fields that
    sample every step of the horizon, one field per step."""
    if len(fields) != params.n_steps() + 1:
        raise ParameterError("source series does not cover every step of the horizon")
    _check_same_grid(fields[0].grid, params.grid())
    # the widest band of the series for every field, as duhamel_along reads it
    bands = {f.band for f in fields}
    band = None if None in bands else max(bands)
    states = (
        (k * params.dt, SpectralField(f.grid, f.coef, band), None, None)
        for k, f in enumerate(fields)
    )
    return [d for _, _, d in duhamel_along(states, params)]


def _require_mean_free(f: SpectralField, name: str) -> None:
    scale = float(np.abs(f.coef).max())
    if scale > 0.0 and abs(f.coef[0, 0]) > 1e-10 * scale:
        raise ParameterError(f"{name} must be mean-free")


def picard_solve(theta0: SpectralField, params: SolveParams) -> tuple[np.ndarray, list, list]:
    """Global Picard iteration of the Duhamel fixed point over [0, t_final].

    Starts from the linear solution and applies picard_depth sweeps of

        theta^{(m+1)} = e^{-t Lambda^alpha} theta0 + Duhamel[theta^{(m)}],

    recording the sup-in-time L^2 distance between consecutive iterates.
    Returns (times, fields, distances), the last iterate sampled like
    solve.  Raises a non-contraction error when that distance grows three
    times in a row.
    """
    times, linear = solve(theta0, replace(params, nonlinear=False))
    _require_mean_free(theta0, "theta0")
    current = linear
    distances: list[float] = []
    growth_run = 0
    for _ in range(params.picard_depth):
        nxt = [a + b for a, b in zip(linear, duhamel_series(current, params))]
        d = max(lp_norm(a - b, 2) for a, b in zip(nxt, current))
        if distances and d > distances[-1] * (1.0 + 1e-12):
            growth_run += 1
        else:
            growth_run = 0
        distances.append(d)
        current = nxt
        if growth_run >= 3:
            raise NonContractionError(distances)
    return times, current, distances


# ---------------------------------------------------------------------------
# Divergence-form identity
# ---------------------------------------------------------------------------


def divergence_form_check(
    f: SpectralField, g: SpectralField, bank: DyadicBank, k: int, l: int
) -> float:
    """Relative discrepancy of the divergence-form identity on blocks (k, l).

    Both sides of

        u_{f_k} . grad g_l + u_{g_l} . grad f_k
            = div( u_{f_k} g_l - (Lambda^{-1} g_l) (perp-grad f_k) )

    are computed through independent spectral pipelines (products in a
    different association order) and compared in L^2.  Level 0 denotes the
    low-pass block.  The identity is the diagonal-paraproduct cancellation,
    so only |k - l| <= 1 is accepted.

    The discrepancy is normalized by the largest constituent term, not by
    the left-hand side alone: on frequency shells where |xi| = 1 the whole
    identity collapses to 0 = 0 and dividing roundoff by roundoff would
    report a spurious O(1) failure.
    """
    if abs(k - l) > 1:
        raise ParameterError(f"divergence-form identity applies to |k-l| <= 1, got ({k}, {l})")
    grid = f.grid
    # block refuses a field off the bank's grid, so f and g share one
    fk = block(f, bank, k)
    gl = block(g, bank, l)

    ufk1, ufk2 = grid_velocity(fk)
    ugl1, ugl2 = grid_velocity(gl)
    dg1, dg2 = grid_gradient(gl)
    df1, df2 = grid_gradient(fk)

    term_a = dealiased_coef(grid, ufk1 * dg1) + dealiased_coef(grid, ufk2 * dg2)
    term_b = dealiased_coef(grid, ugl1 * df1) + dealiased_coef(grid, ugl2 * df2)
    lhs = term_a + term_b

    gl_p = gl.physical()
    lam_inv_g = inverse_lambda(gl).physical()
    # perp-grad f_k = (-df2, df1)
    v1 = dealiased_coef(grid, ufk1 * gl_p) - dealiased_coef(grid, lam_inv_g * -df2)
    v2 = dealiased_coef(grid, ufk2 * gl_p) - dealiased_coef(grid, lam_inv_g * df1)
    rhs = grid_symbol(grid, "gradient", 0) * v1 + grid_symbol(grid, "gradient", 1) * v2

    num = lp_norm(SpectralField(grid, lhs - rhs), 2)
    den = max(lp_norm(SpectralField(grid, c), 2) for c in (term_a, term_b, lhs, rhs))
    if den == 0.0:
        return 0.0
    return num / den


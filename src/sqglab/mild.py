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

The steps are taken in one place, the generator march.  solve collects
every step of it for library callers as (times, fields), the march's own
times and a list of SpectralField; duhamel_along runs the Duhamel
recurrence along it with the stepper's own advections as the integrand.
The CLI folds over march (the solve table, the contraction ladder and the
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

from .littlewood import DyadicBank, block, psi_block
from .spectral import (
    Grid2,
    ParameterError,
    SpectralField,
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
    mode.
    """

    alpha: float
    n: int
    t_final: float
    dt: float
    box_length: float = 2.0 * math.pi
    picard_depth: int = 4
    nonlinear: bool = True

    def __post_init__(self):
        for name in ("alpha", "t_final", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0.0 < self.alpha <= 2.0:
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.dt > 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if not self.t_final >= self.dt:
            raise ParameterError(
                f"horizon t_final={self.t_final} must be at least one step dt={self.dt}"
            )
        if self.picard_depth < 1:
            raise ParameterError(f"picard_depth must be >= 1, got {self.picard_depth}")
        steps = self.t_final / self.dt
        if not math.isfinite(steps):
            raise ParameterError(
                f"step count t_final/dt = {self.t_final}/{self.dt} overflows"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError(
                f"t_final={self.t_final} is not an integer multiple of dt={self.dt}"
            )
        if self.n_steps() > MAX_STEPS:
            raise ParameterError(
                f"step count t_final/dt = {steps:.3g} exceeds {MAX_STEPS}"
            )
        grid = self.grid()
        k_max = float(grid.kabs[grid.dealias_keep].max())
        if self.dt * k_max**self.alpha > 40.0:
            raise ParameterError(
                f"dt * k_max^alpha = {self.dt * k_max ** self.alpha:.3g} exceeds 40; "
                "reduce dt or the resolution"
            )

    def grid(self) -> Grid2:
        return shared_grid(self.n, self.box_length)

    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, series-evaluated near 0 to avoid cancellation."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0 + zs**4 / 120.0 + zs**5 / 720.0
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, series-evaluated near 0."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    zs = z[small]
    out[small] = (
        0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0 + zs**4 / 720.0 + zs**5 / 5040.0
    )
    zl = z[~small]
    out[~small] = (np.expm1(zl) - zl) / zl**2
    return out


class _EtdTableau:
    """Cached exponential-integrator weights for one (grid, alpha, dt)."""

    def __init__(self, grid: Grid2, alpha: float, dt: float):
        z = -dt * grid.kabs**alpha
        self.semigroup = np.exp(z)
        self.phi1_dt = dt * _phi1(z)
        self.phi2_dt = dt * _phi2(z)


@functools.lru_cache(maxsize=16)
def _tableau(grid: Grid2, alpha: float, dt: float) -> _EtdTableau:
    return _EtdTableau(grid, alpha, dt)


def _advection_coef(grid: Grid2, coef: np.ndarray, step: int, t: float) -> np.ndarray:
    """Coefficients of -div(u theta) for theta given by coef, with blow-up check."""
    theta = SpectralField(grid, coef)
    theta_p = theta.physical()
    hi, lo = float(theta_p.max()), float(theta_p.min())
    peak = max(abs(hi), abs(lo))
    if not (math.isfinite(hi) and math.isfinite(lo)) or peak > BLOWUP_THRESHOLD:
        raise BlowUpError(step, t, peak)
    return dealiased_advection(theta, theta_p)


def _etd2_step(
    grid: Grid2,
    tab: _EtdTableau,
    coef: np.ndarray,
    g0: np.ndarray | None,
    params: SolveParams,
    step: int,
    t: float,
) -> np.ndarray:
    """One step from coef, whose stage-1 advection is g0 (None: linear)."""
    if g0 is None:
        return tab.semigroup * coef
    predictor = tab.semigroup * coef + tab.phi1_dt * g0
    g1 = _advection_coef(grid, predictor, step, t + params.dt)
    return tab.semigroup * coef + (tab.phi1_dt - tab.phi2_dt) * g0 + tab.phi2_dt * g1


def duhamel_step(theta: SpectralField, params: SolveParams, t: float = 0.0) -> SpectralField:
    """Advance theta by one dt of the mild formulation."""
    grid = theta.grid
    _check_params_grid(grid, params)
    tab = _tableau(grid, params.alpha, params.dt)
    step = int(round(t / params.dt))
    g0 = _advection_coef(grid, theta.coef, step, t) if params.nonlinear else None
    coef = _etd2_step(grid, tab, theta.coef, g0, params, step, t)
    return SpectralField(grid, coef, real=theta.real)


def _check_params_grid(grid: Grid2, params: SolveParams) -> None:
    if grid.n != params.n or grid.box_length != params.box_length:
        raise ParameterError(
            f"field grid (n={grid.n}, L={grid.box_length:g}) does not match "
            f"params (n={params.n}, L={params.box_length:g})"
        )


def _check_datum(theta: SpectralField, params: SolveParams) -> None:
    """Reject a datum the march would misread: off the params grid, with
    energy above the dealias cutoff, or marked real but not
    conjugate-symmetric (its grid values are read through .real, which
    would silently drop the anti-Hermitian part)."""
    _check_params_grid(theta.grid, params)
    outside = np.abs(theta.coef[~theta.grid.dealias_keep])
    scale = float(np.abs(theta.coef).max())
    if scale > 0.0 and float(outside.max()) > 1e-13 * scale:
        raise ParameterError(
            "initial datum carries energy above the dealias cutoff; "
            "restrict it to the retained band first"
        )
    if theta.real and theta.conjugate_symmetry_defect() > 1e-12:
        raise ParameterError("initial datum is marked real but is not conjugate-symmetric")


def march(theta0: SpectralField, params: SolveParams):
    """The ETD2 march over [0, t_final], one step at a time.

    Checks theta0 against params on entry, then yields (t_k, coef_k, g_k)
    for k = 0..N: the coefficients of theta(t_k) and the stage-1 advection
    G(theta(t_k)) of the step from t_k, which is also the Duhamel
    integrand at t_k; g_k is None at k = N and on a linear march.  The
    march owns every array it yields and never writes to one again.
    """
    _check_datum(theta0, params)
    return _steps(theta0.grid, theta0.coef.copy(), params)


def _steps(grid: Grid2, coef: np.ndarray, params: SolveParams):
    tab = _tableau(grid, params.alpha, params.dt)
    n_steps = params.n_steps()
    for step in range(n_steps):
        t = step * params.dt
        g0 = _advection_coef(grid, coef, step, t) if params.nonlinear else None
        yield t, coef, g0
        coef = _etd2_step(grid, tab, coef, g0, params, step, t)
        if not np.all(np.isfinite(coef)):
            raise BlowUpError(step + 1, t + params.dt, math.inf)
    yield n_steps * params.dt, coef, None


def duhamel_along(steps, grid: Grid2, params: SolveParams):
    """Pass march-shaped (t_k, coef_k, g_k) on as (t_k, coef_k, D_k).

    D is the Duhamel integral of -div(u theta) along the stepped series:
    D_0 = 0 and

        D_{k+1} = e^{-dt Lambda^alpha} D_k
                  + dt [ (phi1 - phi2) G_k + phi2 G_{k+1} ],

    the same exponential-trapezoid quadrature the stepper uses.  G_k is
    g_k when given and is evaluated from coef_k when g_k is None.
    """
    tab = _tableau(grid, params.alpha, params.dt)
    w1 = tab.phi1_dt - tab.phi2_dt
    for k, (t, coef, g) in enumerate(steps):
        if g is None:
            g = _advection_coef(grid, coef, k, t)
        if k == 0:
            acc = np.zeros_like(coef)
        else:
            acc = tab.semigroup * acc + w1 * g_prev + tab.phi2_dt * g
        yield t, coef, acc
        g_prev = g


def solve(theta0: SpectralField, params: SolveParams) -> tuple[np.ndarray, list]:
    """March theta0 over [0, t_final], keeping every step.

    Returns (times, fields): the march's own times t_k as a float64 array
    and the fields theta(t_k), k = 0..N.
    """
    times, fields = [], []
    for t, coef, _ in march(theta0, params):
        times.append(t)
        fields.append(SpectralField(theta0.grid, coef, real=theta0.real))
    return np.array(times), fields


def duhamel_series(fields, params: SolveParams) -> list:
    """The duhamel_along integral of -div(u theta) frozen on fields that
    sample every step of the horizon, one field per step."""
    if len(fields) != params.n_steps() + 1:
        raise ParameterError("source series does not cover every step of the horizon")
    grid = fields[0].grid
    _check_params_grid(grid, params)
    steps = ((k * params.dt, f.coef, None) for k, f in enumerate(fields))
    return [SpectralField(grid, d, real=True) for _, _, d in duhamel_along(steps, grid, params)]


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
# Nonlinear forms and commutators
# ---------------------------------------------------------------------------


def _require_mean_free(f: SpectralField, name: str) -> None:
    scale = float(np.abs(f.coef).max())
    if scale > 0.0 and abs(f.coef[0, 0]) > 1e-10 * scale:
        raise ParameterError(f"{name} must be mean-free")


def nonlinear_n(w: SpectralField, theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Symmetrized nonlinearity N(w, theta) = u_w theta + u_theta w (a vector).

    u_h denotes perp-grad Lambda^(-1) h.  Products are formed pointwise
    from dealiased factors and the result is dealiased again, so it is the
    exact truncated convolution.
    """
    if w.grid != theta.grid:
        raise ParameterError("fields live on different grids")
    _require_mean_free(w, "w")
    _require_mean_free(theta, "theta")
    grid = w.grid
    uw1, uw2 = grid_velocity(w)
    ut1, ut2 = grid_velocity(theta)
    wp = w.physical()
    tp = theta.physical()
    n1 = dealiased_coef(grid, uw1 * tp) + dealiased_coef(grid, ut1 * wp)
    n2 = dealiased_coef(grid, uw2 * tp) + dealiased_coef(grid, ut2 * wp)
    return (
        SpectralField(grid, n1, real=True),
        SpectralField(grid, n2, real=True),
    )


def _level_block(f: SpectralField, bank: DyadicBank, j: int) -> SpectralField:
    return psi_block(f, bank) if j == 0 else block(f, bank, j)


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
    if g.grid != grid:
        raise ParameterError("fields live on different grids")
    fk = _level_block(f, bank, k)
    gl = _level_block(g, bank, l)

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


def commutator_a_j(
    f: SpectralField, g: SpectralField, bank: DyadicBank, j: int, route: str = "bracketed"
) -> SpectralField:
    """The level-j commutator combination A_j(f, g).

    A_j(f, g) = div(phi_j * (u_f g)) - u_f . grad(phi_j * g)
                + div(phi_j * (u_g f)),

    with u_h = perp-grad Lambda^(-1) h; the first two terms are the
    convolution commutator [del phi_j *, u_f] g and the third symmetrizes.
    route="expanded" rewrites both divergences through div u = 0 as
    phi_j * (u . grad), an independent association of the same products.
    """
    if f.grid != g.grid:
        raise ParameterError("fields live on different grids")
    if route not in ("bracketed", "expanded"):
        raise ParameterError(f"unknown route {route!r}")
    if not 1 <= j <= bank.j_max:
        raise ParameterError(f"level {j} outside 1..{bank.j_max}")
    grid = f.grid
    sym = bank.phi_hat[j - 1]
    uf1, uf2 = grid_velocity(f)
    grad_gj1, grad_gj2 = grid_gradient(SpectralField(grid, sym * g.coef, real=g.real))
    t2 = dealiased_coef(grid, uf1 * grad_gj1) + dealiased_coef(grid, uf2 * grad_gj2)

    if route == "bracketed":
        t1 = sym * -dealiased_advection(f, g.physical())
        t3 = sym * -dealiased_advection(g, f.physical())
    else:
        grad_g1, grad_g2 = grid_gradient(g)
        t1 = sym * (dealiased_coef(grid, uf1 * grad_g1) + dealiased_coef(grid, uf2 * grad_g2))
        ug1, ug2 = grid_velocity(g)
        grad_f1, grad_f2 = grid_gradient(f)
        t3 = sym * (dealiased_coef(grid, ug1 * grad_f1) + dealiased_coef(grid, ug2 * grad_f2))

    return SpectralField(grid, t1 - t2 + t3, real=True)

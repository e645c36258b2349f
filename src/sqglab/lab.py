"""Empirical verification of the dyadic inequality estimates.

Each verifier turns one "there exists C" inequality into a measurable
experiment: draw seeded random fields with a prescribed per-block spectral
slope, evaluate left- and right-hand sides exactly on the grid, and report
the ratio LHS/RHS per trial and per dyadic level.  A bounded constant is
then an empirical statement about the spread of those ratios: the per-level
sups must stay within a fixed factor across levels and across grid
resolutions.  No specific constant value is ever asserted.

Each verifier is the one definition of its lemma: its report carries the
(trial, j, ratio) rows, the summary in output order and the verdict.  A
trial returns its own (j, ratio) samples, so every row names the trial and
level it came from, also after a skipped sample.  The block lemmas probe
levels 2..j_max unless given levels; the bilinear factors are measured in
L^(2p) each, the even split of L^p, and verify_commutators runs the
advection and Riesz families on one seed.

Infinite exponents are inner approximations: p = infinity is the grid max
and q = infinity the sup over levels.  Norms of vector fields are the max
over components.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .littlewood import (
    ENERGY_FLOOR,
    BesovIndex,
    DyadicBank,
    add_block,
    besov_from_norms,
    besov_norm,
    block,
    block_norms,
    packet_profile,
)
from .spectral import (
    ParameterError,
    SpectralField,
    _check_alpha,
    _check_exponent,
    _check_same_grid,
    _embed,
    _square,
    dealiased_coef,
    dealiased_field,
    gradient,
    grid_gradient,
    grid_velocity,
    inverse_lambda,
    lp_norm,
    riesz_perp_velocity,
    semigroup_apply,
)
from .uniqueness import contraction_norm_spec

# larger counts are refused before a seed is spawned or a thread started:
# every trial's generator is made up front, and a pool wider than the
# machine only adds threads
MAX_TRIALS = 10_000
MAX_THREADS = 256


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one inequality experiment.

    rows holds the (trial, j, ratio) table, each ratio LHS/(RHS without
    constant); ratios is its last column and sup_constant their max (0.0
    with no row).  per_level_sup maps dyadic level to the max ratio seen
    there.  skipped counts what was excluded rather than silently
    dropped, and what that is depends on the verifier: probed blocks
    whose norm fell below the energy floor for bernstein and
    semigroup-decay, trials whose RHS fell below it for the other
    randomized verifiers, and the sum of both families' skipped trials
    for commutators.  summary maps each headline name to its value in
    output order and passed is the lemma's verdict.
    """

    lemma_id: str
    trials: int
    rows: tuple
    per_level_sup: dict[int, float]
    summary: dict
    passed: bool = False
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        ratios = self.ratios
        if ratios.size and not np.all(np.isfinite(ratios)):
            raise ParameterError(f"{self.lemma_id}: non-finite ratio in report")
        if ratios.size and ratios.min() < 0.0:
            raise ParameterError(f"{self.lemma_id}: negative ratio in report")

    @property
    def ratios(self) -> np.ndarray:
        return np.array([row[-1] for row in self.rows], dtype=np.float64)

    @property
    def sup_constant(self) -> float:
        ratios = self.ratios
        return float(ratios.max()) if ratios.size else 0.0


def level_spread(reports, lo: int = 2, hi: int | None = None) -> float:
    """Max/min of per-level sups across reports, restricted to [lo, hi].

    The empirical meaning of a uniform constant: this spread staying
    below a fixed factor as levels and resolutions vary.
    """
    values = []
    for report in reports:
        for j, v in report.per_level_sup.items():
            if j >= lo and (hi is None or j <= hi) and v > 0.0:
                values.append(v)
    if not values:
        raise ParameterError("no per-level data in the requested range")
    return max(values) / min(values)


def random_besov_field(bank: DyadicBank, rng, s: float = 0.0) -> SpectralField:
    """Random real mean-free field with block L^2 norms close to 2^(-s j).

    Gaussian white noise is decomposed through the bank and each block is
    rescaled to the target dyadic law (the low block to 1).  Overlap of
    adjacent filters perturbs the final block norms by an O(1) factor
    only, which is irrelevant for uniformity-of-ratio experiments.  The
    field has the band of the top level it placed (0 with none).
    """
    grid = bank.grid
    noise = rng.standard_normal((grid.n, grid.n))
    white = dealiased_field(grid, noise)
    norms = block_norms(white, bank, 2)
    coef = np.zeros_like(white.coef)
    top = 0
    if norms[0] > ENERGY_FLOOR:
        coef += block(white, bank, 0).coef / norms[0]
        top = bank.bands[0]
    # coef starts at +0.0 and never holds -0.0, so each level's scaled block
    # is added on its band square alone
    for j in bank.levels():
        if norms[j] > ENERGY_FLOOR:
            add_block(coef, white, bank, j, 2.0 ** (-s * j) / norms[j])
            top = bank.bands[j]
    coef[0, 0] = 0.0
    return SpectralField(grid, coef, top)


def _check_budget(name: str, count: int) -> None:
    """Refuse a count of trials or threads, as name says, outside its budget."""
    top = {"trials": MAX_TRIALS, "threads": MAX_THREADS}[name]
    if not 1 <= count <= top:
        raise ParameterError(f"{name} must lie in 1..{top}, got {count}")


def _run_trials(trials: int, seed: int, worker, threads: int = 1):
    """worker(rng) once per trial, each on its own child seed, in trial order."""
    _check_budget("trials", trials)
    _check_budget("threads", threads)
    children = np.random.SeedSequence(seed).spawn(trials)
    rngs = [np.random.default_rng(c) for c in children]

    def guarded(rng):
        # errstate is per thread; a value that leaves the float range
        # reaches the report, which rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            return worker(rng)

    if threads <= 1:
        return [guarded(rng) for rng in rngs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(guarded, rngs))


def _collect_trials(lemma_id, results):
    """Fold the trials' results, in trial order, into one report.

    Each result starts (samples, levels, nskip): samples the trial's
    (j, ratio) pairs in the order it computed them, levels its
    {level: ratio} and nskip what it skipped (a degenerate draw, or its
    empty blocks).  Each sample becomes a (trial, j, ratio) row; each level
    keeps the max ratio seen there.  The default verdict, some trial kept,
    reads sup_constant > 0.0: no ratio is negative and a skip gives none.
    """
    rows, per_level, skipped = [], {}, 0
    for trial, (samples, levels, nskip, *_) in enumerate(results):
        rows.extend((trial, j, float(r)) for j, r in samples)
        skipped += nskip
        for j, v in levels.items():
            per_level[j] = max(per_level.get(j, 0.0), v)
    per_level = {int(j): float(v) for j, v in sorted(per_level.items())}
    return EstimateReport(lemma_id, len(results), rows, per_level, {}, skipped=skipped)


def _probe_levels(bank, levels) -> list:
    """The block lemmas' levels: 2..j_max unless given, each in [1, j_max]."""
    levels = list(range(2, bank.j_max + 1)) if levels is None else list(levels)
    if any(j < 1 or j > bank.j_max for j in levels):
        raise ParameterError(f"levels must lie in [1, {bank.j_max}]")
    return levels


def _graded_ratio(norms, idx: BesovIndex, rhs):
    """A trial's result when its LHS is the idx-norm of the block norms in
    hand: the one sample (0, LHS/RHS), and each level's 2^(s j)-weighted
    block norm over the RHS."""
    weights = 2.0 ** (idx.s * np.arange(1, len(norms)))
    levels = {j: w * norms[j] / rhs for j, w in enumerate(weights, start=1)}
    return [(0, besov_from_norms(norms, idx) / rhs)], levels, 0


def _vector_besov(fields, bank, idx: BesovIndex):
    return max(besov_norm(f, bank, idx) for f in fields)


def _grad_pair(f):
    return gradient(f, 0), gradient(f, 1)


def _advect(v1, v2, h):
    """u . grad h, product dealiased, for u given by its grid values (v1, v2)."""
    g1, g2 = grid_gradient(h)
    return dealiased_field(h.grid, v1 * g1 + v2 * g2)


# ---------------------------------------------------------------------------
# Bernstein inequalities on dyadic blocks
# ---------------------------------------------------------------------------


def verify_bernstein(
    bank: DyadicBank,
    p: float,
    levels=None,
    trials: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Gradient and inverse-derivative norms on a dyadic block.

    For band-limited random fields reports both families of ratios:
    grad(phi_j * f) against 2^j phi_j * f, and 2^j Lambda^(-1)(phi_j * f)
    against phi_j * f, in L^p, at levels 2..j_max by default (level 1 of a
    pi/2 box carries no lattice points).  For p = 2 the gradient family is
    bounded by the top of the annulus, 4/3, exactly, and the verdict asks
    for that with some block kept; at other p it asks for a per-level
    spread below 3 from level 2 on.
    """
    _check_exponent(p, "p")
    levels = _probe_levels(bank, levels)

    def worker(rng):
        f = random_besov_field(bank, rng)
        samples, per_level = [], {}
        skipped = 0
        for j in levels:
            piece = block(f, bank, j)
            base = lp_norm(piece, p)
            if base < ENERGY_FLOOR:
                skipped += 1
                continue
            g1, g2 = _grad_pair(piece)
            grad_norm = max(lp_norm(g1, p), lp_norm(g2, p))
            inv_norm = lp_norm(inverse_lambda(piece), p)
            # the gradient ratio, then the inverse-derivative ratio
            pair = (grad_norm / (2.0**j * base), 2.0**j * inv_norm / base)
            samples += [(j, pair[0]), (j, pair[1])]
            per_level[j] = max(pair)
        return samples, per_level, skipped

    report = _collect_trials("bernstein", _run_trials(trials, seed, worker, threads))
    # the ratios alternate gradient, inverse; both sups are 0.0 when
    # every block was skipped
    gradient, inverse = report.ratios[0::2], report.ratios[1::2]
    gradient_sup = float(gradient.max()) if gradient.size else 0.0
    if p == 2.0:
        # a gradient sup of 0.0 bounds nothing: some block must be kept
        passed = report.sup_constant > 0.0 and gradient_sup <= 4.0 / 3.0 + 1e-9
    else:
        passed = level_spread([report], lo=2) < 3.0
    summary = {
        "p": p,
        "gradient_sup": gradient_sup,
        "inverse_sup": float(inverse.max()) if inverse.size else 0.0,
        "sup_constant": report.sup_constant,
        "skipped": report.skipped,
    }
    return replace(report, summary=summary, passed=passed)


# ---------------------------------------------------------------------------
# Semigroup decay on dyadic blocks
# ---------------------------------------------------------------------------


def verify_semigroup_decay(
    bank: DyadicBank,
    alpha: float,
    p: float,
    levels=None,
    taus=(0.25, 0.5, 1.0, 2.0),
    trials: int = 20,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Per-level exponential decay of the fractional heat semigroup.

    Times are scaled per level as t = tau * 2^(-alpha j) so every block is
    probed over the same range of decay.  Each ratio compares the measured
    decay against exp(-c t 2^(alpha j)) with c = (3/8)^alpha, the slowest
    admissible mode on the annulus; a least-squares fit through the origin
    of log-decay vs t recovers the per-level exponent c_fit, the min over
    trials, summarized as c_fit_min and c_fit_max over the levels (2..j_max
    by default).  For p = 2 the measured decay can never be slower than the
    c = (3/8)^alpha envelope nor faster than c = (4/3)^alpha, the fastest
    mode on the annulus; both edges are reported as c_floor and c_ceiling,
    and the verdict asks for every fit strictly between them and no ratio
    above 1.
    """
    _check_alpha(alpha)
    _check_exponent(p, "p")
    levels = _probe_levels(bank, levels)
    taus = tuple(taus)
    c_floor = (3.0 / 8.0) ** alpha
    c_ceiling = (4.0 / 3.0) ** alpha

    def worker(rng):
        f = random_besov_field(bank, rng)
        samples, per_level, c_fits = [], {}, {}
        skipped = 0
        for j in levels:
            piece = block(f, bank, j)
            base = lp_norm(piece, p)
            if base < ENERGY_FLOOR:
                skipped += 1
                continue
            scale = 2.0 ** (alpha * j)
            ts, logs, rats = [], [], []
            for tau in taus:
                t = tau / scale
                decayed = lp_norm(semigroup_apply(piece, alpha, t), p) / base
                rats.append(decayed / math.exp(-c_floor * t * scale))
                ts.append(t)
                logs.append(math.log(max(decayed, 1e-300)))
            ts = np.asarray(ts)
            logs = np.asarray(logs)
            c_fits[j] = -float(np.dot(ts, logs) / np.dot(ts, ts)) / scale
            samples += [(j, r) for r in rats]
            per_level[j] = max(rats)
        return samples, per_level, skipped, c_fits

    results = _run_trials(trials, seed, worker, threads)
    report = _collect_trials("semigroup-decay", results)
    fits = [min(fit[j] for *_, fit in results if j in fit) for j in report.per_level_sup]
    # no fit when every probed block fell below the energy floor
    passed = bool(fits) and report.sup_constant <= 1.0 + 1e-12 and all(
        c_floor < c < c_ceiling for c in fits
    )
    summary = {
        "alpha": alpha,
        "sup_constant": report.sup_constant,
        "c_floor": c_floor,
        "c_ceiling": c_ceiling,
        "c_fit_min": min(fits, default=math.nan),
        "c_fit_max": max(fits, default=math.nan),
    }
    return replace(report, summary=summary, passed=passed)


# ---------------------------------------------------------------------------
# Low-high paraproduct
# ---------------------------------------------------------------------------


def low_high_paraproduct(f: SpectralField, g: SpectralField, bank: DyadicBank):
    """sum_{l>=2} (low part of f below l-2) * (phi_l * g), dealiased.

    The symbol of S_{l-2} is the one before it plus phi_{l-2}, so one array
    accumulates the whole chain of partial sums.  The low part has the band
    of the top nonempty level in that sum (f finite).  A level whose
    annulus holds no lattice point has a zero product and is skipped;
    adding that zero would move no bit.
    """
    grid = bank.grid
    _check_same_grid(f.grid, grid)
    coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
    low_sym = bank.add_symbol(0, np.zeros(coef.shape))  # the symbol of S_0
    low_band = bank.bands[0]
    for l in range(2, bank.j_max + 1):
        if l > 2:
            bank.add_symbol(l - 2, low_sym)
            low_band = max(low_band, bank.bands[l - 2] or 0)
        if bank.bands[l] is None:
            continue
        low = SpectralField(grid, f.coef * low_sym, low_band)
        high = block(g, bank, l)
        coef += dealiased_coef(grid, low.physical() * high.physical())
    return SpectralField(grid, coef, grid.n // 3)


def verify_paraproduct(
    bank: DyadicBank,
    s: float,
    eps: float,
    p: float,
    q: float,
    trials: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Low-high paraproduct bounded by a negative-regularity low factor.

    LHS: B^(s-eps)_{p,q} norm of sum_{l>=2} S_{l-2} f (phi_l * g).
    RHS: B^(-eps)_{infty,q1} norm of f times B^s_{p,q2} norm of g, with
    1/q1 + 1/q2 = 1/q split evenly.  The verdict asks for some trial kept;
    the summary also gives the per-level spread from level 2 on.
    """
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    # the index of the typed q first, so that a refusal names it, not 2 q
    lhs_index = BesovIndex(s - eps, p, q)
    f_index = BesovIndex(-eps, math.inf, 2.0 * q)
    g_index = BesovIndex(s, p, 2.0 * q)

    def worker(rng):
        f = random_besov_field(bank, rng, s=0.25)
        g = random_besov_field(bank, rng, s=-0.25)
        para = low_high_paraproduct(f, g, bank)
        rhs = besov_norm(f, bank, f_index) * besov_norm(g, bank, g_index)
        if rhs < ENERGY_FLOOR:
            return [], {}, 1
        return _graded_ratio(block_norms(para, bank, p), lhs_index, rhs)

    report = _collect_trials("paraproduct", _run_trials(trials, seed, worker, threads))
    summary = {
        "s": s,
        "eps": eps,
        "sup_constant": report.sup_constant,
        "level_spread": level_spread([report], lo=2),
    }
    return replace(report, summary=summary, passed=report.sup_constant > 0.0)


# ---------------------------------------------------------------------------
# Level-diagonal bilinear estimate
# ---------------------------------------------------------------------------


def bilinear_diagonal_sum(f: SpectralField, g: SpectralField, bank: DyadicBank):
    """sum_{|k-l|<=1} (u_{f_k} . grad g_l + u_{g_l} . grad f_k), dealiased.

    Regrouped by bilinearity (Bony's paraproduct bookkeeping): level k of
    each factor advects the other factor's levels k-1..k+1, taken as one
    multiplier phi_{k-1} + phi_k + phi_{k+1}, with the band of the top
    nonempty level in it (the factors finite).  The products accumulate
    on the grid, and the total is transformed and dealiased once.
    """
    grid = bank.grid
    total = 0.0
    for k in range(bank.j_max):
        near = np.zeros((grid.n, grid.n))
        near_band = 0
        for level in range(max(1, k), min(k + 2, bank.j_max) + 1):
            bank.add_symbol(level, near)
            near_band = max(near_band, bank.bands[level] or 0)
        for a, b in ((f, g), (g, f)):
            v1, v2 = grid_velocity(block(a, bank, k + 1))
            g1, g2 = grid_gradient(SpectralField(grid, b.coef * near, near_band))
            total = total + (v1 * g1 + v2 * g2)
    return dealiased_field(grid, total)


def verify_bilinear(
    bank: DyadicBank,
    s: float,
    s_prime: float,
    p: float,
    q: float = 2.0,
    trials: int = 50,
    seed: int = 0,
    threads: int = 1,
    endpoint: bool = False,
) -> EstimateReport:
    """Symmetrized level-diagonal advection sum in negative regularity.

    LHS: B^s_{p,q} norm of sum_{|k-l|<=1} of the two mirrored products
    (the divergence-form structure is what makes s down to -2 admissible).
    RHS: B^(s')_{2p,q1} norm of f times B^(s+1-s')_{2p,q2} norm of g.
    With endpoint=True the LHS is measured in B^(-2)_{p,p} against
    g in B^(-1-s')_{2p,q2} instead.  The verdict asks for some trial kept.
    """
    if not s > -2.0 and not endpoint:
        raise ParameterError(f"graded variant needs s > -2, got {s}")
    # the index of the typed p and q first, so that a refusal names them
    lhs_index = BesovIndex(-2.0, p, p) if endpoint else BesovIndex(s, p, q)
    # q1 = q2: the borderline variant needs 1/q1 + 1/q2 = 1, the graded 1/q
    q_split = 2.0 if endpoint else 2.0 * q
    s_g = (-1.0 - s_prime) if endpoint else (s + 1.0 - s_prime)
    f_index = BesovIndex(s_prime, 2.0 * p, q_split)
    g_index = BesovIndex(s_g, 2.0 * p, q_split)

    def worker(rng):
        f = random_besov_field(bank, rng, s=s_prime)
        g = random_besov_field(bank, rng, s=s_g)
        total = bilinear_diagonal_sum(f, g, bank)
        rhs = besov_norm(f, bank, f_index) * besov_norm(g, bank, g_index)
        if rhs < ENERGY_FLOOR:
            return [], {}, 1
        return _graded_ratio(block_norms(total, bank, p), lhs_index, rhs)

    report = _collect_trials("bilinear-diagonal", _run_trials(trials, seed, worker, threads))
    summary = {"s": s, "s_prime": s_prime, "sup_constant": report.sup_constant}
    return replace(report, summary=summary, passed=report.sup_constant > 0.0)


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


def lowpass_commutator_family(u1, u2, theta, bank):
    """[filter*, u] . grad theta for the low-pass and every annulus filter,
    yielded one at a time."""
    v1, v2 = u1.physical(), u2.physical()
    advection = _advect(v1, v2, theta)
    for j in range(bank.j_max + 1):
        yield SpectralField(
            bank.grid,
            block(advection, bank, j).coef - _advect(v1, v2, block(theta, bank, j)).coef,
        )


def verify_commutator_advection(
    bank: DyadicBank,
    trials: int = 30,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Filter-advection commutators against the product of gradient norms.

    LHS: the L^p norm of [psi*, u] . grad theta plus the l^q sum of
    2^(s j) ||[phi_j*, u] . grad theta||_p.  RHS: the B^(2/p - eps)_{p,q1}
    norm of grad u times the B^(s + eps - 1)_{p,q2} norm of grad theta,
    with u divergence-free, at s = -1/2, eps = 1/2, p = 4 and q = 2.  The
    verdict asks for some trial kept.
    """
    # fixed exponents, inside s + 2/p + 1 > 0, 0 < eps < 2/p + 1 and s + eps < 2/p + 1
    s, eps, p, q = -0.5, 0.5, 4.0, 2.0
    lhs_index = BesovIndex(s, p, q)
    du_index = BesovIndex(2.0 / p - eps, p, 2.0 * q)
    dtheta_index = BesovIndex(s + eps - 1.0, p, 2.0 * q)

    def worker(rng):
        stream = random_besov_field(bank, rng, s=0.5)
        u1, u2 = riesz_perp_velocity(stream)
        theta = random_besov_field(bank, rng, s=0.25)
        # each gradient and each commutator is dropped once its norm is taken
        du = (gradient(comp, axis) for comp in (u1, u2) for axis in (0, 1))
        dtheta = (gradient(theta, axis) for axis in (0, 1))
        rhs = _vector_besov(du, bank, du_index) * _vector_besov(dtheta, bank, dtheta_index)
        if rhs < ENERGY_FLOOR:
            return [], {}, 1
        norms = [lp_norm(piece, p) for piece in lowpass_commutator_family(u1, u2, theta, bank)]
        samples, levels, nskip = _graded_ratio(norms, lhs_index, rhs)
        levels[0] = norms[0] / rhs
        return samples, levels, nskip

    report = _collect_trials("advection-commutator", _run_trials(trials, seed, worker, threads))
    summary = {"sup_constant": report.sup_constant, "skipped": report.skipped}
    return replace(report, summary=summary, passed=report.sup_constant > 0.0)


def riesz_lowpass_commutator(f, g, bank):
    """[R psi*, R f . grad] g where R is the perpendicular Riesz velocity.

    R psi* applied to the scalar (R f . grad g), minus advection by R f of
    the vector R psi* g, componentwise; returns the two components.
    """
    v1, v2 = grid_velocity(f)
    first = riesz_perp_velocity(block(_advect(v1, v2, g), bank, 0))
    low_g = riesz_perp_velocity(block(g, bank, 0))
    return tuple(
        SpectralField(bank.grid, a.coef - _advect(v1, v2, b).coef)
        for a, b in zip(first, low_g)
    )


def riesz_commutator_rhs_terms(f, g, bank) -> dict[str, float]:
    """The five L-infinity term groups bounding the low-pass Riesz commutator."""
    nf = block_norms(f, bank, math.inf)
    ng = block_norms(g, bank, math.inf)
    j_max = bank.j_max
    high_f = sum(nf[k] for k in range(5, j_max + 1))
    diag = 0.0
    for k in range(1, j_max + 1):
        for l in range(max(1, k - 6), min(j_max, k + 6) + 1):
            diag += nf[k] * ng[l]
    return {
        "low_g_high_f": ng[0] * high_f,
        "low_low": nf[0] * ng[0],
        "low_f_first_g": nf[0] * (ng[1] if j_max >= 1 else 0.0),
        "first_f_low_g": (nf[1] if j_max >= 1 else 0.0) * ng[0],
        "near_diagonal": diag,
    }


def verify_commutator_riesz(
    bank: DyadicBank,
    trials: int = 30,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Low-pass Riesz-velocity commutator against its five-term bound.

    LHS: the max-component grid max of [R psi*, R f . grad] g.  RHS: the
    unweighted sum of the five term groups (no relative weights are
    prescribed, so none are applied).  The verdict asks for some trial kept.
    """

    def worker(rng):
        f = random_besov_field(bank, rng, s=0.25)
        g = random_besov_field(bank, rng, s=0.25)
        c1, c2 = riesz_lowpass_commutator(f, g, bank)
        lhs = max(lp_norm(c1, math.inf), lp_norm(c2, math.inf))
        rhs = sum(riesz_commutator_rhs_terms(f, g, bank).values())
        if rhs < ENERGY_FLOOR:
            return [], {}, 1
        return [(0, lhs / rhs)], {0: lhs / rhs}, 0

    report = _collect_trials("riesz-commutator", _run_trials(trials, seed, worker, threads))
    summary = {"sup_constant": report.sup_constant, "skipped": report.skipped}
    return replace(report, summary=summary, passed=report.sup_constant > 0.0)


def verify_commutators(
    bank: DyadicBank,
    trials: int = 30,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """The advection and Riesz commutator families on the same seed.

    Rows are (trial, family, ratio), family 0 the advection and 1 the
    Riesz commutator, each row from its family's own report;
    per_level_sup holds each family's sup.  The verdict passes when each
    family keeps some trial.
    """
    families = (
        verify_commutator_advection(bank, trials, seed, threads),
        verify_commutator_riesz(bank, trials, seed, threads),
    )
    rows = [(k, j, r) for j, rep in enumerate(families) for k, _, r in rep.rows]
    per_family = {j: rep.sup_constant for j, rep in enumerate(families)}
    skipped = sum(rep.skipped for rep in families)
    summary = {"sup_constant": max(per_family.values()), "skipped": skipped}
    passed = all(rep.sup_constant > 0.0 for rep in families)
    return EstimateReport("commutators", trials, rows, per_family, summary, passed, skipped)


# ---------------------------------------------------------------------------
# Operator-norm bound for the velocity-gradient multiplier
# ---------------------------------------------------------------------------


def velocity_gradient_components(f: SpectralField):
    """The four components of grad (R f), symbols (i k_a)(i k_b^perp)/|k|."""
    u1, u2 = riesz_perp_velocity(f)
    return [piece for comp in (u1, u2) for piece in _grad_pair(comp)]


def verify_multiplier_bound(
    bank: DyadicBank,
    s: float,
    q: float,
    trials: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Velocity-gradient multiplier as a bounded map losing one derivative.

    Ratio of the max-component B^(s-1)_{infty,q} norm of grad (R f) to the
    B^s_{infty,q} norm of f; the symbol grows linearly so the ratio must
    be uniform over levels and resolutions.  The verdict asks for some
    trial kept and a per-level spread below 3 from level 2 on.
    """
    rhs_index = BesovIndex(s, math.inf, q)
    lhs_index = BesovIndex(s - 1.0, math.inf, q)

    def worker(rng):
        f = random_besov_field(bank, rng, s=s)
        rhs = besov_norm(f, bank, rhs_index)
        if rhs < ENERGY_FLOOR:
            return [], {}, 1
        comps = velocity_gradient_components(f)
        norm_rows = np.array([block_norms(c, bank, math.inf) for c in comps])
        lhs = max(besov_from_norms(row, lhs_index) for row in norm_rows)
        weights = 2.0 ** ((s - 1.0) * np.arange(1, bank.j_max + 1))
        levels = {
            j: weights[j - 1] * norm_rows[:, j].max() / rhs
            for j in range(1, bank.j_max + 1)
        }
        return [(0, lhs / rhs)], levels, 0

    report = _collect_trials("velocity-multiplier", _run_trials(trials, seed, worker, threads))
    # level_spread raises when no trial was kept
    spread = level_spread([report], lo=2)
    summary = {"s": s, "sup_constant": report.sup_constant, "level_spread": spread}
    return replace(report, summary=summary, passed=spread < 3.0)


# ---------------------------------------------------------------------------
# Duhamel smoothing bound
# ---------------------------------------------------------------------------


def endpoint_norm_indices(alpha: float):
    """(p, q, s) of the critical space the smoothing bound is phrased in:
    the data space of the contraction norm (see contraction_norm_spec)."""
    d = contraction_norm_spec(alpha).data_index
    return d.p, d.q, d.s


def duhamel_exponent(alpha: float) -> float:
    """Small-horizon scaling exponent of the nonlinear Duhamel term."""
    if alpha >= 1.5:
        return 1.0 / (2.0 * alpha)
    if alpha > 1.0:
        return 2.0 - 2.0 / alpha
    return 0.5


def duhamel_test_datum(
    bank: DyadicBank, p: float, s: float = -0.5, top: int | None = None
) -> SpectralField:
    """Co-located dyadic wave packets with flat Besov block profile.

    Sum over levels of the annulus kernel centered at the origin,
    normalized to unit L^p and weighted 2^(-s j), so every block norm is
    exactly 2^(-s j).  Random-phase data underfills the product bound
    (block products average out instead of aligning), which drags the
    measured Duhamel scaling toward the crude exponent 1 - 1/alpha;
    packets concentrated at one point keep the velocity-scalar product
    aligned at every scale and realize the critical-space rate.  The top
    level is dropped by default: its self-interaction spills past the
    dealiasing cutoff and gets chopped, which bends the small-horizon
    tail of the fit.
    """
    top = bank.j_max - 1 if top is None else int(top)
    if not 1 <= top <= bank.j_max:
        raise ParameterError(f"top level {top} outside 1..{bank.j_max}")
    return packet_profile(bank, p, lambda j: 2.0 ** (-s * j) if j <= top else 0.0)


def _steady_duhamel_norms(theta, alpha, horizons, p):
    """Exact L^p size of int_0^T exp(-(T-s) Lambda^alpha) (u theta) ds at
    each horizon T.

    For time-constant theta every mode integrates in closed form to the
    factor (1 - exp(-T |k|^alpha))/|k|^alpha (T at k = 0), applied to the
    velocity-scalar product, which is formed once; each entry is the max
    over the two components.  The products are +0.0 outside the kept
    square of n//3, their band, so the factor is formed and applied on
    that square's layout alone (see spectral._square).
    """
    grid = theta.grid
    phys = theta.physical()
    products = [dealiased_field(grid, v * phys) for v in grid_velocity(theta)]
    n, band = grid.n, grid.n // 3
    symbol = grid.kabs_on(band) ** alpha
    out = []
    for horizon in horizons:
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = -np.expm1(-horizon * symbol) / symbol
        mult[0, 0] = horizon
        norms = [
            lp_norm(SpectralField(grid, _embed(_square(c.coef, band) * mult, n, band), band), p)
            for c in products
        ]
        out.append(max(0.0, *norms))
    return out


def verify_duhamel_bound(
    alpha: float,
    theta,
    bank: DyadicBank,
    horizons=None,
    p: float | None = None,
    q: float | None = None,
) -> EstimateReport:
    """Nonlinear Duhamel term against max{T, T^(1/2 alpha)} times data norms.

    theta is a single spectral field treated as time-constant data, which
    makes the time integral exact per mode.  Ratios and rows are indexed
    by the horizon ladder; the summary carries the fitted log-log slope of
    the norm against T over the whole ladder, and the verdict asks for it
    within 0.2 of duhamel_exponent(alpha).  The default ladder spans the
    resolved window [2^(1-alpha(J-2)), 2^(-2 alpha - 1)]: below it the
    horizon resolves scales finer than the bank carries (every mode sits
    in the linear-in-T regime and the fit bends toward slope 1), above
    it the split level falls under the coarsest annulus.
    """
    p_star, q_star, s_star = endpoint_norm_indices(alpha)
    p = p_star if p is None else p
    data_index = BesovIndex(s_star, p, q_star if q is None else q)
    if horizons is None:
        t_lo = 2.0 * 2.0 ** (-alpha * (bank.j_max - 2))
        t_hi = 0.5 * 2.0 ** (-2.0 * alpha)
        if t_lo >= t_hi:
            # t_lo / t_hi = 2^(2 - alpha (j_max - 4))
            raise ParameterError(
                f"the default horizon ladder needs alpha * (j_max - 4) > 2, got "
                f"alpha={alpha} with j_max={bank.j_max} (n={bank.grid.n}, "
                f"box={bank.grid.box_length:g})"
            )
        horizons = tuple(np.geomspace(t_lo, t_hi, 12))
    horizons = tuple(float(t) for t in horizons)
    if any(t <= 0.0 for t in horizons) or list(horizons) != sorted(horizons):
        raise ParameterError("horizons must be positive and increasing")
    if not isinstance(theta, SpectralField):
        raise ParameterError("theta must be a spectral field (time-constant data)")

    data_norm = besov_norm(theta, bank, data_index)
    if alpha > 1.5:
        denom_base = data_norm * data_norm
    else:
        u1, u2 = riesz_perp_velocity(theta)
        denom_base = data_norm * _vector_besov((u1, u2), bank, data_index)
    norms = _steady_duhamel_norms(theta, alpha, horizons, p)
    # the integrand factor grows with T per mode, so the running max
    # realizes the sup over [0, T] on the ladder
    sups = np.maximum.accumulate(norms)
    if denom_base < ENERGY_FLOOR:
        ratios = np.zeros(len(horizons))
    else:
        scales = np.array(
            [max(t, t ** (1.0 / (2.0 * alpha))) for t in horizons]
        )
        ratios = sups / (scales * denom_base)
    logs_t = np.log(np.asarray(horizons))
    logs_d = np.log(np.maximum(sups, 1e-300))
    slope = float(np.polyfit(logs_t, logs_d, 1)[0])
    target = duhamel_exponent(alpha)
    gap = abs(slope - target)
    summary = {
        "alpha": alpha,
        "slope": slope,
        "target_exponent": target,
        "slope_gap": gap,
        "horizon_lo": horizons[0],
        "horizon_hi": horizons[-1],
    }
    rows = [(0, k, float(r)) for k, r in enumerate(ratios)]
    per_level = {k: float(r) for k, r in enumerate(ratios)}
    return EstimateReport("duhamel-smoothing", len(horizons), rows, per_level, summary, gap <= 0.2)

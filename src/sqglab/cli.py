"""Command-line interface: config handling, dispatch, CSV and summaries.

Five commands cover the toolkit: ``solve`` marches the dissipative
transport equation and tabulates norms; ``verify-lemma`` runs one
estimate verifier by id; ``counterexample`` tabulates the divergent and
convergent product pairings; ``uniqueness`` measures contraction factors
and twin-run agreement; ``continuity`` runs the semigroup continuity
dichotomy.  Every command writes one RFC-4180 CSV (floats in scientific
notation with 16 significant digits, CRLF rows, no timestamps, so a rerun
with the same configuration is byte-identical) plus a plaintext summary
mirroring the headline numbers.  Exit status: 0 on success, 1 on a
parameter problem, 2 when a verification predicate fails.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .counterexamples import (
    a3_lower_sum,
    build_counterexample_pair,
    lower_bound_sum,
    pairing_quadrature,
    prop_a3_product_norm,
    symmetrized_magnitude_series,
)
from .lab import (
    duhamel_test_datum,
    level_spread,
    random_besov_field,
    verify_bernstein,
    verify_bilinear,
    verify_commutator_advection,
    verify_commutator_riesz,
    verify_commutators,
    verify_duhamel_bound,
    verify_multiplier_bound,
    verify_paraproduct,
    verify_semigroup_decay,
)
from .littlewood import build_bank
from .mild import BlowUpError, SolveParams, march
from .spectral import ParameterError, SpectralField, lp_norms, shared_grid
from .uniqueness import (
    contraction_ladder,
    contraction_norm_spec,
    continuity_criterion_test,
    twin_experiments,
)

# counterexample id -> default number of terms
_COUNTEREXAMPLE_TERMS = {"a1": 12, "a3": 50}
COUNTEREXAMPLE_IDS = tuple(_COUNTEREXAMPLE_TERMS)
# uniqueness case -> (default alpha, admissible alpha, that window's label)
_UNIQUENESS_CASES = {
    "endpoint": (2.0, lambda a: 1.5 < a <= 2.0, "(3/2, 2]"),
    "alpha1": (1.0, lambda a: a == 1.0, "exactly 1"),
    "mid": (1.25, lambda a: 1.0 < a <= 1.5, "(1, 3/2]"),
    "super": (0.75, lambda a: 0.0 < a < 1.0, "(0, 1)"),
}
UNIQUENESS_CASES = tuple(_UNIQUENESS_CASES)

# every config key with its type; each one is also a --<key> flag
_KEY_TYPES = {
    **dict.fromkeys(("n", "trials", "seed", "threads"), int),
    **dict.fromkeys(
        ("alpha", "box", "T", "dt", "s", "p", "q", "eps", "s_prime"), float
    ),
    **dict.fromkeys(("out", "data"), str),
}
_ALL_KEYS = _KEY_TYPES.keys()


@dataclass
class RunConfig:
    """Validated parameter set for one dispatch."""

    command: str
    target: str | None = None
    alpha: float | None = None
    n: int | None = None
    box: float | None = None
    T: float | None = None
    dt: float | None = None
    s: float | None = None
    p: float | None = None
    q: float | None = None
    eps: float | None = None
    s_prime: float | None = None
    trials: int | None = None
    seed: int | None = None
    out: str = "."
    threads: int = field(default_factory=lambda: os.cpu_count() or 1)
    data: str | None = None  # smooth when unset

    def require_seed(self, why: str) -> int:
        if self.seed is None:
            raise ParameterError(f"--seed is mandatory for {why}")
        return self.seed

    def validate(self) -> None:
        if self.n is not None and self.n < 16:
            raise ParameterError(f"grid size must be at least 16, got {self.n}")
        for name in ("box", "T", "dt"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ParameterError(f"{name} must be positive, got {v}")
        if self.trials is not None and self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if self.seed is not None and self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.threads < 1:
            raise ParameterError(f"threads must be at least 1, got {self.threads}")
        if self.data not in (None, "smooth", "zero", "random"):
            raise ParameterError(f"data must be smooth|zero|random, got {self.data!r}")


def load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ParameterError(
                        f"{path}:{line_no}: expected key=value, got {text!r}"
                    )
                key, _, raw = text.partition("=")
                key = key.strip()
                if key not in _ALL_KEYS:
                    raise ParameterError(f"{path}:{line_no}: unknown key {key!r}")
                kind = _KEY_TYPES[key]
                try:
                    out[key] = kind(raw.strip())
                except ValueError:
                    raise ParameterError(
                        f"{path}:{line_no}: key {key} expects {kind.__name__}, "
                        f"got {raw.strip()!r}"
                    )
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}")
    return out


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.15e}"


def write_csv(path: str, reference: str, columns, rows) -> None:
    """RFC-4180 table; the first header cell carries the reference string.

    columns is a sequence of (name, unit) pairs; every float is written
    in scientific notation with 16 significant digits.
    """
    header = []
    for i, (name, unit) in enumerate(columns):
        tag = f"{unit} | reference: {reference}" if i == 0 else unit
        header.append(f"{name} [{tag}]")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def write_summary(path: str, reference: str, lines, passed: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"reference: {reference}\n")
        for key, value in lines:
            fh.write(f"{key} = {_fmt_cell(value)}\n")
        fh.write(f"status = {'pass' if passed else 'fail'}\n")


def _emit(config: RunConfig, slug: str, columns, rows, lines, passed: bool) -> int:
    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, f"{slug}.csv")
    txt_path = os.path.join(config.out, f"{slug}-summary.txt")
    write_csv(csv_path, slug, columns, rows)
    write_summary(txt_path, slug, lines, passed)
    sys.stdout.write(f"wrote {csv_path}\nwrote {txt_path}\n")
    for key, value in lines:
        sys.stdout.write(f"{key} = {_fmt_cell(value)}\n")
    sys.stdout.write(f"status = {'pass' if passed else 'fail'}\n")
    return 0 if passed else 2


def _merged(config: RunConfig, name: str, defaults: dict, also=()) -> dict:
    """The set keys merged over the defaults; defaults and also name every
    key the command reads, and any other set key but out and threads is an
    error."""
    given = {
        key: getattr(config, key)
        for key in _ALL_KEYS - {"out", "threads"}
        if getattr(config, key) is not None
    }
    unread = sorted(given.keys() - defaults.keys() - set(also))
    if unread:
        raise ParameterError(f"{name} does not read {', '.join(unread)}")
    return {**defaults, **given}


def _smooth_data(grid, amp: float = 0.05) -> SpectralField:
    x1, x2 = grid.x1, grid.x2
    vals = amp * (
        np.cos(2 * x1) * np.sin(x2)
        + 0.5 * np.sin(x1 + 3 * x2)
        + 0.25 * np.cos(5 * x1 - 2 * x2)
    )
    return SpectralField.from_physical(grid, vals)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(config: RunConfig) -> int:
    defaults = dict(alpha=1.5, n=128, box=2.0 * math.pi, T=0.2, dt=0.0025, data="smooth")
    # only random data reads the seed
    random_data = config.data == "random"
    args = _merged(config, "solve", defaults, ("seed",) if random_data else ())
    alpha, n, box = args["alpha"], args["n"], args["box"]
    grid = shared_grid(n, box)
    if args["data"] == "zero":
        theta0 = SpectralField(grid, np.zeros((n, n), dtype=np.complex128))
    elif random_data:
        seed = config.require_seed("randomized initial data")
        bank = build_bank(grid)
        theta0 = random_besov_field(bank, np.random.default_rng(seed)) * 0.05
    else:
        theta0 = _smooth_data(grid)
    params = SolveParams(alpha=alpha, n=n, t_final=args["T"], dt=args["dt"], box_length=box)
    rows = []
    try:
        for t, coef, _ in march(theta0, params):
            f = SpectralField(grid, coef, real=theta0.real)
            rows.append((t, *lp_norms(f, (2, 4, math.inf)), f.mean()))
    except BlowUpError as exc:
        sys.stderr.write(f"run blew up: {exc}\n")
        return 2
    columns = (
        ("time", "box time"),
        ("l2", "amplitude"),
        ("l4", "amplitude"),
        ("linf", "amplitude"),
        ("mean", "amplitude"),
    )
    lines = [
        ("alpha", alpha),
        ("n", n),
        ("final_l2", rows[-1][1]),
        ("final_linf", rows[-1][3]),
        ("mean_drift", abs(rows[-1][4] - rows[0][4])),
    ]
    return _emit(config, "solve", columns, rows, lines, True)


# ---------------------------------------------------------------------------
# verify-lemma
# ---------------------------------------------------------------------------


def _lemma_rows(report, levels, repeats: int = 1) -> list:
    """(trial, j, ratio) rows; each trial holds `repeats` ratios per level."""
    ratios = list(report.ratios)
    per_trial = len(levels) * repeats
    if per_trial > 0 and len(ratios) == report.trials * per_trial:
        return [
            (k // per_trial, levels[k % per_trial // repeats], float(r))
            for k, r in enumerate(ratios)
        ]
    # skipped degenerate draws break the rectangular layout
    return [(k, -1, float(r)) for k, r in enumerate(ratios)]


def _some_trial_kept(report) -> bool:
    """The default verdict: some trial survived and gave a positive ratio."""
    return report.skipped < report.trials and report.sup_constant > 0.0


def _whole_norm(report, lines, passed=None):
    """The output of a lemma that measures one whole-norm ratio per trial."""
    rows = _lemma_rows(report, [0])
    if passed is None:
        passed = _some_trial_kept(report)
    return rows, "0 = whole-norm ratio", passed, lines


# Each runner takes the bank and its lemma's merged parameters and returns
# (rows, j unit, verdict, summary lines).  It calls the public verifier by
# its module-level name, so a wrapper installed on this module sees the call.


def _run_bernstein(bank, p, **args):
    # level 1 of a pi/2 box carries no lattice points; start at 2
    probe = list(range(2, bank.j_max + 1))
    report = verify_bernstein(bank, p, levels=probe, **args)
    # a gradient and an inverse-derivative ratio per level
    rows = _lemma_rows(report, probe, 2)
    if p == 2.0:
        passed = report.params["gradient_sup"] <= 4.0 / 3.0 + 1e-9
    else:
        passed = level_spread([report], lo=2) < 3.0
    lines = [
        ("p", p),
        ("gradient_sup", report.params["gradient_sup"]),
        ("inverse_sup", report.params["inverse_sup"]),
        ("sup_constant", report.sup_constant),
        ("skipped", report.skipped),
    ]
    return rows, "dyadic level", passed, lines


def _run_semigroup_decay(bank, alpha, p, **args):
    probe = list(range(2, bank.j_max + 1))
    report = verify_semigroup_decay(bank, alpha, p, levels=probe, **args)
    # one ratio per level and decay time
    rows = _lemma_rows(report, probe, len(report.params["taus"]))
    fits = report.params["c_fit"]
    floor = report.params["c_floor"]
    ceiling = report.params["c_ceiling"]
    # no fit when every probed block fell below the energy floor
    passed = bool(fits) and report.sup_constant <= 1.0 + 1e-12 and all(
        floor < c < ceiling for c in fits.values()
    )
    lines = [
        ("alpha", alpha),
        ("sup_constant", report.sup_constant),
        ("c_floor", floor),
        ("c_ceiling", ceiling),
        ("c_fit_min", min(fits.values(), default=math.nan)),
        ("c_fit_max", max(fits.values(), default=math.nan)),
    ]
    return rows, "dyadic level", passed, lines


def _run_paraproduct(bank, s, eps, p, q, **args):
    report = verify_paraproduct(bank, s, eps, p, q, **args)
    lines = [
        ("s", s),
        ("eps", eps),
        ("sup_constant", report.sup_constant),
        ("level_spread", level_spread([report], lo=2)),
    ]
    return _whole_norm(report, lines)


def _run_bilinear_diagonal(bank, s, s_prime, p, q, **args):
    report = verify_bilinear(bank, s, s_prime, p, 2.0 * p, 2.0 * p, q=q, **args)
    lines = [
        ("s", s),
        ("s_prime", s_prime),
        ("sup_constant", report.sup_constant),
    ]
    return _whole_norm(report, lines)


def _commutator_lines(report):
    return [("sup_constant", report.sup_constant), ("skipped", report.skipped)]


def _run_advection_commutator(bank, **args):
    report = verify_commutator_advection(bank, **args)
    return _whole_norm(report, _commutator_lines(report))


def _run_riesz_commutator(bank, **args):
    report = verify_commutator_riesz(bank, **args)
    return _whole_norm(report, _commutator_lines(report))


def _run_commutators(bank, **args):
    report = verify_commutators(bank, **args)
    # advection block first, then the riesz block
    trials = report.trials
    rows = [(k % trials, k // trials, float(r)) for k, r in enumerate(report.ratios)]
    j_unit = "0 = advection family, 1 = riesz family"
    return rows, j_unit, _some_trial_kept(report), _commutator_lines(report)


def _run_velocity_multiplier(bank, s, q, **args):
    report = verify_multiplier_bound(bank, s, q, **args)
    spread = level_spread([report], lo=2)
    lines = [
        ("s", s),
        ("sup_constant", report.sup_constant),
        ("level_spread", spread),
    ]
    return _whole_norm(report, lines, report.skipped < report.trials and spread < 3.0)


def _run_duhamel_smoothing(bank, alpha, p, q):
    datum = duhamel_test_datum(bank, 4.0 if p is None else p)
    report = verify_duhamel_bound(alpha, datum, bank, p=p, q=q)
    horizons = report.params["horizons"]
    rows = [(0, k, float(r)) for k, r in enumerate(report.ratios)]
    gap = abs(report.params["slope"] - report.params["target_exponent"])
    lines = [
        ("alpha", alpha),
        ("slope", report.params["slope"]),
        ("target_exponent", report.params["target_exponent"]),
        ("slope_gap", gap),
        ("horizon_lo", horizons[0]),
        ("horizon_hi", horizons[-1]),
    ]
    return rows, "horizon index", gap <= 0.2, lines


# id -> (runner, defaults).  The defaults name every key the lemma reads,
# and a key set outside them is an error.  The quarter box packs in two
# extra dyadic levels, but suites probing the low-pass filter or the
# default horizon ladder need the full box where the coarse levels hold
# modes.  Unset p and q for duhamel-smoothing select the critical space.
_QUARTER_BOX = dict(n=128, box=0.5 * math.pi)
_FULL_BOX = dict(n=128, box=2.0 * math.pi)
_LEMMAS = {
    "bernstein": (_run_bernstein, dict(_QUARTER_BOX, trials=20, p=2.0)),
    "semigroup-decay": (
        _run_semigroup_decay,
        dict(_QUARTER_BOX, trials=10, alpha=1.0, p=2.0),
    ),
    "paraproduct": (
        _run_paraproduct,
        dict(_QUARTER_BOX, trials=30, s=-0.5, eps=0.25, p=4.0, q=2.0),
    ),
    "bilinear-diagonal": (
        _run_bilinear_diagonal,
        dict(_QUARTER_BOX, trials=30, s=-0.5, s_prime=-0.5, p=4.0, q=2.0),
    ),
    "advection-commutator": (_run_advection_commutator, dict(_FULL_BOX, trials=20)),
    "riesz-commutator": (_run_riesz_commutator, dict(_FULL_BOX, trials=20)),
    "commutators": (_run_commutators, dict(_FULL_BOX, trials=20)),
    "velocity-multiplier": (
        _run_velocity_multiplier,
        dict(_QUARTER_BOX, trials=50, s=-0.5, q=math.inf),
    ),
    "duhamel-smoothing": (
        _run_duhamel_smoothing,
        dict(n=256, box=2.0 * math.pi, alpha=2.0, p=None, q=None),
    ),
}
LEMMA_IDS = tuple(_LEMMAS)

# lemmas whose verifiers draw random fields; these refuse to run without
# an explicit seed so reruns are reproducible by construction
_RANDOMIZED_LEMMAS = frozenset(LEMMA_IDS) - {"duhamel-smoothing"}


def _cmd_verify_lemma(config: RunConfig) -> int:
    target = config.target
    if target not in _LEMMAS:
        raise ParameterError(f"unknown lemma id {target!r}")
    runner, defaults = _LEMMAS[target]
    randomized = target in _RANDOMIZED_LEMMAS
    args = _merged(
        config, f"verify-lemma {target}", defaults, ("seed",) if randomized else ()
    )
    grid = shared_grid(args.pop("n"), args.pop("box"))
    if randomized:
        args["seed"] = config.require_seed("randomized verification")
        args["threads"] = config.threads
    rows, j_unit, passed, lines = runner(build_bank(grid), **args)
    columns = (("trial", "count"), ("j", j_unit), ("ratio", "dimensionless"))
    return _emit(config, target, columns, rows, lines, bool(passed))


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _cmd_counterexample(config: RunConfig) -> int:
    target = config.target
    if target not in _COUNTEREXAMPLE_TERMS:
        raise ParameterError(f"unknown counterexample id {target!r}")
    defaults = dict(s=-0.5, trials=_COUNTEREXAMPLE_TERMS[target])
    args = _merged(config, f"counterexample {target}", defaults)
    s, n_max = args["s"], args["trials"]
    if not s < 0.0:
        raise ParameterError(f"the bump families need s < 0, got {s}")
    # a1 tabulates from 2 terms, a3 from 1; each reads a growth ratio
    # between its last two rows
    fewest = 3 if target == "a1" else 2
    if n_max < fewest:
        raise ParameterError(f"need at least {fewest} terms, got {n_max}")
    columns = (
        ("N", "number of bump terms"),
        ("pairing", "pairing value"),
        ("lower_bound", "partial sum"),
        ("ratio", "pairing / partial sum"),
    )
    if target == "a1":
        rows = []
        for n_terms in range(2, n_max + 1):
            f, g = build_counterexample_pair(s, n_terms)
            value = pairing_quadrature(f, g, "single")
            lower = lower_bound_sum(s, n_terms)
            rows.append((n_terms, value, lower, value / lower))
        ratios = [r[3] for r in rows]
        spread = max(ratios) / min(ratios)
        growth = [b[1] / a[1] for a, b in zip(rows, rows[1:])]
        f, g = build_counterexample_pair(s, n_max)
        sym_terms = symmetrized_magnitude_series(f, g)
        sym_value = pairing_quadrature(f, g, "symmetrized")
        increasing = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
        passed = increasing and spread < 2.0
        lines = [
            ("s", s),
            ("terms", n_max),
            ("last_growth_ratio", growth[-1]),
            ("growth_target", 2.0 ** (-2.0 * s)),
            ("oracle_ratio_spread", spread),
            ("symmetrized_pairing", sym_value),
            ("symmetrized_magnitude_sum", float(sym_terms.sum())),
        ]
        slug = "counterexample-a1"
    else:
        rows = []
        for n_terms in range(1, n_max + 1):
            value, lower = prop_a3_product_norm(s, n_terms)
            rows.append((n_terms, value, lower, value / lower if lower else 0.0))
        ratios = [r[3] for r in rows]
        spread = max(ratios) / min(ratios)
        exponent = -2.0 * s - 1.0
        if exponent > 0.0:
            growth = rows[-1][2] / rows[-2][2]
            passed = spread < 1.02 and growth > 1.05
            verdict = "diverges"
            detail = ("last_growth_ratio", growth)
        else:
            limit = a3_lower_sum(s, 10000)
            gap = abs(rows[-1][2] - limit) / limit
            passed = spread < 1.02 and gap < 0.01
            verdict = "converges"
            detail = ("limit_gap", gap)
        lines = [
            ("s", s),
            ("terms", n_max),
            ("verdict", verdict),
            detail,
            ("oracle_ratio_spread", spread),
        ]
        slug = "counterexample-a3"
    return _emit(config, slug, columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------


def _cmd_uniqueness(config: RunConfig) -> int:
    case = config.target
    default_alpha, admits, window = _UNIQUENESS_CASES[case]
    # an unset s selects the case's own contraction norm
    defaults = dict(alpha=default_alpha, n=128, box=2.0 * math.pi, T=0.4, dt=0.0025, s=None)
    args = _merged(config, f"uniqueness {case}", defaults)
    alpha, n, box, t_top, dt = (args[k] for k in ("alpha", "n", "box", "T", "dt"))
    if not admits(alpha):
        raise ParameterError(f"case {case} needs alpha in {window}, got {alpha}")
    grid = shared_grid(n, box)
    bank = build_bank(grid)
    theta0 = _smooth_data(grid)
    spec = contraction_norm_spec(alpha, s=args["s"])
    params = SolveParams(alpha=alpha, n=n, t_final=t_top, dt=dt, box_length=box)
    horizons = [t_top / 8.0, t_top / 4.0, t_top / 2.0, t_top]
    try:
        ladder = contraction_ladder(theta0, params, bank, horizons, spec=spec)
        twin = replace(params, t_final=t_top / 4.0, dt=2.0 * dt)
        ident_max, order, amplification = twin_experiments(theta0, twin, bank, spec)
    except BlowUpError as exc:
        sys.stderr.write(f"run blew up: {exc}\n")
        return 2
    rows = [
        (t, res.factor, res.numerator, res.denominator)
        for t, res in zip(horizons, ladder)
    ]
    factors = [r[1] for r in rows]
    decreasing = all(a < b for a, b in zip(factors, factors[1:]))
    passed = (
        decreasing
        and factors[0] < 1.0
        and ident_max == 0.0
        and abs(order - 2.0) <= 0.3
    )
    columns = (
        ("T", "horizon, box time"),
        ("factor", "contraction factor"),
        ("numerator", "image-difference norm"),
        ("denominator", "difference norm"),
    )
    lines = [
        ("alpha", alpha),
        ("norm_s", spec.index.s),
        ("norm_p", spec.index.p),
        ("norm_q", spec.index.q),
        ("riesz_low", spec.riesz_low),
        ("smallest_factor", factors[0]),
        ("strictly_decreasing", decreasing),
        ("identical_twin_gap", ident_max),
        ("temporal_order", order),
        ("delta_amplification", amplification),
    ]
    return _emit(config, f"uniqueness-{case}", columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------


def _cmd_continuity(config: RunConfig) -> int:
    defaults = dict(n=512, box=2.0 * math.pi, alpha=2.0, s=-0.5, p=2.0)
    args = _merged(config, "continuity", defaults)
    alpha, s, p = args["alpha"], args["s"], args["p"]
    bank = build_bank(shared_grid(args["n"], args["box"]))
    # a norm that overflows is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        vanishing = continuity_criterion_test(
            lambda j: 2.0 ** (-s * j) * 2.0 ** (-j), bank, s, p, alpha
        )
        unit = continuity_criterion_test(lambda j: 2.0 ** (-s * j), bank, s, p, alpha)
    sizes = [*vanishing.curve, *unit.curve, vanishing.tail, unit.tail]
    if not np.all(np.isfinite(sizes)):
        # finite amplitudes 2^(-s j) whose norms leave the float range
        raise ParameterError(f"continuity at s = {s:g}: a norm is not finite")
    rows = [
        (t, dv, du)
        for t, dv, du in zip(vanishing.times, vanishing.curve, unit.curve)
    ]
    passed = vanishing.converged and bool(
        unit.curve.min() >= 0.5 * unit.curve[0]
    )
    columns = (
        ("t", "box time"),
        ("d_vanishing_tail", "semigroup distance"),
        ("d_unit_tail", "semigroup distance"),
    )
    lines = [
        ("alpha", alpha),
        ("s", s),
        ("p", p),
        ("vanishing_drop", vanishing.curve[0] / vanishing.curve[-1]),
        ("vanishing_tail", vanishing.tail),
        ("unit_floor_ratio", float(unit.curve.min() / unit.curve[0])),
        ("unit_tail", unit.tail),
    ]
    return _emit(config, "continuity", columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # parameter problems exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="sqglab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="march the dissipative transport equation")
    p_lemma = sub.add_parser("verify-lemma", help="run one estimate verifier")
    p_lemma.add_argument("target", choices=LEMMA_IDS, metavar="id")
    p_ce = sub.add_parser("counterexample", help="divergent-product tables")
    p_ce.add_argument("target", choices=COUNTEREXAMPLE_IDS, metavar="id")
    p_uni = sub.add_parser("uniqueness", help="contraction and twin experiments")
    p_uni.add_argument("target", choices=UNIQUENESS_CASES, metavar="case")
    p_cont = sub.add_parser("continuity", help="semigroup continuity dichotomy")

    for p in (p_solve, p_lemma, p_ce, p_uni, p_cont):
        p.add_argument("--config", help="flat key=value file; flags override it")
        for key, kind in sorted(_KEY_TYPES.items()):
            helptext = "output directory (default: current)" if key == "out" else None
            p.add_argument(f"--{key}", type=kind, help=helptext)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    for key in _ALL_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    config = RunConfig(
        command=args.command, target=getattr(args, "target", None), **values
    )
    config.validate()
    return config


_DISPATCH = {
    "solve": _cmd_solve,
    "verify-lemma": _cmd_verify_lemma,
    "counterexample": _cmd_counterexample,
    "uniqueness": _cmd_uniqueness,
    "continuity": _cmd_continuity,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = build_config(args)
        return _DISPATCH[config.command](config)
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 1
    except OverflowError as exc:
        # a power such as 2^(-s j) that the parameters push past the float range
        sys.stderr.write(f"parameter error: a value leaves the float range: {exc}\n")
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

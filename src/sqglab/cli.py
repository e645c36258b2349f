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
from dataclasses import dataclass, field

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
from .mild import BlowUpError, SolveParams, solve
from .spectral import ParameterError, SpectralField, lp_norms, shared_grid
from .uniqueness import (
    contraction_ladder,
    contraction_norm_spec,
    continuity_criterion_test,
    temporal_order,
    twin_run,
)

LEMMA_IDS = (
    "bernstein",
    "semigroup-decay",
    "paraproduct",
    "bilinear-diagonal",
    "advection-commutator",
    "riesz-commutator",
    "commutators",
    "velocity-multiplier",
    "duhamel-smoothing",
)
COUNTEREXAMPLE_IDS = ("a1", "a3")
UNIQUENESS_CASES = ("endpoint", "alpha1", "mid", "super")

_INT_KEYS = {"n", "trials", "seed", "threads"}
_FLOAT_KEYS = {"alpha", "box", "T", "dt", "s", "p", "q", "eps", "s_prime"}
_STR_KEYS = {"out", "data"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

# commands whose verifiers draw random fields; these refuse to run
# without an explicit seed so reruns are reproducible by construction
_RANDOMIZED_LEMMAS = frozenset(LEMMA_IDS) - {"duhamel-smoothing"}


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
    data: str = "smooth"

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
        if self.threads < 1:
            raise ParameterError(f"threads must be at least 1, got {self.threads}")
        if self.data not in ("smooth", "zero", "random"):
            raise ParameterError(f"data must be smooth|zero|random, got {self.data!r}")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ParameterError(f"key {key} expects an integer, got {raw!r}")
    if key in _FLOAT_KEYS:
        if raw.lower() in ("inf", "infinity"):
            return math.inf
        try:
            return float(raw)
        except ValueError:
            raise ParameterError(f"key {key} expects a number, got {raw!r}")
    return raw


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
                out[key] = _parse_value(key, raw)
    except OSError as exc:
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
    alpha = 1.5 if config.alpha is None else config.alpha
    n = 128 if config.n is None else config.n
    box = 2.0 * math.pi if config.box is None else config.box
    t_final = 0.2 if config.T is None else config.T
    dt = 0.0025 if config.dt is None else config.dt
    grid = shared_grid(n, box)
    if config.data == "zero":
        theta0 = SpectralField(grid, np.zeros((n, n), dtype=np.complex128))
    elif config.data == "random":
        seed = config.require_seed("randomized initial data")
        bank = build_bank(grid)
        theta0 = random_besov_field(bank, np.random.default_rng(seed)) * 0.05
    else:
        theta0 = _smooth_data(grid)
    params = SolveParams(alpha=alpha, n=n, t_final=t_final, dt=dt, box_length=box)
    try:
        solution = solve(theta0, params)
    except BlowUpError as exc:
        sys.stderr.write(f"run blew up: {exc}\n")
        return 2
    rows = [
        (float(t), *lp_norms(f, (2, 4, math.inf)), f.mean())
        for t, f in zip(solution.series.times, solution.series.fields)
    ]
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


def _lemma_rows(report, trials: int, per_trial: int, levels) -> list:
    """(trial, j, ratio) rows; j cycles through the per-trial layout."""
    ratios = list(report.ratios)
    rows = []
    if per_trial > 0 and len(ratios) == trials * per_trial:
        for k, r in enumerate(ratios):
            rows.append((k // per_trial, levels[k % per_trial], float(r)))
    else:
        # skipped degenerate draws break the rectangular layout
        rows = [(k, -1, float(r)) for k, r in enumerate(ratios)]
    return rows


# (n, box) defaults per verifier: the quarter box packs in two extra
# dyadic levels, but suites probing the low-pass filter or the default
# horizon ladder need the full box where the coarse levels hold modes
_LEMMA_GRIDS = {
    "bernstein": (128, 0.5 * math.pi),
    "semigroup-decay": (128, 0.5 * math.pi),
    "paraproduct": (128, 0.5 * math.pi),
    "bilinear-diagonal": (128, 0.5 * math.pi),
    "advection-commutator": (128, 2.0 * math.pi),
    "riesz-commutator": (128, 2.0 * math.pi),
    "commutators": (128, 2.0 * math.pi),
    "velocity-multiplier": (128, 0.5 * math.pi),
    "duhamel-smoothing": (256, 2.0 * math.pi),
}


def _cmd_verify_lemma(config: RunConfig) -> int:
    target = config.target
    if target not in _LEMMA_GRIDS:
        raise ParameterError(f"unknown lemma id {target!r}")
    n_default, box_default = _LEMMA_GRIDS[target]
    n = n_default if config.n is None else config.n
    box = box_default if config.box is None else config.box
    grid = shared_grid(n, box)
    bank = build_bank(grid)
    threads = config.threads
    j_unit = "dyadic level"

    if target == "bernstein":
        seed = config.require_seed("randomized verification")
        p = 2.0 if config.p is None else config.p
        trials = 20 if config.trials is None else config.trials
        # level 1 of a pi/2 box carries no lattice points; start at 2
        probe = list(range(2, bank.j_max + 1))
        report = verify_bernstein(
            bank, p, levels=probe, trials=trials, seed=seed, threads=threads
        )
        levels = [j for j in probe for _ in range(2)]
        rows = _lemma_rows(report, trials, 2 * len(probe), levels)
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
    elif target == "semigroup-decay":
        seed = config.require_seed("randomized verification")
        alpha = 1.0 if config.alpha is None else config.alpha
        p = 2.0 if config.p is None else config.p
        trials = 10 if config.trials is None else config.trials
        taus = (0.25, 0.5, 1.0, 2.0)
        probe = list(range(2, bank.j_max + 1))
        report = verify_semigroup_decay(
            bank, alpha, p, levels=probe, trials=trials, seed=seed, threads=threads
        )
        levels = [j for j in probe for _ in taus]
        rows = _lemma_rows(report, trials, len(probe) * len(taus), levels)
        fits = report.params["c_fit"]
        floor = report.params["c_floor"]
        ceiling = report.params["c_ceiling"]
        passed = report.sup_constant <= 1.0 + 1e-12 and all(
            floor < c < ceiling for c in fits.values()
        )
        lines = [
            ("alpha", alpha),
            ("sup_constant", report.sup_constant),
            ("c_floor", floor),
            ("c_ceiling", ceiling),
            ("c_fit_min", min(fits.values())),
            ("c_fit_max", max(fits.values())),
        ]
    elif target == "paraproduct":
        seed = config.require_seed("randomized verification")
        s = -0.5 if config.s is None else config.s
        eps = 0.25 if config.eps is None else config.eps
        p = 4.0 if config.p is None else config.p
        q = 2.0 if config.q is None else config.q
        trials = 30 if config.trials is None else config.trials
        report = verify_paraproduct(
            bank, s, eps, p, q, trials=trials, seed=seed, threads=threads
        )
        rows = _lemma_rows(report, trials, 1, [0])
        j_unit = "0 = whole-norm ratio"
        passed = report.skipped < trials and report.sup_constant > 0.0
        lines = [
            ("s", s),
            ("eps", eps),
            ("sup_constant", report.sup_constant),
            ("level_spread", level_spread([report], lo=2)),
        ]
    elif target == "bilinear-diagonal":
        seed = config.require_seed("randomized verification")
        s = -0.5 if config.s is None else config.s
        s_prime = -0.5 if config.s_prime is None else config.s_prime
        p = 4.0 if config.p is None else config.p
        q = 2.0 if config.q is None else config.q
        trials = 30 if config.trials is None else config.trials
        report = verify_bilinear(
            bank, s, s_prime, p, 2.0 * p, 2.0 * p, q=q,
            trials=trials, seed=seed, threads=threads,
        )
        rows = _lemma_rows(report, trials, 1, [0])
        j_unit = "0 = whole-norm ratio"
        passed = report.skipped < trials and report.sup_constant > 0.0
        lines = [
            ("s", s),
            ("s_prime", s_prime),
            ("sup_constant", report.sup_constant),
        ]
    elif target in ("advection-commutator", "riesz-commutator", "commutators"):
        seed = config.require_seed("randomized verification")
        trials = 20 if config.trials is None else config.trials
        if target == "advection-commutator":
            report = verify_commutator_advection(
                bank, trials=trials, seed=seed, threads=threads
            )
        elif target == "riesz-commutator":
            report = verify_commutator_riesz(
                bank, trials=trials, seed=seed, threads=threads
            )
        else:
            report = verify_commutators(bank, trials=trials, seed=seed, threads=threads)
        per_trial = 2 if target == "commutators" else 1
        if target == "commutators":
            # advection block first, then the riesz block
            rows = [
                (k % trials, k // trials, float(r))
                for k, r in enumerate(report.ratios)
            ]
            j_unit = "0 = advection family, 1 = riesz family"
        else:
            rows = _lemma_rows(report, trials, per_trial, [0])
            j_unit = "0 = whole-norm ratio"
        passed = report.skipped < trials and report.sup_constant > 0.0
        lines = [("sup_constant", report.sup_constant), ("skipped", report.skipped)]
    elif target == "velocity-multiplier":
        seed = config.require_seed("randomized verification")
        s = -0.5 if config.s is None else config.s
        q = math.inf if config.q is None else config.q
        trials = 50 if config.trials is None else config.trials
        report = verify_multiplier_bound(
            bank, s, q, trials=trials, seed=seed, threads=threads
        )
        rows = _lemma_rows(report, trials, 1, [0])
        j_unit = "0 = whole-norm ratio"
        spread = level_spread([report], lo=2)
        passed = report.skipped < trials and spread < 3.0
        lines = [
            ("s", s),
            ("sup_constant", report.sup_constant),
            ("level_spread", spread),
        ]
    elif target == "duhamel-smoothing":
        alpha = 2.0 if config.alpha is None else config.alpha
        datum = duhamel_test_datum(bank, 4.0 if config.p is None else config.p)
        report = verify_duhamel_bound(
            alpha, datum, bank, p=config.p, q=config.q
        )
        horizons = report.params["horizons"]
        rows = [
            (0, k, float(r)) for k, r in enumerate(report.ratios)
        ]
        j_unit = "horizon index"
        gap = abs(report.params["slope"] - report.params["target_exponent"])
        passed = gap <= 0.2
        lines = [
            ("alpha", alpha),
            ("slope", report.params["slope"]),
            ("target_exponent", report.params["target_exponent"]),
            ("slope_gap", gap),
            ("horizon_lo", horizons[0]),
            ("horizon_hi", horizons[-1]),
        ]
    else:
        raise ParameterError(f"unknown lemma id {target!r}")

    columns = (("trial", "count"), ("j", j_unit), ("ratio", "dimensionless"))
    return _emit(config, target, columns, rows, lines, bool(passed))


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _cmd_counterexample(config: RunConfig) -> int:
    target = config.target
    s = -0.5 if config.s is None else config.s
    if not s < 0.0:
        raise ParameterError(f"the bump families need s < 0, got {s}")
    columns = (
        ("N", "number of bump terms"),
        ("pairing", "pairing value"),
        ("lower_bound", "partial sum"),
        ("ratio", "pairing / partial sum"),
    )
    if target == "a1":
        n_max = 12 if config.trials is None else config.trials
        if n_max < 2:
            raise ParameterError(f"need at least 2 terms, got {n_max}")
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
    elif target == "a3":
        n_max = 50 if config.trials is None else config.trials
        if n_max < 2:
            raise ParameterError(f"need at least 2 terms, got {n_max}")
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
    else:
        raise ParameterError(f"unknown counterexample id {target!r}")
    return _emit(config, slug, columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------


def _uniqueness_alpha(case: str, config: RunConfig) -> float:
    defaults = {"endpoint": 2.0, "alpha1": 1.0, "mid": 1.25, "super": 0.75}
    alpha = defaults[case] if config.alpha is None else config.alpha
    windows = {
        "endpoint": (lambda a: 1.5 < a <= 2.0, "(3/2, 2]"),
        "alpha1": (lambda a: a == 1.0, "exactly 1"),
        "mid": (lambda a: 1.0 < a <= 1.5, "(1, 3/2]"),
        "super": (lambda a: 0.0 < a < 1.0, "(0, 1)"),
    }
    ok, label = windows[case]
    if not ok(alpha):
        raise ParameterError(f"case {case} needs alpha in {label}, got {alpha}")
    return alpha


def _cmd_uniqueness(config: RunConfig) -> int:
    case = config.target
    alpha = _uniqueness_alpha(case, config)
    n = 128 if config.n is None else config.n
    box = 2.0 * math.pi if config.box is None else config.box
    t_top = 0.4 if config.T is None else config.T
    dt = 0.0025 if config.dt is None else config.dt
    grid = shared_grid(n, box)
    bank = build_bank(grid)
    theta0 = _smooth_data(grid)
    spec = contraction_norm_spec(alpha, s=config.s)
    params = SolveParams(alpha=alpha, n=n, t_final=t_top, dt=dt, box_length=box)
    horizons = [t_top / 8.0, t_top / 4.0, t_top / 2.0, t_top]
    try:
        ladder = contraction_ladder(theta0, params, bank, horizons, spec=spec)
        twin_params = SolveParams(
            alpha=alpha, n=n, t_final=t_top / 4.0, dt=2.0 * dt, box_length=box
        )
        ident = twin_run(theta0, twin_params, "identical", bank, spec=spec)
        order = temporal_order(theta0, twin_params, bank, spec=spec)
        dexp = twin_run(theta0, twin_params, "delta", bank, spec=spec)
    except BlowUpError as exc:
        sys.stderr.write(f"run blew up: {exc}\n")
        return 2
    rows = [
        (t, res.factor, res.numerator, res.denominator)
        for t, res in zip(horizons, ladder)
    ]
    factors = [r[1] for r in rows]
    ident_max = float(ident.w_norms.max())
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
        ("delta_amplification", dexp.amplification),
    ]
    return _emit(config, f"uniqueness-{case}", columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------


def _cmd_continuity(config: RunConfig) -> int:
    n = 512 if config.n is None else config.n
    box = 2.0 * math.pi if config.box is None else config.box
    alpha = 2.0 if config.alpha is None else config.alpha
    s = -0.5 if config.s is None else config.s
    p = 2.0 if config.p is None else config.p
    bank = build_bank(shared_grid(n, box))
    vanishing = continuity_criterion_test(
        lambda j: 2.0 ** (-s * j) * 2.0 ** (-j), bank, s, p, alpha
    )
    unit = continuity_criterion_test(lambda j: 2.0 ** (-s * j), bank, s, p, alpha)
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


def _add_common_flags(parser: _Parser) -> None:
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--n", type=int)
    parser.add_argument("--box", type=float)
    parser.add_argument("--T", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--s", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--threads", type=int)


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
        _add_common_flags(p)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in sorted(_ALL_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    config = RunConfig(
        command=args.command,
        target=getattr(args, "target", None),
        **{k: v for k, v in values.items() if k in _ALL_KEYS},
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
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

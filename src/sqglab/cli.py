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
parameter problem, 2 when a verification predicate fails or a march
blows up.

The parameters of a run are one dict, _KEY_TYPES its only key table: the
config file's values, then the flags over them.  main checks out and
threads before dispatch, and each command refuses the keys it does not
read.  Each rule has one check, run before the work: n and box by Grid2,
T and dt by SolveParams, the seed by _seed, data by the solve march,
alpha, p and q by spectral and trials and threads by lab (through
_check_rules before verify-lemma and continuity build a grid).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .counterexamples import (
    A1_FIRST_TERMS,
    a3_lower_sum,
    prop_a1_pairings,
    prop_a3_product_norms,
    symmetrized_magnitude_series,
)
from .lab import (
    MAX_THREADS,
    _check_budget,
    duhamel_test_datum,
    endpoint_norm_indices,
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
from .spectral import ParameterError, SpectralField, _check_alpha, _check_exponent
from .spectral import grid_lp_norms, lp_norm, shared_grid
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


def _emit(out: str, slug: str, columns, rows, lines, passed: bool) -> int:
    csv_path = os.path.join(out, f"{slug}.csv")
    txt_path = os.path.join(out, f"{slug}-summary.txt")
    summary = "".join(f"{key} = {_fmt_cell(value)}\n" for key, value in lines)
    summary += f"status = {'pass' if passed else 'fail'}\n"
    # main refused an out that names a file; what the file system refuses
    # only now is a parameter error too
    try:
        os.makedirs(out, exist_ok=True)
        write_csv(csv_path, slug, columns, rows)
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(f"reference: {slug}\n{summary}")
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot write to out {out!r}: {exc}") from None
    sys.stdout.write(f"wrote {csv_path}\nwrote {txt_path}\n{summary}")
    return 0 if passed else 2


def _merged(values: dict, name: str, defaults: dict, also=()) -> dict:
    """The values merged over the defaults; defaults and also name every
    key the command reads, and any other key but out and threads is an
    error."""
    given = {key: v for key, v in values.items() if key not in ("out", "threads")}
    unread = sorted(given.keys() - defaults.keys() - set(also))
    if unread:
        raise ParameterError(f"{name} does not read {', '.join(unread)}")
    return {**defaults, **given}


def _check_rules(args: dict) -> None:
    """The library's one check of alpha, p, q and trials, run on the values
    a command reads before it builds a grid."""
    if "alpha" in args:
        _check_alpha(args["alpha"])
    for key in ("p", "q"):
        if args.get(key) is not None:
            _check_exponent(args[key], key)
    if "trials" in args:
        _check_budget("trials", args["trials"])


def _seed(args: dict, why: str) -> int:
    """The seed of a randomized run, which must be set and nonnegative."""
    seed = args.get("seed")
    if seed is None:
        raise ParameterError(f"--seed is mandatory for {why}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return seed


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


def _solve_march(args: dict):
    """The march of the solve command.  Its parameters are checked before
    the grid or the datum is built, and it holds its own copy of the datum,
    so neither the datum nor the bank that drew it outlives this call."""
    params = SolveParams(
        alpha=args["alpha"], n=args["n"], t_final=args["T"], dt=args["dt"], box_length=args["box"]
    )
    grid = params.grid()
    n = grid.n
    data = args["data"]
    if data == "zero":
        theta0 = SpectralField(grid, np.zeros((n, n), dtype=np.complex128))
    elif data == "random":
        seed = _seed(args, "randomized initial data")
        theta0 = random_besov_field(build_bank(grid), np.random.default_rng(seed)) * 0.05
    elif data == "smooth":
        theta0 = _smooth_data(grid)
    else:
        raise ParameterError(f"data must be smooth|zero|random, got {data!r}")
    return march(theta0, params)


def _cmd_solve(_target: None, values: dict) -> int:
    defaults = dict(alpha=1.5, n=128, box=2.0 * math.pi, T=0.2, dt=0.0025, data="smooth")
    # only random data reads the seed
    also = ("seed",) if values.get("data") == "random" else ()
    args = _merged(values, "solve", defaults, also)
    alpha, n = args["alpha"], args["n"]
    rows = []
    # l4 and linf read the grid values the step's advection took; only
    # the final state, which no advection reads, is inverted here
    for t, theta, _, grid_values in _solve_march(args):
        if grid_values is None:
            grid_values = theta.physical()
        norms = grid_lp_norms(theta.grid, grid_values, (4, math.inf))
        # not held through the next step's advections
        del grid_values
        rows.append((t, lp_norm(theta, 2), *norms, theta.mean()))
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
    return _emit(values["out"], "solve", columns, rows, lines, True)


# ---------------------------------------------------------------------------
# verify-lemma
# ---------------------------------------------------------------------------


# the Duhamel datum of acceptance criterion 9: packets at the critical (p, s), p from --p if set
def _duhamel_smoothing(bank, alpha, p, q):
    p_star, _, s = endpoint_norm_indices(alpha)
    datum = duhamel_test_datum(bank, p_star if p is None else p, s=s)
    return verify_duhamel_bound(alpha, datum, bank, p=p, q=q)


# id -> (verifier, j unit, defaults): the verifier takes the bank and the
# merged defaults, and its report holds the rows, summary and verdict.  The
# defaults name every key the lemma reads, and a key set outside them is an
# error.  The quarter box packs in two extra dyadic levels, but suites
# probing the low-pass filter or the default horizon ladder need the full
# box where the coarse levels hold modes.  Unset p and q for
# duhamel-smoothing select the critical space.
_QUARTER_BOX = dict(n=128, box=0.5 * math.pi)
_FULL_BOX = dict(n=128, box=2.0 * math.pi)
_WHOLE_NORM = "0 = whole-norm ratio"
_LEMMAS = {
    "bernstein": (verify_bernstein, "dyadic level", dict(_QUARTER_BOX, trials=20, p=2.0)),
    "semigroup-decay": (
        verify_semigroup_decay,
        "dyadic level",
        dict(_QUARTER_BOX, trials=10, alpha=1.0, p=2.0),
    ),
    "paraproduct": (
        verify_paraproduct,
        _WHOLE_NORM,
        dict(_QUARTER_BOX, trials=30, s=-0.5, eps=0.25, p=4.0, q=2.0),
    ),
    "bilinear-diagonal": (
        verify_bilinear,
        _WHOLE_NORM,
        dict(_QUARTER_BOX, trials=30, s=-0.5, s_prime=-0.5, p=4.0, q=2.0),
    ),
    "advection-commutator": (verify_commutator_advection, _WHOLE_NORM, dict(_FULL_BOX, trials=20)),
    "riesz-commutator": (verify_commutator_riesz, _WHOLE_NORM, dict(_FULL_BOX, trials=20)),
    "commutators": (
        verify_commutators,
        "0 = advection family, 1 = riesz family",
        dict(_FULL_BOX, trials=20),
    ),
    "velocity-multiplier": (
        verify_multiplier_bound,
        _WHOLE_NORM,
        dict(_QUARTER_BOX, trials=50, s=-0.5, q=math.inf),
    ),
    "duhamel-smoothing": (
        _duhamel_smoothing,
        "horizon index",
        dict(n=256, box=2.0 * math.pi, alpha=2.0, p=None, q=None),
    ),
}
LEMMA_IDS = tuple(_LEMMAS)

# lemmas whose verifiers draw random fields; these refuse to run without
# an explicit seed so reruns are reproducible by construction
_RANDOMIZED_LEMMAS = frozenset(LEMMA_IDS) - {"duhamel-smoothing"}


def _cmd_verify_lemma(target: str, values: dict) -> int:
    verify, j_unit, defaults = _LEMMAS[target]
    randomized = target in _RANDOMIZED_LEMMAS
    args = _merged(
        values, f"verify-lemma {target}", defaults, ("seed",) if randomized else ()
    )
    if randomized:
        args["seed"] = _seed(args, "randomized verification")
        args["threads"] = values["threads"]
    _check_rules(args)
    grid = shared_grid(args.pop("n"), args.pop("box"))
    # looked up by name at call time, so a wrapper installed on this
    # module sees the call
    report = globals()[verify.__name__](build_bank(grid), **args)
    columns = (("trial", "count"), ("j", j_unit), ("ratio", "dimensionless"))
    return _emit(values["out"], target, columns, report.rows, report.summary.items(), report.passed)


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _cmd_counterexample(target: str, values: dict) -> int:
    defaults = dict(s=-0.5, trials=_COUNTEREXAMPLE_TERMS[target])
    args = _merged(values, f"counterexample {target}", defaults)
    s, n_max = args["s"], args["trials"]
    # a1 tabulates from A1_FIRST_TERMS terms, a3 from 1; each reads a
    # growth ratio between its last two rows
    first = A1_FIRST_TERMS if target == "a1" else 1
    if n_max < first + 1:
        raise ParameterError(f"need at least {first + 1} terms, got {n_max}")
    # the trials budget of every command: bump_coefficients holds n_max terms
    _check_budget("trials", n_max)
    columns = (
        ("N", "number of bump terms"),
        ("pairing", "pairing value"),
        ("lower_bound", "partial sum"),
        ("ratio", "pairing / partial sum"),
    )
    if target == "a1":
        sums, sym_value = prop_a1_pairings(s, n_max)
    else:
        sums = prop_a3_product_norms(s, n_max)
    rows = [
        (n_terms, value, lower, value / lower)
        for n_terms, (value, lower) in enumerate(sums, start=first)
    ]
    ratios = [r[3] for r in rows]
    spread = max(ratios) / min(ratios)
    if target == "a1":
        growth = [b[1] / a[1] for a, b in zip(rows, rows[1:])]
        sym_terms = symmetrized_magnitude_series(s, n_max)
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
    else:
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
    return _emit(values["out"], f"counterexample-{target}", columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------


def _cmd_uniqueness(case: str, values: dict) -> int:
    default_alpha, admits, window = _UNIQUENESS_CASES[case]
    # an unset s selects the case's own contraction norm
    defaults = dict(alpha=default_alpha, n=128, box=2.0 * math.pi, T=0.4, dt=0.0025, s=None)
    args = _merged(values, f"uniqueness {case}", defaults)
    alpha, n, box, t_top, dt = (args[k] for k in ("alpha", "n", "box", "T", "dt"))
    if not admits(alpha):
        raise ParameterError(f"case {case} needs alpha in {window}, got {alpha}")
    spec = contraction_norm_spec(alpha, s=args["s"])
    # every march's parameters are checked before the grid and the bank
    params = SolveParams(alpha=alpha, n=n, t_final=t_top, dt=dt, box_length=box)
    horizons = [t_top / 8.0, t_top / 4.0, t_top / 2.0, t_top]
    # params passed every rule at T, so at T/8 only the step rule can fail
    try:
        replace(params, t_final=horizons[0])
    except ParameterError:
        raise ParameterError(
            f"uniqueness marches to T/8, T/4, T/2 and T, so T/8 must be a whole "
            f"number of steps dt, at least one: got T={t_top}, dt={dt}"
        ) from None
    # the twins run to T/4 at 2 dt, so their dt/2 refinement is the
    # ladder's own march to that horizon; 2 dt alone can fail a rule that
    # params passed, so it is checked before the first march
    try:
        twin = replace(params, t_final=horizons[1], dt=2.0 * dt)
    except ParameterError as exc:
        raise ParameterError(f"the twin runs march to T/4 at 2*dt = {2.0 * dt}: {exc}") from None
    grid = shared_grid(n, box)
    bank = build_bank(grid)
    theta0 = _smooth_data(grid)
    ladder = contraction_ladder(theta0, params, bank, horizons, spec=spec, state_at=horizons[1])
    fine = ladder[1].state
    ident_max, order, amplification = twin_experiments(theta0, twin, bank, spec, fine)
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
    return _emit(values["out"], f"uniqueness-{case}", columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------


def _cmd_continuity(_target: None, values: dict) -> int:
    defaults = dict(n=512, box=2.0 * math.pi, alpha=2.0, s=-0.5, p=2.0)
    args = _merged(values, "continuity", defaults)
    _check_rules(args)
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
    return _emit(values["out"], "continuity", columns, rows, lines, passed)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-1 and -inf, as the CSVs print negative floats, are values, not options
        self._negative_number_matcher = re.compile(r"^-(\d*\.?\d+(e[-+]?\d+)?|inf|nan)$", re.I)

    # parameter problems exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# parse_args keeps no state on the parser, so one process builds it once
@functools.lru_cache(maxsize=1)
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


def build_config(args: argparse.Namespace) -> dict:
    """The run's values: out and threads at their defaults, the config
    file's values over them and the flags over those."""
    values = dict(out=".", threads=min(os.cpu_count() or 1, MAX_THREADS))
    if args.config:
        values.update(load_config_file(args.config))
    values.update((key, getattr(args, key)) for key in _ALL_KEYS if getattr(args, key) is not None)
    return values


def _check_shared(values: dict) -> None:
    """threads and out, the two keys every command reads.  The nearest
    existing part of out must be a directory, so that an out naming a file,
    or running through one, is refused before any work."""
    _check_budget("threads", values["threads"])
    out = values["out"]
    head = os.path.abspath(out)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not out or not os.path.isdir(head):
        raise ParameterError(f"out must be a directory or a new path under one, got {out!r}")


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
        values = build_config(args)
        _check_shared(values)
        return _DISPATCH[args.command](getattr(args, "target", None), values)
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 1
    except BlowUpError as exc:
        sys.stderr.write(f"run blew up: {exc}\n")
        return 2
    except OverflowError as exc:
        # a power such as 2^(-s j) that the parameters push past the float range
        sys.stderr.write(f"parameter error: a value leaves the float range: {exc}\n")
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

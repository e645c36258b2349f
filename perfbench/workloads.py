"""The four benchmark workloads, the runner that drives ``sqglab.cli.main``
in-process, and the check of every output against committed references.

Each workload is a closed loop with one client: its experiments run back
to back, one at a time, and a pass is one run of all of them.  Inputs come
from the benchmark seed through ``experiment_seed``: there are
``SEED_SLOTS`` input sets, because each has a committed reference output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SEED_SLOTS = 4
# arithmetic-changing refactors (real transforms, regrouped sums) move
# values by ~1e-15 relative; 1e-6 matches the frozen calibration anchors
REL_TOL = 1e-6
ABS_TOL = 1e-12

# semigroup-decay is left out: at CLI defaults it reports status = fail
# for 5 of seeds 1-12 (c_fit_max reads exactly 1.0), and a workload must
# not fail at the commit that defines it
LEMMAS = (
    "bernstein",
    "paraproduct",
    "bilinear-diagonal",
    "advection-commutator",
    "riesz-commutator",
    "commutators",
    "velocity-multiplier",
    "duhamel-smoothing",
)
# verifiers whose default trial count makes a pass too long to repeat
# ten times in one run; their per-trial work is unchanged
FEW_TRIALS = {"paraproduct", "bilinear-diagonal", "advection-commutator",
              "riesz-commutator", "commutators", "velocity-multiplier"}
UNIQUENESS_CASES = ("endpoint", "alpha1", "mid", "super")
TWO_PI = 2.0 * math.pi

# n = 512 solve horizon: 12 steps of the default dt 0.0025 keep 13 fields
# of 512 x 512 complex128 (4 MiB each), 54.5 MB of mild.saved_field_bytes
GRID512_T = 0.03


@dataclass(frozen=True)
class Experiment:
    key: str            # reference file stem
    argv: tuple         # CLI arguments; the runner adds --out
    slug: str           # stem of the files the CLI writes
    config: str = ""    # text of a --config file, if any


def experiment_seed(seed: int) -> int:
    return 1 + seed % SEED_SLOTS


def experiments(workload: str, seed: int, tiny: bool = False) -> list[Experiment]:
    """The experiments of one pass.  tiny shrinks every size for the self-test."""
    k = experiment_seed(seed)
    threads = ("--threads", str(THREADS[workload]))
    random_data = "data = random\n"
    if workload == "march":
        solve = ("solve", "--seed", str(k)) + threads
        solve += ("--n", "32", "--T", "0.01") if tiny else ()
        out = [Experiment(f"march.solve.seed{k}", solve, "solve", random_data)]
        for case in UNIQUENESS_CASES:
            argv = ("uniqueness", case, "--T", "0.04") + threads
            argv += ("--n", "32") if tiny else ()
            out.append(Experiment(f"march.uniqueness-{case}", argv, f"uniqueness-{case}"))
        return out
    if workload == "verify":
        out = []
        for lemma in LEMMAS:
            argv = ("verify-lemma", lemma) + threads
            key = f"verify.{lemma}"
            # duhamel-smoothing is deterministic and needs its default n = 256
            if lemma != "duhamel-smoothing":
                argv += ("--seed", str(k))
                key += f".seed{k}"
                if tiny:
                    argv += ("--trials", "2", "--n", "64")
            if lemma in FEW_TRIALS and not tiny:
                argv += ("--trials", "8")
            out.append(Experiment(key, argv, lemma))
        return out
    if workload == "grid512":
        # continuity keeps n = 512 when tiny: coarser grids fail its criterion
        n = "64" if tiny else "512"
        solve = ("solve", "--n", n, "--T", str(GRID512_T), "--seed", str(k)) + threads
        return [
            Experiment("grid512.continuity", ("continuity", "--n", "512") + threads, "continuity"),
            Experiment(f"grid512.solve.seed{k}", solve, "solve", random_data),
        ]
    if workload == "quadrature":
        a1 = ("counterexample", "a1") + (("--trials", "4") if tiny else ())
        a3 = ("counterexample", "a3") + (("--trials", "5") if tiny else ())
        return [
            Experiment("quadrature.counterexample-a1", a1, "counterexample-a1"),
            Experiment("quadrature.counterexample-a3", a3, "counterexample-a3"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


_UNIQUENESS_DTS = tuple((a, dt) for a in (2.0, 1.0, 1.25, 0.75) for dt in (0.00125, 0.0025, 0.005))
# workload -> (n, box, ((alpha, dt), ...)) of the grids, dyadic banks and
# ETD tableaux that set-up builds cold; BENCHMARK.json says why each exists
WORKLOADS = {
    "march": ((128, TWO_PI, ((1.5, 0.0025),) + _UNIQUENESS_DTS),),
    "verify": ((128, 0.5 * math.pi, ()), (128, TWO_PI, ()), (256, TWO_PI, ())),
    "grid512": ((512, TWO_PI, ((1.5, 0.0025),)),),
    "quadrature": (),
}
# --threads of each workload's experiments (counterexample ignores it)
THREADS = {"march": 1, "verify": 2, "grid512": 1, "quadrature": 1}


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------


def _close(got: str, ref: str) -> bool:
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return got == ref
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _csv_close(got: str, ref: str) -> str | None:
    g = list(csv.reader(io.StringIO(got)))
    r = list(csv.reader(io.StringIO(ref)))
    if len(g) != len(r) or not g or g[0] != r[0]:
        return "csv header or row count differs"
    for i, (grow, rrow) in enumerate(zip(g[1:], r[1:]), start=1):
        if len(grow) != len(rrow) or not all(map(_close, grow, rrow)):
            return f"csv row {i} outside tolerance"
    return None


def _summary_close(got: str, ref: str) -> str | None:
    g, r = got.splitlines(), ref.splitlines()
    if len(g) != len(r):
        return "summary line count differs"
    for gl, rl in zip(g, r):
        gk, _, gv = gl.partition(" = ")
        rk, _, rv = rl.partition(" = ")
        if gk != rk or not _close(gv, rv):
            return f"summary {rk} outside tolerance"
    return None


def check_outputs(outputs: tuple[bytes, bytes], key: str) -> tuple[str | None, bool]:
    """(problem or None, byte-identical to the reference) for one experiment."""
    csv_ref = (REFERENCE_DIR / f"{key}.csv").read_bytes()
    txt_ref = (REFERENCE_DIR / f"{key}-summary.txt").read_bytes()
    if outputs == (csv_ref, txt_ref):
        return None, True
    if b"status = pass" not in outputs[1]:
        return "status is not pass", False
    problem = _csv_close(outputs[0].decode(), csv_ref.decode()) or _summary_close(
        outputs[1].decode(), txt_ref.decode()
    )
    return problem, False


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    key: str
    seconds: float
    problem: str | None
    outputs: tuple[bytes, bytes] | None


class Runner:
    """Runs experiments through ``sqglab.cli.main`` in this process.

    main is looked up on the module at every call, so a traced wrapper
    installed after construction is the one called.
    """

    def __init__(self, workdir: Path, cli, tracer=None):
        self.workdir = workdir
        self.cli = cli
        self.tracer = tracer
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, exp: Experiment) -> Outcome:
        out_dir = self.workdir / "out"
        argv = list(exp.argv) + ["--out", str(out_dir)]
        if exp.config:
            cfg = self.workdir / f"{exp.key}.cfg"
            cfg.write_text(exp.config, encoding="utf-8")
            argv += ["--config", str(cfg)]
        for suffix in (".csv", "-summary.txt"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_dir / f"{exp.slug}{suffix}")
        if self.tracer is not None:
            self.tracer.experiment = exp.key
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:  # an escaped exception is a failed experiment
            return Outcome(exp.key, time.perf_counter() - t0,
                           "exception: " + traceback.format_exc(limit=3), None)
        seconds = time.perf_counter() - t0
        if code != 0:
            return Outcome(exp.key, seconds, f"exit {code}: {sink.getvalue()[-300:]}", None)
        try:
            outputs = ((out_dir / f"{exp.slug}.csv").read_bytes(),
                       (out_dir / f"{exp.slug}-summary.txt").read_bytes())
        except OSError as exc:
            return Outcome(exp.key, seconds, f"missing output: {exc}", None)
        return Outcome(exp.key, seconds, None, outputs)

    def run_pass(self, exps) -> list[Outcome]:
        return [self.run(e) for e in exps]

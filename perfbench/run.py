"""sqglab benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload march --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line carries the end-to-end
metrics (wall_s, setup_s, peak_rss_mb, success_rate).  With ``--trace 1``
half the time runs untraced and half with every layer wrapped, and the last
line carries the per-layer metrics, per traced pass, and the tracing
overhead; the spans are written to ``.perfbench_work/`` at exit.
"""

import os

# only --threads sets parallelism: numpy's OpenBLAS would otherwise start
# one thread per core for np.dot in the quadrature workload
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7


class Tally:
    """Counts attempted and failed experiments over a set of passes.

    An experiment fails on an escaped exception, a nonzero exit, a status
    other than pass, a value outside tolerance of its reference, or output
    bytes that differ from its first run in this process.
    """

    def __init__(self, first: dict):
        self.first = first
        self.attempted = 0
        self.failed = 0
        self.bitwise = 0
        self.output_bytes = 0
        self.problems = []

    def add(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            problem = o.problem
            if problem is None:
                problem, identical = workloads.check_outputs(o.outputs, o.key)
                self.bitwise += identical
                self.output_bytes += sum(map(len, o.outputs))
                if self.first.setdefault(o.key, o.outputs) != o.outputs:
                    problem = problem or "output bytes differ from the first run"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{o.key}: {problem}")


def run_passes(runner, exps, seconds: float, tally: Tally, per_experiment: dict) -> list:
    """Warm passes until seconds have elapsed (at least one); pass wall times."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        outcomes = runner.run_pass(exps)
        walls.append(sum(o.seconds for o in outcomes))
        for o in outcomes:
            per_experiment.setdefault(o.key, []).append(o.seconds)
        tally.add(outcomes)
    return walls


def tail(samples) -> str:
    """Mean, median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    text = f"mean {statistics.fmean(ordered):.4f} median {statistics.median(ordered):.4f} n {len(ordered)}"
    for pct in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
            return text + f" p{pct} {q:.4f}"
    return text + f" max {ordered[-1]:.4f} (fewer than 20 samples: no tail percentile)"


def probe_setup(workload: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def provenance(args, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqglab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "experiment_seed": workloads.experiment_seed(args.seed),
        "threads": workloads.THREADS[args.workload],
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqglab" / "__init__.py").is_file():
        sys.stderr.write(f"no sqglab source under {SRC}; run from a source checkout\n")
        return 2
    setup = [probe_setup(args.workload) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    import numpy
    import sqglab
    import sqglab.cli

    if Path(sqglab.__file__).resolve().parent != SRC / "sqglab":
        sys.stderr.write(f"imported sqglab from {sqglab.__file__}, not from {SRC}\n")
        return 2

    exps = workloads.experiments(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    runner = workloads.Runner(workdir, sqglab.cli)
    first = {}
    tally = Tally(first)
    per_experiment = {}
    try:
        cold = runner.run_pass(exps)
        tally.add(cold)
        cold_s = sum(o.seconds for o in cold)
        if args.trace:
            walls = run_passes(runner, exps, args.seconds / 2, tally, per_experiment)
            tracer = Tracer()
            runner.tracer = tracer
            layers.install(tracer)
            traced_tally = Tally(first)
            try:
                traced = run_passes(runner, exps, args.seconds / 2, traced_tally, {})
            finally:
                tracer.uninstall()
                runner.tracer = None
        else:
            walls = run_passes(runner, exps, args.seconds, tally, per_experiment)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args, numpy.__version__)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"cold pass {cold_s:.4f} s; setup_s samples " + ", ".join(f"{s:.4f}" for s in setup))
    print(f"wall_s {tail(walls)} (untraced warm passes of {len(exps)} experiments)")
    for key, times in per_experiment.items():
        print(f"  {key} median {statistics.median(times):.4f} s")
    if args.trace:
        print(f"traced wall_s {tail(traced)}")
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.problems += traced_tally.problems
    for problem in tally.problems[:20]:
        print("FAILED " + problem.replace("\n", " | "))
    print(f"error_rate {tally.failed}/{tally.attempted}")

    if args.trace:
        passes = len(traced)
        untraced_s, traced_s = statistics.fmean(walls), statistics.fmean(traced)
        values = layers.metrics(tracer, passes)
        values.update({
            "cli.output_bytes": traced_tally.output_bytes / passes,
            "cli.bitwise_equal_outputs": traced_tally.bitwise / passes,
            "cli.experiments": len(exps),
            "trace.passes": passes,
            "trace.untraced_wall_s": untraced_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        })
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl", prov)
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values = {
            # a batch workload's figure is its throughput: the mean pass
            # time over the window.  The machine's speed switches between
            # states lasting seconds, which makes the median jump between
            # modes; the mean moves only with the share of time in each.
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - tally.failed / tally.attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

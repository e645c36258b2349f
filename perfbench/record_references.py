"""Write the reference CSV and summary of every workload experiment, for
every seed slot, into ``reference/``.

    python3 perfbench/record_references.py

References are recorded once, at the commit that defines the benchmark;
later runs compare against them within ``workloads.REL_TOL``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import sqglab.cli

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = run.WORK / "record"
    runner = workloads.Runner(workdir, sqglab.cli)
    written = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in range(workloads.SEED_SLOTS):
                for outcome in runner.run_pass(workloads.experiments(name, seed)):
                    if outcome.problem is not None:
                        sys.stderr.write(f"{outcome.key}: {outcome.problem}\n")
                        return 1
                    if written.setdefault(outcome.key, outcome.outputs) != outcome.outputs:
                        sys.stderr.write(f"{outcome.key}: output differs between runs\n")
                        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, (csv_bytes, summary_bytes) in sorted(written.items()):
        (workloads.REFERENCE_DIR / f"{key}.csv").write_bytes(csv_bytes)
        (workloads.REFERENCE_DIR / f"{key}-summary.txt").write_bytes(summary_bytes)
        print(f"wrote {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

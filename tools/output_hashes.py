"""SHA-256 of every output of every benchmark experiment, one line each.

    python tools/output_hashes.py [checkout]

Runs each distinct experiment of the four ``perfbench`` workloads over
its ``SEED_SLOTS`` seed slots (44 in all) through ``sqglab.cli.main`` in
this process, with one BLAS thread, importing ``sqglab`` from
``<checkout>/src`` and the experiment list from
``<checkout>/perfbench/workloads.py``, which it only reads.  The checkout
defaults to the one that holds this script.  Each line is the experiment
key and the SHA-256 of its CSV, its summary, its stdout with the output
directory masked and its stderr, then its exit code.  Two checkouts made
the same bytes when their outputs diff empty:

    python tools/output_hashes.py ../parent > parent.txt
    python tools/output_hashes.py > change.txt
    diff parent.txt change.txt
"""

import os

# as in perfbench/run.py: only --threads sets parallelism
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    # no bytecode is written into the checkout, perfbench/ included
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from sqglab import cli

    # a seed-free experiment recurs in every seed slot; it runs once
    exps = {
        exp.key: exp
        for workload in workloads.THREADS
        for seed in range(workloads.SEED_SLOTS)
        for exp in workloads.experiments(workload, seed)
    }
    with tempfile.TemporaryDirectory() as tmp:
        for exp in exps.values():
            out_dir = Path(tmp) / exp.key
            args = list(exp.argv) + ["--out", str(out_dir)]
            if exp.config:
                cfg = Path(tmp) / f"{exp.key}.cfg"
                cfg.write_text(exp.config, encoding="utf-8")
                args += ["--config", str(cfg)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(args)
            files = [out_dir / f"{exp.slug}{s}" for s in (".csv", "-summary.txt")]
            parts = [p.read_bytes() if p.exists() else b"" for p in files]
            parts.append(stdout.getvalue().replace(str(out_dir), "<out>").encode())
            parts.append(stderr.getvalue().encode())
            print(exp.key, *map(_sha, parts), code, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

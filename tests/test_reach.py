"""Every public function and method of sqglab is run by some command, or is
named in UNREACHED with the reason it stays.  A fresh process, so that no
cache hides a call, runs every command and id once at small sizes on one
thread, under a profiler that records each public function whose code starts.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

UNREACHED = {
    "mild.solve": "keeps every step: the reference of march and of criteria 6, 8 and 10",
    "mild.duhamel_series": "Duhamel integral of a stored series, the ladder's reference image",
    "mild.duhamel_step": "imported by perfbench/setup_probe.py, which the benchmark runs",
    "mild.picard_solve": "the fixed point acceptance criterion 10 compares the march with",
    "mild.divergence_form_check": "backs acceptance criterion 4, the divergence-form identity",
    "uniqueness.contraction_factor": "ratio of stored series, the reference of the ladder's fold",
    "uniqueness.difference_norm": "norm of a stored series, the one test of its Riesz sup part",
    "littlewood.besov_time_norm": "the reference of the ladder's time aggregation",
    "littlewood.series_block_norms": "block norms of a stored series under both mixed norms",
    "littlewood.chemin_lerner_norm": "the time-first side of the Minkowski comparison",
    "spectral.fractional_laplacian": "Lambda^alpha of criterion 1, spectral exactness",
    "spectral.dealias": "2/3 truncation of a field, the reference of dealiased_coef and bands",
}

RANDOMIZED = ("bernstein", "semigroup-decay", "paraproduct", "bilinear-diagonal",
              "advection-commutator", "riesz-commutator", "commutators", "velocity-multiplier")
# every command and id once; solve reads its sizes from a config file
RUNS = [
    ["solve", "--config", "{config}"],
    *(["verify-lemma", lemma, "--seed", "1", "--trials", "2"] for lemma in RANDOMIZED),
    ["verify-lemma", "duhamel-smoothing"],
    ["counterexample", "a1"],
    ["counterexample", "a3"],
    *(["uniqueness", case, "--n", "32", "--T", "0.04"] for case in ("endpoint", "alpha1", "mid", "super")),
    ["continuity"],
]


def public_code() -> dict:
    """{code object: "module.name" or "module.Class.name"} of every public
    function and method sqglab defines, caches unwrapped."""
    out = {}
    for short in ("cli", "counterexamples", "lab", "littlewood", "mild", "spectral", "uniqueness"):
        mod = importlib.import_module(f"sqglab.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, fn in members:
                fn = inspect.unwrap(getattr(fn, "fget", None) or getattr(fn, "__func__", fn))
                if inspect.isfunction(fn) and not (attr or "").startswith("_"):
                    out[fn.__code__] = f"{short}.{name}" + (f".{attr}" if attr else "")
    return out


def test_unreached_functions_are_the_named_ones(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    public, reached, exits = json.loads((tmp_path / "reach.json").read_text(encoding="utf-8"))
    # an exit of 1 is a parameter error, which skips the run's path
    assert all(code in (0, 2) for code in exits), exits
    # a stale entry fails as well as a new unreached name
    assert set(public) - set(reached) == set(UNREACHED)


if __name__ == "__main__":
    from sqglab.cli import main

    out = sys.argv[1]
    code, reached = public_code(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in code:
            reached.add(code[frame.f_code])

    Path(out, "run.cfg").write_text("n = 32\nT = 0.01\n", encoding="utf-8")
    sys.setprofile(profile)
    exits = [
        main([a.format(config=Path(out, "run.cfg")) for a in argv] + ["--threads", "1", "--out", out])
        for argv in RUNS
    ]
    sys.setprofile(None)
    found = [sorted(code.values()), sorted(reached), exits]
    Path(out, "reach.json").write_text(json.dumps(found), encoding="utf-8")

"""Self-test of the benchmark on tiny sizes of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import sqglab.cli  # noqa: E402
import sqglab.mild  # noqa: E402
import sqglab.uniqueness  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# wrapped functions each workload must reach
EXPECTED = {
    "march": (
        "cli.main", "cli._emit", "mild.solve", "mild.duhamel_series",
        "mild.linear_solution_series", "uniqueness.contraction_ladder",
        "uniqueness.twin_run", "uniqueness.temporal_order", "uniqueness.difference_norm",
        "littlewood.series_block_norms", "littlewood.block_norms", "spectral.lp_norm",
        "spectral.SymbolOp._build", "numpy.fft.fft2", "numpy.fft.ifft2",
    ),
    "verify": tuple(
        f"lab.verify_{v}" for v in (
            "bernstein", "paraproduct", "bilinear", "commutator_advection",
            "commutator_riesz", "commutators", "multiplier_bound", "duhamel_bound",
        )
    ) + ("lab.random_besov_field", "lab.bilinear_diagonal_sum", "littlewood.build_bank"),
    "grid512": (
        "uniqueness.continuity_criterion_test", "mild.solve", "littlewood.block_norms",
        "numpy.fft.fft2",
    ),
    "quadrature": ("counterexamples.pairing_quadrature", "counterexamples.prop_a3_product_norm"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """workload -> (untraced outcomes, traced outcomes, tracer)."""
    out = {}
    for name in workloads.WORKLOADS:
        exps = workloads.experiments(name, seed=0, tiny=True)
        runner = workloads.Runner(tmp_path_factory.mktemp(name), sqglab.cli)
        plain = runner.run_pass(exps)
        tracer = Tracer()
        runner.tracer = tracer
        layers.install(tracer)
        try:
            traced = runner.run_pass(exps)
        finally:
            tracer.uninstall()
        out[name] = (plain, traced, tracer)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_byte_identical(runs, name):
    plain, traced, _ = runs[name]
    for a, b in zip(plain, traced, strict=True):
        assert a.problem is None and b.problem is None, (a.problem, b.problem)
        assert a.outputs == b.outputs, a.key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_wrappers_record_calls(runs, name):
    seen = {s[2] for s in runs[name][2].spans}
    missing = [n for n in EXPECTED[name] if n not in seen]
    assert not missing


def test_every_metric_reads_a_reached_function(runs):
    seen = set()
    for _, _, tracer in runs.values():
        seen |= {s[2] for s in tracer.spans}
    for spec in list(layers.TIMED.values()) + list(layers.CALLS.values()):
        assert any(layers._matches(spec, n) for n in seen), spec


def test_bypasses_read_zero(runs):
    assert layers.metrics(runs["quadrature"][2], 1)["spectral.fft_count"] == 0
    assert not [s for s in runs["march"][2].spans if s[2].startswith("counterexamples.")]
    assert layers.metrics(runs["verify"][2], 1)["mild.solve_calls"] == 0


def test_counts_follow_the_call_arguments(runs):
    m = layers.metrics(runs["grid512"][2], 1)
    steps = round(workloads.GRID512_T / 0.0025)
    assert m["mild.solve_calls"] == 1
    assert m["mild.etd2_steps"] == steps
    assert m["mild.advection_evals"] == 2 * steps
    assert m["mild.saved_field_bytes"] == (steps + 1) * 64 * 64 * 16
    v = layers.metrics(runs["verify"][2], 1)
    assert v["lab.verify_calls"] == len(workloads.LEMMAS)
    assert 0.0 < v["lab.useful_ratio"] <= 1.0
    assert 0.0 < v["lab.parallel_efficiency"]


def test_wrappers_patch_copied_bindings_and_restore():
    original, original_fft2 = sqglab.mild.solve, np.fft.fft2
    tracer = Tracer()
    layers.install(tracer)
    try:
        wrapped = sqglab.mild.solve
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert sqglab.uniqueness.solve is wrapped and sqglab.cli.solve is wrapped
        assert np.fft.fft2.__wrapped__ is original_fft2
    finally:
        tracer.uninstall()
    assert sqglab.mild.solve is original and sqglab.uniqueness.solve is original
    assert np.fft.fft2 is original_fft2


def test_fft_flops_and_bytes_are_computed_from_shapes():
    tracer = Tracer()
    layers.install(tracer)
    try:
        np.fft.fft2(np.zeros((3, 8, 8), dtype=np.complex128))
        np.fft.rfft2(np.zeros((8, 8)))
    finally:
        tracer.uninstall()
    c = tracer.counters
    assert c["spectral.fft_count"] == 4
    assert math.isclose(c["spectral.fft_gflop_computed"], (3 * 5.0 + 2.5) * 64 * 6 / 1e9)
    assert c["spectral.fft_bytes_computed"] == 2 * 3 * 64 * 16 + 64 * 8 + 8 * 5 * 16


def test_outermost_seconds_does_not_count_nested_spans_twice():
    tracer = Tracer()
    inner = tracer.wrap("lab.verify_inner", lambda: None)
    outer = tracer.wrap("lab.verify_outer", lambda: inner())
    outer()
    span = next(s for s in tracer.spans if s[2] == "lab.verify_outer")
    seconds = tracer.outermost_seconds(["lab.verify_inner", "lab.verify_outer"])
    assert len(tracer.spans) == 2 and seconds == span[4] - span[3]


def test_reference_check_tolerates_rounding_not_errors():
    key = "quadrature.counterexample-a3"
    csv_ref = (workloads.REFERENCE_DIR / f"{key}.csv").read_bytes()
    txt_ref = (workloads.REFERENCE_DIR / f"{key}-summary.txt").read_bytes()
    assert workloads.check_outputs((csv_ref, txt_ref), key) == (None, True)
    lines = txt_ref.decode().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("oracle_ratio_spread"))
    value = float(lines[k].split(" = ")[1])
    for factor, ok in ((1 + 1e-9, True), (1 + 1e-4, False)):
        edited = lines.copy()
        edited[k] = f"oracle_ratio_spread = {value * factor:.15e}\n"
        problem, identical = workloads.check_outputs((csv_ref, "".join(edited).encode()), key)
        assert not identical and (problem is None) == ok


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb", "success_rate"]


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "quadrature", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Which sqglab and numpy.fft functions the traced run wraps, and the
per-layer metrics read from the resulting spans and counters.

Every public function of the seven sqglab modules is wrapped, plus two
private hooks the metrics need: ``spectral.SymbolOp._build`` (one symbol
build) and ``cli._emit`` (CSV and summary writing).  A name that a later
version of the package no longer has is skipped, and its metrics read 0.

Flops and bytes of transforms are computed from array shapes, not
measured: 5 N log2 N flops per complex transform of N points (2.5 N log2 N
for a real-data one), after Frigo & Johnson, Proc. IEEE 93 (2005), and the
bytes of one read of the input plus one write of the output.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys

import numpy as np

MODULES = ("spectral", "littlewood", "mild", "lab", "counterexamples", "uniqueness", "cli")
PRIVATE = {"cli": ("_emit",)}
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# metric -> wrapped names; a trailing * matches a prefix.  Seconds are
# summed over the outermost matching spans, so nesting is not counted twice.
TIMED = {
    "spectral.fft_s": "numpy.fft.*",
    "spectral.symbol_build_s": "spectral.SymbolOp._build",
    "spectral.lp_norm_s": "spectral.lp_norm",
    "littlewood.block_norms_s": "littlewood.block_norms",
    "littlewood.series_block_norms_s": "littlewood.series_block_norms",
    "littlewood.build_bank_s": "littlewood.build_bank",
    "mild.solve_s": "mild.solve",
    "mild.duhamel_series_s": "mild.duhamel_series",
    "lab.verify_s": "lab.verify_*",
    "lab.bilinear_diagonal_sum_s": "lab.bilinear_diagonal_sum",
    "lab.random_besov_field_s": "lab.random_besov_field",
    "counterexamples.pairing_quadrature_s": "counterexamples.pairing_quadrature",
    "counterexamples.prop_a3_product_norm_s": "counterexamples.prop_a3_product_norm",
    "uniqueness.contraction_ladder_s": "uniqueness.contraction_ladder",
    "uniqueness.twin_run_s": "uniqueness.twin_run",
    "uniqueness.temporal_order_s": "uniqueness.temporal_order",
    "uniqueness.continuity_criterion_test_s": "uniqueness.continuity_criterion_test",
    "cli.main_s": "cli.main",
    "cli.emit_s": "cli._emit",
}
# metric -> wrapped names; every call counts
CALLS = {
    "spectral.symbol_builds": "spectral.SymbolOp._build",
    "spectral.lp_norm_calls": "spectral.lp_norm",
    "littlewood.block_norms_calls": "littlewood.block_norms",
    "mild.solve_calls": "mild.solve",
    "mild.duhamel_series_calls": "mild.duhamel_series",
    "counterexamples.pairing_quadrature_calls": "counterexamples.pairing_quadrature",
    "uniqueness.difference_norm_calls": "uniqueness.difference_norm",
}
# counters the hooks below add to
COUNTED = (
    "spectral.fft_count",
    "spectral.fft_gflop_computed",
    "spectral.fft_bytes_computed",
    "mild.etd2_steps",
    "mild.advection_evals",
    "mild.saved_field_bytes",
    "lab.verify_calls",
    "lab.trials",
    "lab.skipped",
)


# every per-layer metric the traced run reports: name -> (unit, better)
PER_LAYER = {
    "spectral.fft_count": ("count", "lower"),
    "spectral.fft_s": ("s", "lower"),
    "spectral.fft_gflop_computed": ("GFlop", "lower"),
    "spectral.fft_bytes_computed": ("B", "lower"),
    "spectral.symbol_builds": ("count", "lower"),
    "spectral.symbol_build_s": ("s", "lower"),
    "spectral.lp_norm_calls": ("count", "lower"),
    "spectral.lp_norm_s": ("s", "lower"),
    "spectral.self_s": ("s", "lower"),
    "littlewood.block_norms_calls": ("count", "lower"),
    "littlewood.block_norms_s": ("s", "lower"),
    "littlewood.series_block_norms_s": ("s", "lower"),
    "littlewood.build_bank_s": ("s", "lower"),
    "littlewood.self_s": ("s", "lower"),
    "mild.solve_calls": ("count", "lower"),
    "mild.solve_s": ("s", "lower"),
    "mild.duhamel_series_calls": ("count", "lower"),
    "mild.duhamel_series_s": ("s", "lower"),
    "mild.etd2_steps": ("count", "lower"),
    "mild.advection_evals": ("count", "lower"),
    "mild.saved_field_bytes": ("B", "lower"),
    "mild.self_s": ("s", "lower"),
    "lab.verify_calls": ("count", "lower"),
    "lab.verify_s": ("s", "lower"),
    "lab.bilinear_diagonal_sum_s": ("s", "lower"),
    "lab.random_besov_field_s": ("s", "lower"),
    "lab.trials": ("count", "higher"),
    "lab.skipped": ("count", "lower"),
    "lab.useful_ratio": ("ratio", "higher"),
    "lab.parallel_efficiency": ("ratio", "higher"),
    "lab.self_s": ("s", "lower"),
    "counterexamples.pairing_quadrature_calls": ("count", "lower"),
    "counterexamples.pairing_quadrature_s": ("s", "lower"),
    "counterexamples.prop_a3_product_norm_s": ("s", "lower"),
    "counterexamples.self_s": ("s", "lower"),
    "uniqueness.contraction_ladder_s": ("s", "lower"),
    "uniqueness.twin_run_s": ("s", "lower"),
    "uniqueness.temporal_order_s": ("s", "lower"),
    "uniqueness.difference_norm_calls": ("count", "lower"),
    "uniqueness.continuity_criterion_test_s": ("s", "lower"),
    "uniqueness.self_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "cli.bitwise_equal_outputs": ("count", "higher"),
    "cli.experiments": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.passes": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _matches(spec: str, name: str) -> bool:
    return name.startswith(spec[:-1]) if spec.endswith("*") else name == spec


def _series_bytes(series) -> int:
    return sum(f.coef.nbytes for f in series.fields)


def _after_solve(tracer, span, ancestors, call, result):
    params = call["params"]
    steps = params.n_steps()
    tracer.count("mild.etd2_steps", steps)
    if params.nonlinear:
        tracer.count("mild.advection_evals", 2 * steps)
    tracer.count("mild.saved_field_bytes", _series_bytes(result.series))


def _after_duhamel_step(tracer, span, ancestors, call, result):
    tracer.count("mild.etd2_steps", 1)
    if call["params"].nonlinear:
        tracer.count("mild.advection_evals", 2)


def _after_duhamel_series(tracer, span, ancestors, call, result):
    tracer.count("mild.advection_evals", call["params"].n_steps() + 1)
    tracer.count("mild.saved_field_bytes", _series_bytes(result))


def _after_linear_series(tracer, span, ancestors, call, result):
    tracer.count("mild.saved_field_bytes", _series_bytes(result))


def _after_verify(tracer, span, ancestors, call, result):
    if any(a.startswith("lab.verify_") for a in ancestors):
        return
    wall = span[4] - span[3]
    tracer.count("lab.verify_calls")
    tracer.count("lab.trials", result.trials)
    tracer.count("lab.skipped", result.skipped)
    tracer.count("lab.verify_cpu_s", tracer.cpu[span[0]])
    tracer.count("lab.verify_thread_s", wall * call.get("threads", 1))


HOOKS = {
    "mild.solve": _after_solve,
    "mild.duhamel_step": _after_duhamel_step,
    "mild.duhamel_series": _after_duhamel_series,
    "mild.linear_solution_series": _after_linear_series,
}


def _after_fft(tracer, span, ancestors, args, kwargs, result):
    name = span[2].rsplit(".", 1)[1]
    data = np.asarray(args[0] if args else kwargs["a"])
    logical = data if name.startswith("rfft") else result
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        axes = (-2, -1) if name.endswith("2") else range(logical.ndim)
    points = math.prod(logical.shape[ax] for ax in axes)
    batch = logical.size // points if points else 0
    per_point = 2.5 if name.startswith(("rfft", "irfft")) else 5.0
    flops = batch * per_point * points * math.log2(points) if points > 1 else 0.0
    tracer.count("spectral.fft_count", batch)
    tracer.count("spectral.fft_gflop_computed", flops / 1e9)
    tracer.count("spectral.fft_bytes_computed", data.nbytes + result.nbytes)


def _bound_hook(hook, fn):
    sig = inspect.signature(fn)

    def after(tracer, span, ancestors, args, kwargs, result):
        hook(tracer, span, ancestors, sig.bind(*args, **kwargs).arguments, result)

    return after


def install(tracer) -> None:
    """Wrap every traced function in every namespace that bound it."""
    namespaces = [m for k, m in sys.modules.items() if k == "sqglab" or k.startswith("sqglab.")]
    for mod_name in MODULES:
        mod = importlib.import_module(f"sqglab.{mod_name}")
        attrs = [
            a for a, v in vars(mod).items()
            if not a.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
        ]
        attrs += [a for a in PRIVATE.get(mod_name, ()) if inspect.isfunction(getattr(mod, a, None))]
        for attr in attrs:
            fn = getattr(mod, attr)
            name = f"{mod_name}.{attr}"
            hook = _after_verify if attr.startswith("verify_") else HOOKS.get(name)
            after = _bound_hook(hook, fn) if hook else None
            cpu = hook is _after_verify or name == "cli.main"
            tracer.patch(fn, tracer.wrap(name, fn, after, cpu), namespaces)
    symbol_op = getattr(sys.modules["sqglab.spectral"], "SymbolOp", None)
    if symbol_op is not None and "_build" in vars(symbol_op):
        tracer.patch_static(
            symbol_op, "_build", tracer.wrap("spectral.SymbolOp._build", symbol_op._build)
        )
    for attr in FFT_NAMES:
        fn = getattr(np.fft, attr)
        tracer.patch(fn, tracer.wrap(f"numpy.fft.{attr}", fn, _after_fft), [np.fft, *namespaces])


def metrics(tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass (ratios are not divided)."""
    names = {s[2] for s in tracer.spans}
    out = {}
    for metric, spec in TIMED.items():
        out[metric] = tracer.outermost_seconds(n for n in names if _matches(spec, n)) / passes
    for metric, spec in CALLS.items():
        out[metric] = sum(1 for s in tracer.spans if _matches(spec, s[2])) / passes
    for metric in COUNTED:
        out[metric] = tracer.counters[metric] / passes
    c = tracer.counters
    out["lab.useful_ratio"] = (c["lab.trials"] - c["lab.skipped"]) / c["lab.trials"] if c["lab.trials"] else 0.0
    out["lab.parallel_efficiency"] = (
        c["lab.verify_cpu_s"] / c["lab.verify_thread_s"] if c["lab.verify_thread_s"] else 0.0
    )
    out["cli.cpu_s"] = sum(
        tracer.cpu[s[0]] for s in tracer.spans if s[2] == "cli.main"
    ) / passes
    self_s = tracer.self_seconds(lambda n: n.split(".", 1)[0])
    for mod_name in MODULES:
        out[f"{mod_name}.self_s"] = self_s.get(mod_name, 0.0) / passes
    out["trace.spans"] = len(tracer.spans) / passes
    return out

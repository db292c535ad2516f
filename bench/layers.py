"""Which package functions the traced run wraps, and the per-layer metrics.

Each layer is one module of the package. The counts are taken at the same
boundaries as the spans, from the wrapped functions' results and
exceptions. The child process sends `raw_layer_data`; the parent merges
the children's data and turns it into metrics with `per_layer_metrics`.
"""

from __future__ import annotations

import math

PACKAGE = "mixedgraph"
MODULES = ("interpolators", "denoisers", "graphcore", "jointsolver", "pipeline", "cli")


def solve_flops(n, method, iterations):
    """Floating-point operations of one joint solve on an n x n system.

    cg: one dense matvec (2n^2) plus about 10n vector work per iteration.
    direct: LU (2n^3/3) plus triangular solves and the residual check (4n^2).
    closed-form: about 20m^3/3 for m = n/2 (two solves, a product, an inverse).
    """
    if method == "cg":
        return iterations * (2 * n * n + 10 * n)
    if method == "direct":
        return (2 * n**3) // 3 + 4 * n * n
    m = n // 2
    return (20 * m**3) // 3


def _solve_method(args, kwargs):
    return kwargs.get("method", args[4] if len(args) > 4 else "cg")


def _tile_built(tracer, job, args, kwargs):
    tracer.count("tiles_built")


def _padded(tracer, op, args, kwargs):
    tracer.observe("dummy_rows", len(op.dummy_rows))


def _pad_failed(tracer, exc, args, kwargs):
    from mixedgraph.errors import PatchGeometryError

    if isinstance(exc, PatchGeometryError):
        tracer.count("tiles_skipped")


def _balance_failed(tracer, exc, args, kwargs):
    from mixedgraph.errors import BalanceError

    if isinstance(exc, BalanceError):
        tracer.count("balance_failures")


def _certified(tracer, op, args, kwargs):
    if not op.certified:
        tracer.count("certify_failures")


def _solved(tracer, sol, args, kwargs):
    tracer.observe("iterations", sol.iterations)
    tracer.observe("residual", sol.residual)
    n = len(sol.full_signal)
    tracer.count("flops", solve_flops(n, _solve_method(args, kwargs), sol.iterations))


def _solve_failed(tracer, exc, args, kwargs):
    from mixedgraph.errors import SolverError

    if isinstance(exc, SolverError):
        tracer.count("solver_failures")
        n = len(args[0]) + args[1].new_count
        tracer.count("flops", solve_flops(n, _solve_method(args, kwargs), exc.iterations or 0))


# (module, function, on_return, on_raise)
TRACED = (
    ("interpolators", "tile_image", None, None),
    ("interpolators", "build_patch_operator", _tile_built, None),
    ("interpolators", "bilinear_rows", None, None),
    ("interpolators", "pad_full_rank", _padded, _pad_failed),
    ("denoisers", "build_denoiser", None, None),
    ("denoisers", "sinkhorn_balance", None, _balance_failed),
    ("graphcore", "certify_denoiser", _certified, None),
    ("graphcore", "denoiser_to_laplacian", None, None),
    ("jointsolver", "joint_nonseparable", _solved, _solve_failed),
    ("pipeline", "run_experiment", None, None),
    ("pipeline", "process_image", None, None),
    ("pipeline", "run_patch", None, None),
    ("pipeline", "build_patch_denoiser", None, None),
    ("pipeline", "build_reference", None, None),
    ("pipeline", "add_gaussian_noise", None, None),
    ("pipeline", "psnr", None, None),
    ("pipeline", "load_image", None, None),
    ("pipeline", "save_image", None, None),
    ("cli", "main", None, None),
)


def install(tracer):
    import importlib

    for module, func, on_return, on_raise in TRACED:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        tracer.install(PACKAGE, mod, func, on_return, on_raise)


def raw_layer_data(tracer, reps, traced_s):
    """JSON-ready totals of one traced child, mergeable across children."""
    calls, self_s, incl_s = {}, {}, {}
    run_patch_ms = []
    for name, dur, own in tracer.span_times():
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + dur
        if name == "pipeline.run_patch":
            run_patch_ms.append(dur * 1e3)
    return {
        "reps": reps,
        "traced_s": traced_s,
        "calls": calls,
        "self_s": self_s,
        "incl_s": incl_s,
        "run_patch_ms": run_patch_ms,
        "counts": dict(tracer.counts),
        "observed": {k: list(v) for k, v in tracer.observed.items()},
    }


def merge_raw(parts):
    merged = {
        "reps": 0,
        "traced_s": 0.0,
        "calls": {},
        "self_s": {},
        "incl_s": {},
        "run_patch_ms": [],
        "counts": {},
        "observed": {},
    }
    for part in parts:
        merged["reps"] += part["reps"]
        merged["traced_s"] += part["traced_s"]
        merged["run_patch_ms"] += part["run_patch_ms"]
        for key in ("calls", "self_s", "incl_s", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, (total, n, peak) in part["observed"].items():
            acc = merged["observed"].setdefault(name, [0.0, 0, float("-inf")])
            acc[0] += total
            acc[1] += n
            acc[2] = max(acc[2], peak)
    return merged


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(values, candidates=(99, 90, 75, 50)):
    """Highest candidate percentile with at least ten samples beyond it.

    Returns (pct, value), or (0, 0.0) when there are too few samples.
    """
    n = len(values)
    for pct in candidates:
        if n * (100 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 0, 0.0


def per_layer_metrics(raw, overhead_frac):
    """Per-layer metric name -> (value, unit) from merged raw data.

    Times named `*_ms` are mean self time per call; `*_s` metrics are
    either mean self time per call (`tile_image_s`, `cli.*`) or seconds per
    workload run (`orchestrate_self_s`, `score_s`). Counts are per workload
    run unless named `*_mean` or `*_per_tile`.
    """
    reps = max(raw["reps"], 1)
    calls, self_s, incl_s = raw["calls"], raw["self_s"], raw["incl_s"]
    counts, observed = raw["counts"], raw["observed"]

    def mean_self(name, scale):
        n = calls.get(name, 0)
        return self_s.get(name, 0.0) / n * scale if n else 0.0

    def per_run(name):
        return counts.get(name, 0) / reps

    def obs_mean(name):
        total, n, _ = observed.get(name, (0.0, 0, 0.0))
        return total / n if n else 0.0

    def module_frac(module):
        own = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        return own / raw["traced_s"] if raw["traced_s"] > 0 else 0.0

    samples = raw["run_patch_ms"]
    tail_pct, tail_ms = tail_percentile(samples)
    residual = observed.get("residual")
    m = {
        "interpolators.tile_image_s": (mean_self("interpolators.tile_image", 1.0), "s"),
        "interpolators.build_patch_operator_ms": (
            mean_self("interpolators.build_patch_operator", 1e3),
            "ms",
        ),
        "interpolators.bilinear_rows_ms": (mean_self("interpolators.bilinear_rows", 1e3), "ms"),
        "interpolators.pad_full_rank_ms": (mean_self("interpolators.pad_full_rank", 1e3), "ms"),
        "interpolators.tiles_built": (per_run("tiles_built"), "count"),
        "interpolators.tiles_skipped": (per_run("tiles_skipped"), "count"),
        "interpolators.dummy_rows_per_tile": (obs_mean("dummy_rows"), "count"),
        "denoisers.build_denoiser_ms": (mean_self("denoisers.build_denoiser", 1e3), "ms"),
        "denoisers.sinkhorn_balance_ms": (mean_self("denoisers.sinkhorn_balance", 1e3), "ms"),
        "denoisers.balance_failures": (per_run("balance_failures"), "count"),
        "graphcore.certify_denoiser_ms": (mean_self("graphcore.certify_denoiser", 1e3), "ms"),
        "graphcore.denoiser_to_laplacian_ms": (
            mean_self("graphcore.denoiser_to_laplacian", 1e3),
            "ms",
        ),
        "graphcore.certify_failures": (per_run("certify_failures"), "count"),
        "jointsolver.joint_nonseparable_ms": (
            mean_self("jointsolver.joint_nonseparable", 1e3),
            "ms",
        ),
        "jointsolver.iterations_mean": (obs_mean("iterations"), "count"),
        "jointsolver.residual_max": (residual[2] if residual else 0.0, "ratio"),
        "jointsolver.flop_computed": (per_run("flops"), "flop"),
        "jointsolver.solver_failures": (per_run("solver_failures"), "count"),
        "pipeline.run_patch_ms_p50": (percentile(samples, 50) if samples else 0.0, "ms"),
        "pipeline.run_patch_ms_tail": (tail_ms, "ms"),
        "pipeline.run_patch_tail_pct": (float(tail_pct), "%"),
        "pipeline.run_patch_samples": (float(len(samples)), "count"),
        "pipeline.run_patch_self_ms": (mean_self("pipeline.run_patch", 1e3), "ms"),
        "pipeline.orchestrate_self_s": (
            (self_s.get("pipeline.run_experiment", 0.0) + self_s.get("pipeline.process_image", 0.0))
            / reps,
            "s",
        ),
        "pipeline.score_s": (
            (incl_s.get("pipeline.build_reference", 0.0) + incl_s.get("pipeline.psnr", 0.0)) / reps,
            "s",
        ),
        "cli.load_image_s": (mean_self("pipeline.load_image", 1.0), "s"),
        "cli.save_image_s": (mean_self("pipeline.save_image", 1.0), "s"),
        "cli.main_self_s": (mean_self("cli.main", 1.0), "s"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
    for module in MODULES:
        m[f"{module}.self_frac"] = (module_frac(module), "fraction")
    return m

"""Benchmark of the mixedgraph restoration pipeline.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` directory. Each workload runs in fresh child
processes (bench/worker.py), one after another, which together time the
workload for about `--seconds` seconds. Every output is checked (see
bench/README.md); a run whose output fails the check counts as failed and
its time is dropped.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1`, half the children are traced and
it holds the per-layer metrics instead. Earlier lines give the environment,
the timing quartiles and notes. A full record, and the spans of traced
children, go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

# Why each workload is here, and which layers it stresses.
WORKLOADS = {
    # Acceptance criterion 8's headline configuration. Each operator is
    # reused for 10 tile solves (5 variances x 2 modes), so the time goes
    # to denoisers, graphcore and jointsolver. One BLAS thread: with the
    # library default its run_s spread 12-14% across seeds on two cores,
    # against 5% pinned; restore-rot-joint keeps the default.
    "sweep-rot-bilateral": {"size": 64, "pin_blas": True},
    # The user's CLI path with CLI defaults (CG). Each operator is used
    # once, so the time goes to interpolators; moving work into
    # per-operator set-up shows up here as a loss.
    "restore-rot-joint": {"size": 64, "pin_blas": False},
    # The fork pool and NLM, the only workload where tiles fail. Two
    # workers with one BLAS thread each: with the library default, two
    # workers times two BLAS threads oversubscribe two cores.
    "sweep-warp-nlm-pool": {"size": 128, "pin_blas": True},
}
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
UNTRACED_CHILDREN = 3
TRACED_PATTERN = (True, False, True, False)
# All children of one workload must end within this, so that a hung child
# still leaves the command inside its 180 s limit.
WORKLOAD_TIMEOUT_S = 170
TINY_SIZE = 48
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s",
    "tile_solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tile_ok_frac": "fraction",
    "psnr_db": "dB",
    "joint_gain_ratio": "x",
}


def child_env(pin_blas):
    env = dict(os.environ)
    for key in BLAS_ENV:
        env.pop(key, None)
        if pin_blas:
            env[key] = "1"
    return env


def run_child(workload, seed, size, budget, traced, index, timeout):
    """Start one worker, wait for it, and return its parsed result."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-child{index}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", str(size),
        "--budget", f"{budget:.3f}",
        "--trace", "1" if traced else "0",
        "--workdir", str(workdir),
        "--spans", str(OUT / f"spans-{tag}.jsonl"),
    ]  # fmt: skip
    if seed == DEFAULT_SEED and size == WORKLOADS[workload]["size"]:
        cmd.append("--compare-reference")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)],
        stdout=subprocess.PIPE,
        env=child_env(WORKLOADS[workload]["pin_blas"]),
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child {index} timed out after {timeout:.0f} s"
    finally:
        # Also reached when this process is interrupted or terminated: stop
        # the child's whole session, pool workers included.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child {index} exited with code {proc.returncode}"
    return json.loads(lines[-1]), None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def bench_workload(workload, seed, seconds, trace, size):
    pattern = TRACED_PATTERN if trace else (False,) * UNTRACED_CHILDREN
    budget = seconds / len(pattern)
    children, problems = [], []
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    for index, traced in enumerate(pattern):
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            problems.append(f"child {index} not started: workload time limit reached")
            continue
        result, problem = run_child(workload, seed, size, budget, traced, index, timeout)
        if problem:
            problems.append(problem)
        else:
            result["traced"] = traced
            children.append(result)

    attempted = failed = len(problems)  # children that crashed or hung
    times = {True: [], False: []}
    throughput, ok_frac, psnr, gain = [], [], [], []
    for child in children:
        problems += child["errors"]
        for run in child["runs"]:
            attempted += 1
            outcome = run["outcome"]
            if outcome is None:
                failed += 1
                continue
            psnr.append(outcome["psnr_db"])
            gain.append(outcome["gain_db"])
            ok_frac.append(outcome["solves_completed"] / outcome["solves_attempted"])
            if run["seconds"] is None:
                continue  # warm-up
            times[child["traced"]].append(run["seconds"])
            if not child["traced"]:
                throughput.append(outcome["solves_completed"] / run["seconds"])
    untraced = times[False]
    if not untraced or (trace and not times[True]):
        return None, problems, None

    q1, q3 = quartiles(untraced)
    summary = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "run_s": {"median": statistics.median(untraced), "q1": q1, "q3": q3, "n": len(untraced)},
        "env": children[0]["env"],
        "notes": sorted({note for c in children for note in c["notes"]}),
        "problems": problems,
    }
    if trace:
        overhead = statistics.median(times[True]) / statistics.median(untraced) - 1.0
        raw = layers.merge_raw([c["layers"] for c in children if c["traced"]])
        metrics = layers.per_layer_metrics(raw, overhead)
    else:
        values = {
            "run_s": statistics.median(untraced),
            "tile_solves_per_s": statistics.median(throughput),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "tile_ok_frac": statistics.median(ok_frac),
            "psnr_db": statistics.median(psnr),
            "joint_gain_ratio": 10.0 ** (statistics.median(gain) / 10.0),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        summary["joint_gain_db"] = statistics.median(gain)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    return result, problems, summary


def report(summary):
    rs = summary["run_s"]
    print(f"[{summary['workload']}] env: {json.dumps(summary['env'])}")
    print(
        f"[{summary['workload']}] run_s median {rs['median']:.4f} s, "
        f"quartiles {rs['q1']:.4f}..{rs['q3']:.4f} s, n={rs['n']} untraced runs"
    )
    if "joint_gain_db" in summary:
        print(f"[{summary['workload']}] joint_gain_db {summary['joint_gain_db']:.6f} dB")
    for note in summary["notes"]:
        print(f"[{summary['workload']}] {note}")
    for problem in summary["problems"]:
        print(f"[{summary['workload']}] FAILED: {problem}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed; {DEFAULT_SEED} also compares outputs with bench/ref, "
        f"{HELD_OUT_SEED} is held out to confirm claims",
    )
    p.add_argument("--seconds", type=float, default=20.0, help="timed seconds per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help=f"{TINY_SIZE} px images, for smoke tests")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_child's cleanup runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mixedgraph" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mixedgraph'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        size = TINY_SIZE if args.tiny else WORKLOADS[name]["size"]
        result, problems, summary = bench_workload(name, args.seed, args.seconds, args.trace, size)
        if result is None:
            for problem in problems:
                print(f"[{name}] FAILED: {problem}", file=sys.stderr)
            print(f"error: no successful timed run of {name}", file=sys.stderr)
            return 1
        report(summary)
        if len(names) == 1:
            combined = result
            break
        print(f"[{name}] {json.dumps(result)}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

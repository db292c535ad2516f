"""One benchmark child: set up a workload in a fresh process, time it, check it.

run.py starts this script once per child; it is not meant to be run by
hand. The child
  1. imports the package and generates the inputs from the seed (set-up,
     timed from the moment the parent spawned it);
  2. runs the workload once untimed, so lazy set-up and BLAS thread start-up
     are not counted;
  3. runs it again and again, timing each run, until `--budget` seconds
     have passed (at least once);
  4. checks every output and prints one JSON line with the timings, the
     check outcomes, the environment and, when traced, the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import ndimage  # noqa: E402

from mixedgraph import cli, denoisers, interpolators, jointsolver, pipeline  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

REF_DIR = Path(__file__).resolve().parent / "ref"
PATCH = 10  # ExperimentConfig's and the CLI's default patch size
PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
RESTORE_VARIANCE = 0.02
# Acceptance criterion 8's floor: joint may trail sequential by at most this.
GAIN_FLOOR_DB = -0.1
# Reference tolerances (default seed, standard size). PSNR must match the
# committed CSV to 1e-5 dB: the CSV prints six decimals, and rounding or CG
# stopping changes far below the 1e-8 solver tolerance may flip the last
# one, while a change in which tiles succeed moves PSNR by far more. A restored pixel may move by one gray level at most, and
# on at most 0.5% of pixels, for values rounding across a quantization step.
PSNR_TOL_DB = 1e-5
PIXEL_TOL = 1
PIXEL_DIFF_FRAC = 0.005
CSV_HEADER = "image,transform,denoiser,mode,variance,psnr_db,patches_failed"


class CheckFailed(Exception):
    pass


def tile_grid(shape, transform):
    """In-bounds mask of output pixels and the grid tiles that hold any.

    A pixel is in bounds when it back-projects into the source image, the
    same rule the bilinear interpolator applies.
    """
    h, w = shape
    rr, cc = np.mgrid[0:h, 0:w]
    coords = np.column_stack([rr.ravel(), cc.ravel()]).astype(float)
    src = transform.back_project(coords, shape)
    inside = (
        (src[:, 0] >= 0.0) & (src[:, 0] <= h - 1) & (src[:, 1] >= 0.0) & (src[:, 1] <= w - 1)
    )
    inside = inside.reshape(h, w)
    tiles = [
        (r0, c0)
        for r0 in range(0, h, PATCH)
        for c0 in range(0, w, PATCH)
        if inside[r0 : r0 + PATCH, c0 : c0 + PATCH].any()
    ]
    return src.reshape(h, w, 2), inside, tiles


class Sweep:
    """`run_experiment` over several noise variances, both modes."""

    def __init__(self, name, seed, size, workdir):
        if name == "sweep-rot-bilateral":
            self.texture = "texture-a"
            self.config = pipeline.ExperimentConfig(
                transform=interpolators.Rotation(20.0),
                denoiser_kind="bilateral",
                noise_variances=(0.02, 0.04, 0.06, 0.08, 0.10),
                seed=seed,
                method="direct",
                mode="both",
                workers=1,
            )
        else:
            self.texture = "texture-b"
            self.config = pipeline.ExperimentConfig(
                transform=interpolators.Homography(PAPER_H),
                denoiser_kind="nlm",
                kernel_params=denoisers.KernelParams(nlm_h2=0.05),
                weights=jointsolver.SolverWeights(mu=0.3, gamma=0.6, kappa=0.2),
                noise_variances=(0.08, 0.125),
                seed=seed,
                mode="both",
                workers=2,
            )
        self.image = pipeline.synthetic_texture(self.texture, size)
        self.workers = self.config.workers

    def run(self):
        _, csv_text = pipeline.run_experiment(self.config, self.image, image_name=self.texture)
        return csv_text

    def prepare_check(self):
        shape = self.image.pixels.shape
        _, _, tiles = tile_grid(shape, self.config.transform)
        built = len(interpolators.tile_image(shape, self.config.transform, PATCH))
        self.tiles = len(tiles)
        self.skipped = self.tiles - built

    def check(self, csv_text, reference):
        lines = csv_text.strip().split("\n")
        if lines[0] != CSV_HEADER:
            raise CheckFailed(f"unexpected CSV header {lines[0]!r}")
        rows = split_rows(lines[1:])
        modes = ("joint", "sequential")
        variances = self.config.noise_variances
        if [(r[1], float(r[2])) for r in rows] != [(m, v) for v in variances for m in modes]:
            raise CheckFailed("CSV rows do not cover every variance in both modes")
        psnr = {(r[1], float(r[2])): float(r[3]) for r in rows}
        if not all(math.isfinite(p) for p in psnr.values()):
            raise CheckFailed("non-finite PSNR in CSV")
        gains = [psnr["joint", v] - psnr["sequential", v] for v in variances]
        if min(gains) < GAIN_FLOOR_DB:
            raise CheckFailed(f"joint trails sequential by {-min(gains):.3f} dB")
        if reference is not None:
            compare_csv(rows, reference)
        failed = sum(self.skipped + int(rows[2 * i][4]) for i in range(len(variances)))
        attempted = self.tiles * len(variances)
        return {
            "psnr_db": float(np.mean([psnr["joint", v] for v in variances])),
            "gain_db": float(np.mean(gains)),
            "solves_attempted": attempted * len(modes),
            "solves_completed": (attempted - failed) * len(modes),
        }


def split_rows(lines):
    """Split CSV rows as (image,transform,denoiser), mode, variance, psnr, failed.

    The transform label of a homography holds unquoted commas, so rows are
    split from the right.
    """
    return [line.rsplit(",", 4) for line in lines]


def compare_csv(rows, reference_text):
    ref_rows = split_rows(reference_text.strip().split("\n")[1:])
    if len(ref_rows) != len(rows):
        raise CheckFailed("CSV row count differs from the reference")
    for got, want in zip(rows, ref_rows):
        if got[:3] + got[4:] != want[:3] + want[4:]:
            raise CheckFailed(f"CSV row {got} differs from reference {want}")
        if abs(float(got[3]) - float(want[3])) > PSNR_TOL_DB:
            raise CheckFailed(
                f"PSNR {got[3]} differs from reference {want[3]} by more than {PSNR_TOL_DB} dB"
            )


def read_pgm(data):
    """Parse the 8-bit binary PGM layout `save_pgm` writes."""
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if header is None:
        raise CheckFailed("output is not an 8-bit binary PGM")
    w, h = int(header[1]), int(header[2])
    raster = data[header.end() :]
    if len(raster) != w * h:
        raise CheckFailed("output PGM raster is truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def psnr_db(reference, test, mask):
    diff = reference[mask] - np.clip(test[mask], 0.0, 1.0)
    return float(10.0 * np.log10(1.0 / np.mean(diff * diff)))


class Restore:
    """The CLI's `joint` command on a noisy rotated image, CLI defaults."""

    workers = 1

    def __init__(self, name, seed, size, workdir):
        self.workdir = Path(workdir)
        self.clean = pipeline.synthetic_texture("texture-a", size)
        noisy = pipeline.add_gaussian_noise(self.clean, RESTORE_VARIANCE, seed)
        self.noisy_path = self.workdir / "noisy.pgm"
        pipeline.save_pgm(noisy, self.noisy_path)

    def _cli(self, command, out):
        argv = [
            command,
            "--image", str(self.noisy_path),
            "--transform", "rotation",
            "--angle", "20",
            "--denoiser", "bilateral",
            "--out-image", str(out),
        ]  # fmt: skip
        if cli.main(argv) != 0:
            raise CheckFailed(f"mixedgraph {command} exited nonzero")
        return Path(out).read_bytes()

    def run(self):
        return self._cli("joint", self.workdir / "joint.pgm")

    def prepare_check(self):
        clean = self.clean.pixels
        src, self.inside, tiles = tile_grid(clean.shape, interpolators.Rotation(20.0))
        self.tiles = tiles
        self.reference = np.zeros(clean.shape)
        self.reference[self.inside] = ndimage.map_coordinates(
            clean, [src[..., 0][self.inside], src[..., 1][self.inside]], order=1
        )
        seq = read_pgm(self._cli("sequential", self.workdir / "sequential.pgm")) / 255.0
        self.seq_psnr = psnr_db(self.reference, seq, self.inside)

    def check(self, pgm_bytes, reference):
        pixels = read_pgm(pgm_bytes)
        if pixels.shape != self.clean.pixels.shape:
            raise CheckFailed(f"output shape {pixels.shape} differs from the input")
        value = psnr_db(self.reference, pixels / 255.0, self.inside)
        gain = value - self.seq_psnr
        if not (math.isfinite(value) and math.isfinite(self.seq_psnr)):
            raise CheckFailed("non-finite PSNR")
        if gain < GAIN_FLOOR_DB:
            raise CheckFailed(f"joint trails sequential by {-gain:.3f} dB")
        if reference is not None:
            want = read_pgm(reference)
            delta = np.abs(pixels.astype(int) - want.astype(int))
            if delta.max() > PIXEL_TOL or np.mean(delta > 0) > PIXEL_DIFF_FRAC:
                raise CheckFailed(
                    f"restored image differs from the reference (max {delta.max()} levels, "
                    f"{np.mean(delta > 0):.2%} of pixels)"
                )
        # A tile whose solve failed, or that tiling skipped, is left black.
        failed = sum(
            1
            for r0, c0 in self.tiles
            if not pixels[r0 : r0 + PATCH, c0 : c0 + PATCH][
                self.inside[r0 : r0 + PATCH, c0 : c0 + PATCH]
            ].any()
        )
        return {
            "psnr_db": value,
            "gain_db": gain,
            "solves_attempted": len(self.tiles),
            "solves_completed": len(self.tiles) - failed,
        }


WORKLOADS = {
    "sweep-rot-bilateral": Sweep,
    "restore-rot-joint": Restore,
    "sweep-warp-nlm-pool": Sweep,
}
REF_FILES = {
    "sweep-rot-bilateral": "sweep-rot-bilateral.csv",
    "restore-rot-joint": "restore-rot-joint.pgm",
    "sweep-warp-nlm-pool": "sweep-warp-nlm-pool.csv",
}


def load_reference(name):
    path = REF_DIR / REF_FILES[name]
    return path.read_bytes() if path.suffix == ".pgm" else path.read_text()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workers):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="where a traced child writes its spans")
    p.add_argument("--compare-reference", action="store_true", help="compare outputs with bench/ref")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workload, args.seed, args.size, args.workdir)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

    errors = []
    outputs = []  # (seconds or None for the warm-up, output or None on error)

    def attempt(timed):
        if tracer is not None:
            tracer.trace_id = len(outputs)
            tracer.active = timed
        start = time.perf_counter()
        try:
            out = workload.run()
        except Exception:
            out = None
            errors.append(traceback.format_exc(limit=3))
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        outputs.append((seconds if timed else None, out))

    attempt(timed=False)
    first = time.monotonic()
    while len(outputs) < 2 or time.monotonic() - first < args.budget:
        attempt(timed=True)
    rss_mb = peak_rss_mb()

    reference = load_reference(args.workload) if args.compare_reference else None
    workload.prepare_check()
    runs = []
    for seconds, out in outputs:
        outcome = None
        if out is not None:
            try:
                outcome = workload.check(out, reference)
            except CheckFailed as exc:
                errors.append(str(exc))
        runs.append({"seconds": seconds, "outcome": outcome})

    layer_data = None
    if tracer is not None:
        traced_s = sum(s for s, _ in outputs if s is not None)
        layer_data = layers.raw_layer_data(tracer, len(outputs) - 1, traced_s)
        if args.spans:
            tracer.write_spans(args.spans)

    notes = []
    if tracer is not None and workload.workers > 1:
        notes.append(
            "trace: parent-side spans only; run_patch and everything it calls run in "
            "forked pool workers, whose spans cannot be collected, so their layer "
            "metrics read 0"
        )
    notes.append(
        "reference: compared with " + REF_FILES[args.workload]
        if args.compare_reference
        else "reference: not compared (only the default seed at the standard size has one)"
    )
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": rss_mb,
                "runs": runs,
                "errors": errors[:5],
                "env": environment(workload.workers),
                "notes": notes,
                "layers": layer_data,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

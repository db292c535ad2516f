"""Command-line interface for the denoising/interpolation pipeline."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import denoisers, graphcore, interpolators, jointsolver, pipeline
from .errors import BalanceError, DegenerateTransformError, ImageIOError
from .errors import PatchGeometryError, PreconditionError, TileMemoryError, TilesFailedError
from .errors import WorkerError
from .pipeline import TEXTURE_SIZE


def _parsers():
    """The top-level parser and each subcommand's, which takes only the flags it reads."""
    source, warp, image_out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    # a value flag that is not given stays out of the namespace, so that
    # its field keeps the default that its dataclass states
    kernel, mu, weights, tiling, sweep = (
        argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
        for _ in range(5)
    )
    source.add_argument("--config", help="key=value config file; flags override it")
    source.add_argument("--image", help="input image path (.pgm or .png)")
    source.add_argument(
        "--texture",
        choices=["texture-a", "texture-b"],
        help="use a shipped synthetic texture instead of --image",
    )
    source.add_argument("--texture-size", type=int, help=f"texture side (default {TEXTURE_SIZE})")
    warp.add_argument(
        "--transform", default="identity", choices=["identity", "rotation", "homography"]
    )
    warp.add_argument("--angle", type=float, help="rotation angle in degrees")
    warp.add_argument("--homography", help='3x3 matrix as "a,b,c;d,e,f;g,h,i"')
    kernel.add_argument("--denoiser", dest="denoiser_kind", choices=denoisers.KINDS)
    kernel.add_argument("--spatial-var", type=float)
    kernel.add_argument("--range-var", type=float)
    kernel.add_argument("--nlm-patch", dest="nlm_patch_size", type=int)
    kernel.add_argument("--nlm-window", dest="nlm_search_window", type=int)
    kernel.add_argument("--nlm-h2", type=float)
    mu.add_argument("--mu", type=float)
    weights.add_argument("--gamma", type=float)
    weights.add_argument("--kappa", type=float)
    tiling.add_argument("--patch-size", type=int)
    tiling.add_argument("--workers", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument(
        "--method", choices=jointsolver.METHODS, help="checked, but every value runs the same solve"
    )
    sweep.add_argument("--variances", help="comma-separated noise variances")
    sweep.add_argument("--mode", choices=pipeline.MODES)
    image_out.add_argument("--out-image", dest="out", help="output image path")

    parser = argparse.ArgumentParser(
        prog="mixedgraph",
        description="Joint image denoising/interpolation via mixed-graph MAP filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *groups, build=_build_config):
        # unabbreviated, so that a flag, or a config key, has one spelling
        p = sub.add_parser(name, parents=list(groups), allow_abbrev=False)
        p.set_defaults(build=build, run=run)
        return p

    # what an image command takes no flag for, it fixes
    for name, groups, fixed in (
        ("denoise", [source, kernel], dict(transform="identity", mode="sequential")),
        ("interpolate", [source, warp], dict(denoiser_kind="identity", mode="sequential")),
        ("sequential", [source, warp, kernel], dict(mode="sequential")),
        ("joint", [source, warp, kernel, mu, weights], dict(mode="joint")),
    ):
        command(name, _run_mode, *groups, tiling, image_out).set_defaults(**fixed)

    p = command("experiment", _cmd_experiment, source, warp, kernel, mu, weights, tiling, sweep)
    p.add_argument("--out-csv", dest="out", help="CSV output path (default: stdout)")

    p = command("inspect-graph", _cmd_inspect_graph, source, kernel, mu, build=_priors)
    p.add_argument("--origin", type=_origin, default="0,0", help="patch origin as row,col")
    p.add_argument("--size", type=int, default=10, help="square patch side")
    p.add_argument("--weight-tol", type=float, default=1e-12)
    p.add_argument("--out", help="edge list output path (default: stdout)")
    return parser, sub.choices


def _origin(text):
    row, col = text.split(",")
    return int(row), int(col)


def _config_flags(path):
    """Flags of a key=value config file, one ``--key=value`` token each: "-1" is a value."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    pairs = [line.partition("=") for line in lines if line and not line.startswith("#")]
    return [f"--{key.strip().replace('_', '-')}={value.strip()}" for key, _, value in pairs]


def _make(cls, values):
    """Dataclass ``cls`` of the fields ``values`` holds; the others keep their defaults."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def _priors(args):
    """Denoiser kind, KernelParams and SolverWeights of the flags; bad values raise ValueError."""
    values = vars(args)
    tol = values.get("weight_tol", 0.0)
    if not math.isfinite(tol):
        raise ValueError(f"weight tolerance must be finite, got {tol}")
    if tol < 0:  # it would keep pairs that have no edge
        raise ValueError(f"weight tolerance must be non-negative, got {tol}")
    kind = values.get("denoiser_kind", pipeline.ExperimentConfig.denoiser_kind)
    return kind, _make(denoisers.KernelParams, values), _make(jointsolver.SolverWeights, values)


def _build_config(args):
    """The ExperimentConfig of a command's flags; a bad value raises ValueError."""
    values = dict(vars(args))
    values["transform"] = interpolators.parse_transform(
        args.transform, angle=values.get("angle"), h=values.get("homography")
    )
    _, values["kernel_params"], values["weights"] = _priors(args)
    if "variances" in values:
        values["noise_variances"] = tuple(float(v) for v in args.variances.split(","))
    return _make(pipeline.ExperimentConfig, values)


def _load_input(args):
    if bool(args.image) == bool(args.texture):
        raise ValueError("exactly one of --image and --texture is required")
    if args.image:
        if args.texture_size is not None:
            raise ValueError("--texture-size applies only to --texture")
        return pipeline.load_image(args.image), args.image
    size = TEXTURE_SIZE if args.texture_size is None else args.texture_size
    return pipeline.synthetic_texture(args.texture, size), args.texture


def _cannot(verb, path, exc):
    """Report on one stderr line that ``path`` cannot be read or written; exit status 1."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"cannot {verb} {path}: {reason}", file=sys.stderr)
    return 1


def _failed(name, exc):
    """Report on one stderr line that the run on image ``name`` failed; exit status 1."""
    # numpy's MemoryError names the allocation that failed; the interpreter's has no text
    print(f"{name}: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 1


def _say(text):
    """Write ``text`` to stdout; the exit status.

    stdout is flushed here, so that a stdout that cannot be written (a
    full device, a closed pipe) is reported like an output path, on one
    stderr line, exit status 1, and not when the interpreter exits.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        return _cannot("write", "stdout", exc)
    return 0


def _discard_stdout():
    """Point stdout's file descriptor at the null device.

    A failed flush leaves its bytes in stdout's buffer, and the
    interpreter flushes that buffer again at exit: on the same full
    device it would print a second error and exit with status 120.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # no file descriptor, so no flush at exit can fail
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _write_text(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given; the exit status."""
    if not path:
        return _say(text)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _cannot("write", path, exc)
    return _say(f"wrote {path}\n")


def _tiles_failed(errors, count, where=""):
    """Report failed tiles, if any, with the first's error on one stderr line; the exit status."""
    if errors:
        print(f"{len(errors)} of {count} tiles failed{where}; first: {errors[0]}", file=sys.stderr)
    return 1 if errors else 0


def _run_mode(args, config, image, name):
    out = pipeline.process_image(config, image)
    if args.out:
        try:
            pipeline.save_image(out, args.out)
        except (OSError, ImageIOError) as exc:
            return _cannot("write", args.out, exc)
        status = _say(f"wrote {args.out}\n")
    else:
        status = _say("no --out-image given; nothing written\n")
    # the image is still written, but a run with holes in it is an error
    return status or _tiles_failed(out.tile_errors, out.tile_count)


def _cmd_experiment(args, config, image, name):
    # every mode's curve holds the same failed tiles
    (curve, *_), csv_text = pipeline.run_experiment(config, image, image_name=name)
    if status := _write_text(csv_text, args.out):
        return status
    # the CSV is still written, but a PSNR scored on fewer tiles is an error
    for (var, _), errors in zip(curve.points, curve.tile_errors):
        status |= _tiles_failed(errors, curve.tile_count, f" at variance {var:g}")
    return status


def _cmd_inspect_graph(args, priors, image, name):
    kind, params, weights = priors
    (r0, c0), n = args.origin, args.size
    tile = image.pixels[r0 : r0 + n, c0 : c0 + n]
    if n < 1 or min(r0, c0) < 0 or tile.shape != (n, n):
        raise SystemExit("patch is empty or extends past the image boundary")
    rr, cc = np.mgrid[r0 : r0 + n, c0 : c0 + n]
    coords = np.column_stack([rr.ravel(), cc.ravel()])
    kernel = denoisers.build_denoiser(kind, coords, np.clip(tile.ravel(), 0.0, 1.0), params)
    try:
        psi = denoisers.sinkhorn_balance(kernel, kind=kind)
        graph = graphcore.denoiser_to_laplacian(psi, weights.mu)
    except (BalanceError, PreconditionError) as exc:
        print(f"patch at {(r0, c0)}: {exc}", file=sys.stderr)
        return 1
    return _write_text(graphcore.export_edges(graph, weight_tol=args.weight_tol), args.out)


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word names the subcommand; its own parser reads, and rejects, the rest
    command_parser = commands[parser.parse_args(argv[:1]).command]
    args = command_parser.parse_args(argv[1:])
    if args.config:
        try:
            config_flags = _config_flags(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            return _cannot("read", args.config, exc)
        # the file's flags go first, so the command line's override them
        args = command_parser.parse_args(config_flags + argv[1:])
    try:
        setup = args.build(args)
        image, name = _load_input(args)
    except (ValueError, DegenerateTransformError) as exc:
        command_parser.error(str(exc))
    except (OSError, ImageIOError) as exc:
        return _cannot("read", args.image, exc)
    except MemoryError as exc:
        return _failed(args.image or args.texture, exc)
    if isinstance(setup, pipeline.ExperimentConfig):
        try:
            interpolators.require_tileable(image.pixels.shape)
            # an image command's config has one variance: one noisy image
            shape = (len(setup.noise_variances),) + image.pixels.shape
            pipeline.require_memory(setup, shape)
        except (PatchGeometryError, TileMemoryError) as exc:
            return _failed(name, exc)
    try:
        if args.out:  # before any tile is solved
            if args.run is _run_mode:
                pipeline.png_module(args.out)  # a PNG needs Pillow
            existed = os.path.lexists(args.out)
            open(args.out, "a").close()
            if not existed:  # a run that fails before it writes leaves no file behind
                os.remove(args.out)
    except (OSError, ImageIOError) as exc:
        return _cannot("write", args.out, exc)
    try:
        return args.run(args, setup, image, name)
    except (
        PatchGeometryError, TilesFailedError, WorkerError, DegenerateTransformError, MemoryError
    ) as exc:
        return _failed(name, exc)


if __name__ == "__main__":
    sys.exit(main())

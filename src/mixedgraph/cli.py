"""Command-line interface for the denoising/interpolation pipeline."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import denoisers, graphcore, interpolators, jointsolver, pipeline
from .errors import BalanceError, DegenerateTransformError, ImageIOError, PreconditionError


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--image", help="input image path (.pgm or .png)")
    parser.add_argument(
        "--texture",
        choices=["texture-a", "texture-b"],
        help="use a shipped synthetic texture instead of --image",
    )
    parser.add_argument("--texture-size", type=int, default=512)
    parser.add_argument(
        "--transform", default="identity", choices=["identity", "rotation", "homography"]
    )
    parser.add_argument("--angle", type=float, help="rotation angle in degrees")
    parser.add_argument("--homography", help='3x3 matrix as "a,b,c;d,e,f;g,h,i"')
    parser.add_argument(
        "--denoiser",
        default="bilateral",
        choices=["gaussian", "bilateral", "nlm", "identity"],
    )
    parser.add_argument("--spatial-var", type=float, default=0.3)
    parser.add_argument("--range-var", type=float, default=0.3)
    parser.add_argument("--nlm-patch", type=int, default=3)
    parser.add_argument("--nlm-window", type=int, default=9)
    parser.add_argument("--nlm-h2", type=float, default=0.3)
    parser.add_argument("--mu", type=float, default=0.3)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--kappa", type=float, default=0.3)
    parser.add_argument("--patch-size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--method",
        default="cg",
        choices=["cg", "direct", "closed-form"],
        help="checked, but every value runs the same solve",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-image", help="output image path")


def _config_defaults(path, args, parser):
    """Parse a key=value config file with the subcommand's own parser.

    Each value goes through the option's type and choices checks; the
    result is applied as parser defaults, so command-line flags override it.
    """
    tokens, keys = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not hasattr(args, key):
                raise SystemExit(f"unknown config key {key!r}")
            flag = "--" + key.replace("_", "-")
            keys.append(key)
            # one token, so a value starting with "-" is not read as a flag
            tokens.append(f"{flag}={value}")
    parsed = parser.parse_args(tokens)
    return {key: getattr(parsed, key) for key in keys}


def _build_config(args):
    """The ExperimentConfig of a command's flags; a bad value raises ValueError."""
    command = args.command
    transform = interpolators.parse_transform(
        args.transform, angle=args.angle, h=args.homography
    )
    if command == "denoise":
        transform = interpolators.parse_transform("identity")
    params = denoisers.KernelParams(
        spatial_var=args.spatial_var,
        range_var=args.range_var,
        nlm_patch_size=args.nlm_patch,
        nlm_search_window=args.nlm_window,
        nlm_h2=args.nlm_h2,
    )
    weights = jointsolver.SolverWeights(mu=args.mu, gamma=args.gamma, kappa=args.kappa)
    variances = [float(v) for v in getattr(args, "variances", "0.02").split(",")]
    return pipeline.ExperimentConfig(
        transform=transform,
        denoiser_kind="identity" if command == "interpolate" else args.denoiser,
        kernel_params=params,
        weights=weights,
        noise_variances=tuple(variances),
        seed=args.seed,
        mode=getattr(args, "mode", "joint" if command == "joint" else "sequential"),
        patch_size=args.patch_size,
        method=args.method,
        workers=args.workers,
    )


def _load_input(args):
    if args.texture:
        return pipeline.synthetic_texture(args.texture, args.texture_size), args.texture
    if not args.image:
        raise SystemExit("either --image or --texture is required")
    return pipeline.load_image(args.image), args.image


def _write_text(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _run_mode(args, config, image):
    out = pipeline.process_image(config, image, config.mode)
    if args.out_image:
        pipeline.save_image(out, args.out_image)
        print(f"wrote {args.out_image}")
    else:
        print("no --out-image given; nothing written")
    if out.tile_errors:
        # the image is still written, but a run with holes in it is an error
        print(
            f"{len(out.tile_errors)} of {out.tile_count} tiles failed; "
            f"first: {out.tile_errors[0]}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiment(args, config, image, name):
    _, csv_text = pipeline.run_experiment(config, image, image_name=name)
    _write_text(csv_text, args.out_csv)
    return 0


def _origin(text):
    row, col = text.split(",")
    return int(row), int(col)


def _cmd_inspect_graph(args, config, image):
    (r0, c0), n = args.origin, args.size
    tile = image.pixels[r0 : r0 + n, c0 : c0 + n]
    if n < 1 or tile.shape != (n, n):
        raise SystemExit("patch is empty or extends past the image boundary")
    rr, cc = np.mgrid[r0 : r0 + n, c0 : c0 + n]
    coords = np.column_stack([rr.ravel(), cc.ravel()])
    kernel = denoisers.build_denoiser(
        args.denoiser, coords, np.clip(tile.ravel(), 0.0, 1.0), config.kernel_params
    )
    try:
        psi = denoisers.sinkhorn_balance(kernel, kind=args.denoiser)
        graph = graphcore.denoiser_to_laplacian(psi, config.weights.mu)
    except (BalanceError, PreconditionError) as exc:
        print(f"patch at {(r0, c0)}: {exc}", file=sys.stderr)
        return 1
    _write_text(graphcore.export_edges(graph, weight_tol=args.weight_tol), args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixedgraph",
        description="Joint image denoising/interpolation via mixed-graph MAP filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("denoise", "interpolate", "joint", "sequential"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("experiment")
    _add_common(p)
    p.add_argument("--variances", default="0.02", help="comma-separated noise variances")
    p.add_argument("--mode", default="both", choices=["joint", "sequential", "both"])
    p.add_argument("--out-csv", help="CSV output path (default: stdout)")

    p = sub.add_parser("inspect-graph")
    _add_common(p)
    p.add_argument("--origin", type=_origin, default="0,0", help="patch origin as row,col")
    p.add_argument("--size", type=int, default=10, help="square patch side")
    p.add_argument("--weight-tol", type=float, default=1e-12)
    p.add_argument("--out", help="edge list output path (default: stdout)")

    args = parser.parse_args(argv)
    command_parser = sub.choices[args.command]
    if args.config:
        command_parser.set_defaults(**_config_defaults(args.config, args, command_parser))
        args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        image, name = _load_input(args)
    except (ValueError, DegenerateTransformError) as exc:
        command_parser.error(str(exc))
    except (OSError, ImageIOError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        print(f"cannot read {args.image}: {reason}", file=sys.stderr)
        return 1

    if args.command == "experiment":
        return _cmd_experiment(args, config, image, name)
    if args.command == "inspect-graph":
        return _cmd_inspect_graph(args, config, image)
    return _run_mode(args, config, image)


if __name__ == "__main__":
    sys.exit(main())

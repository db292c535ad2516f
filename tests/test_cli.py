import collections
import contextlib
import errno
import io
import json
import math
import operator
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixedgraph
from mixedgraph import cli, denoisers, interpolators, pipeline
from mixedgraph.cli import main
from mixedgraph.errors import OK, BalanceError, ImageIOError
from mixedgraph.interpolators import Rotation, build_patch_operator
from mixedgraph.pipeline import (
    CSV_HEADER,
    ExperimentConfig,
    ImageBuffer,
    add_gaussian_noise,
    load_pgm,
    save_pgm,
    synthetic_texture,
)


IDENTITY = Rotation(0.0)


def run_cli(args):
    return main(args)


@pytest.fixture
def small_pgm(tmp_path):
    path = tmp_path / "in.pgm"
    save_pgm(synthetic_texture("texture-a", 30), path)
    return path


class TestExperimentCommand:
    BASE = [
        "experiment",
        "--texture",
        "texture-a",
        "--texture-size",
        "30",
        "--transform",
        "rotation",
        "--angle",
        "10",
        "--variances",
        "0.02,0.06",
        "--seed",
        "3",
        "--method",
        "direct",
    ]

    def test_csv_file_output(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(self.BASE + ["--out-csv", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert all(line.count(",") == 6 for line in lines)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(self.BASE + ["--out-csv", str(a)])
        run_cli(self.BASE + ["--out-csv", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        run_cli(self.BASE[:-2] + ["--variances", "0.02", "--mode", "joint"])
        got = capsys.readouterr().out
        assert got.startswith(CSV_HEADER)
        assert ",joint," in got and ",sequential," not in got

    # the run leaves no CSV file that it created, and a file that was
    # there keeps its bytes
    @pytest.mark.parametrize("out", [None, "new", "existing"])
    def test_every_tile_failed_is_one_line(self, out, tmp_path, capsys):
        args = ["experiment", "--texture", "texture-a", "--texture-size", "48"]
        args += ["--transform", "homography", "--homography", "1,0.1,0;0.05,1,0;0,0,1"]
        args += ["--denoiser", "nlm", "--mode", "joint"]
        path = tmp_path / "out.csv"
        if out == "existing":
            path.write_bytes(b"kept")
        assert run_cli(args + (["--out-csv", str(path)] if out else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"texture-a: all \d+ tiles failed at variance 0\.02; first: tile at \(\d+, \d+\): .+\n",
            captured.err,
        )
        if out == "existing":
            assert path.read_bytes() == b"kept"
        else:
            assert not path.exists()

    # NLM at h2 0.3 fails certification on 44 of this image's 47 tiles at
    # each variance; its CSV is pinned, since failed tiles set the exit
    # status and stderr, not the bytes
    FAILING = ["experiment", "--texture", "texture-b", "--texture-size", "64"]
    FAILING += ["--transform", "homography", "--homography", "1,0.2,0;0.1,1,0;0,0,1"]
    FAILING += ["--denoiser", "nlm", "--nlm-h2", "0.3", "--variances", "0.02,0.06"]
    FAILING_CSV = (
        CSV_HEADER + "\n"
        "texture-b,homography(1,0.2,0;0.1,1,0;0,0,1),nlm,joint,0.02,22.534088,44\n"
        "texture-b,homography(1,0.2,0;0.1,1,0;0,0,1),nlm,sequential,0.02,21.633950,44\n"
        "texture-b,homography(1,0.2,0;0.1,1,0;0,0,1),nlm,joint,0.06,19.162702,44\n"
        "texture-b,homography(1,0.2,0;0.1,1,0;0,0,1),nlm,sequential,0.06,18.285342,44\n"
    )

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_failed_tiles_exit_nonzero(self, workers, tmp_path, capsys):
        out = tmp_path / "cm.csv"
        assert run_cli(self.FAILING + ["--workers", workers, "--out-csv", str(out)]) == 1
        assert out.read_bytes() == self.FAILING_CSV.encode()
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}\n"
        first = "tile at (0, 0): nlm denoiser failed certification on patch"
        assert captured.err == (
            f"44 of 47 tiles failed at variance 0.02; first: {first}\n"
            f"44 of 47 tiles failed at variance 0.06; first: {first}\n"
        )


ROTATION = ["--transform", "rotation", "--angle", "20"]
HOMOGRAPHY = ["--transform", "homography", "--homography", "1,0.2,0;0.1,1,0;0,0,1"]
TEXTURE_A = ["--texture", "texture-a", "--texture-size", "32"]
TEXTURE_B = ["--texture", "texture-b", "--texture-size", "32"]
# (exit status, command line) of runs whose forked children, which inherit
# the one-thread BLAS setting, must write the serial run's bytes
SAME_BYTES = {
    "rotation": (0, ["experiment", *TEXTURE_A, *ROTATION, "--variances", "0.02,0.06"]),
    # at spatial variance 4 no bilateral denoiser clears the Schur bound's
    # margin, so each one is certified by the Cholesky fallback
    "cholesky-fallback": (
        0,
        ["experiment", *TEXTURE_A, *ROTATION, "--variances", "0.02,0.06", "--spatial-var", "4"],
    ),
    # each process computes the Gaussian denoisers of its own chunks
    "gaussian": (
        0,
        ["experiment", *TEXTURE_B, *HOMOGRAPHY, "--denoiser", "gaussian", "--variances", "0.02,0.06"],
    ),
    # and the NLM gather indices and in-window pair lists
    "nlm": (
        0,
        ["experiment", *TEXTURE_B, *HOMOGRAPHY, "--denoiser", "nlm", "--nlm-h2", "0.05"]
        + ["--variances", "0.08,0.125"],
    ),
    # at five variances a chunk stacks two tiles of five kernels each
    "five-variances": (
        0,
        ["experiment", *TEXTURE_A, *ROTATION, "--variances", "0.02,0.04,0.06,0.08,0.10"],
    ),
    # an image command has one noisy image, so a chunk stacks 8 tiles
    "joint-bilateral": (
        0,
        ["joint", "--texture", "texture-a", "--texture-size", "64", *ROTATION]
        + ["--denoiser", "bilateral"],
    ),
    # at h2 0.3 chunks mix certified and failed NLM filters: the run exits 1
    # for its failed tiles and still writes the same image
    "joint-nlm-fails": (
        1,
        ["joint", "--texture", "texture-b", "--texture-size", "64", *HOMOGRAPHY]
        + ["--denoiser", "nlm", "--nlm-h2", "0.3"],
    ),
    # the 10 x 2 and 2 x 10 edge tiles share a pixel count but not a
    # pattern, so they make separate chunks, and each process computes each
    # pattern's work
    "edge-patterns": (
        0,
        ["experiment", *TEXTURE_A, "--transform", "identity", "--denoiser", "gaussian"]
        + ["--variances", "0.02,0.06"],
    ),
    # each process keeps only the work of the last pattern it solved
    # (`test_patch_15_tiles_have_many_one_tile_patterns`)
    "one-tile-patterns": (
        0,
        ["experiment", "--texture", "texture-a", "--texture-size", "64", *ROTATION]
        + ["--denoiser", "gaussian", "--patch-size", "15", "--variances", "0.02,0.06"],
    ),
    # a tile keeps its taps, and each process builds the dense rows of the
    # chunks it solves; patch 30 gives tiles of several sizes
    "joint-patch-30": (
        0,
        ["joint", "--texture", "texture-b", "--texture-size", "64", *HOMOGRAPHY]
        + ["--patch-size", "30"],
    ),
}


@pytest.mark.parametrize("case", SAME_BYTES)
def test_every_worker_count_writes_the_same_bytes(case, tmp_path, monkeypatch):
    # 3 workers exceed a two-core machine's cores.  The stitched stacks are
    # compared too: an 8-bit image or a PSNR of six decimals rounds away a
    # change in their last bits
    status, argv = SAME_BYTES[case]
    flag = "--out-csv" if argv[0] == "experiment" else "--out-image"
    run_patches, stacks, written = pipeline._run_patches, [], []

    def recording(images, config):
        jobs, outputs, valid, *outcome = run_patches(images, config)
        stacks.append([stack.tobytes() for stack in outputs.values()] + [valid.tobytes()])
        return jobs, outputs, valid, *outcome

    monkeypatch.setattr(pipeline, "_run_patches", recording)
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert run_cli(argv + ["--workers", str(workers), flag, str(out)]) == status
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    assert len(stacks) == 3 and stacks[1] == stacks[0] and stacks[2] == stacks[0]


def test_patch_15_tiles_have_many_one_tile_patterns():
    # 13 of the 14 offset patterns of the rotated 64 px image's patch-15
    # tiles hold one tile, so most chunks are of a pattern other than the
    # last one their process solved
    jobs = interpolators.tile_image((64, 64), Rotation(20.0), 15)
    tiles = collections.Counter(pipeline._pattern(job.operator) for job in jobs)
    assert len(tiles) == 14 and list(tiles.values()).count(1) == 13


@pytest.mark.parametrize(
    "flags", [["--denoiser", "identity"], ["--kappa", "0"]], ids=["identity-denoiser", "kappa-0"]
)
def test_joint_limits_are_the_interpolation(flags, tmp_path):
    # the paper's limiting cases: with the identity denoiser, or at kappa 0
    # whatever the denoiser, the joint MAP output is the plain interpolation
    interpolated, joint = tmp_path / "i.pgm", tmp_path / "j.pgm"
    assert run_cli(["interpolate", *TEXTURE_A, *ROTATION, "--out-image", str(interpolated)]) == 0
    assert run_cli(["joint", *TEXTURE_A, *ROTATION, *flags, "--out-image", str(joint)]) == 0
    assert joint.read_bytes() == interpolated.read_bytes()


def test_huge_spatial_variance_ends(tmp_path):
    # the eigenvalue floor's series is not summed where
    # q = exp(-1 / (2 spatial_var)) is near 1
    args = ["joint", "--texture", "texture-a", "--texture-size", "16", "--spatial-var", "1e300"]
    assert run_cli(args + ["--out-image", str(tmp_path / "sv.pgm")]) in (0, 1)


class TestImageCommands:
    def test_denoise_writes_image(self, small_pgm, tmp_path):
        out = tmp_path / "d.pgm"
        code = run_cli(
            [
                "denoise",
                "--image",
                str(small_pgm),
                "--denoiser",
                "gaussian",
                "--out-image",
                str(out),
            ]
        )
        assert code == 0
        img = load_pgm(out)
        assert img.pixels.shape == (30, 30)

    def test_interpolate_matches_identity_denoiser_pipeline(self, small_pgm, tmp_path):
        out = tmp_path / "i.pgm"
        run_cli(
            [
                "interpolate",
                "--image",
                str(small_pgm),
                "--transform",
                "rotation",
                "--angle",
                "8",
                "--out-image",
                str(out),
            ]
        )
        src = load_pgm(small_pgm).pixels
        warped = load_pgm(out).pixels
        # interpolation with no denoising keeps intensities close to the input
        assert abs(warped[warped > 0].mean() - src.mean()) < 0.1

    def test_joint_and_sequential_differ(self, small_pgm, tmp_path):
        outs = {}
        for mode in ("joint", "sequential"):
            out = tmp_path / f"{mode}.pgm"
            assert run_cli(
                [
                    mode,
                    "--image",
                    str(small_pgm),
                    "--transform",
                    "rotation",
                    "--angle",
                    "10",
                    "--out-image",
                    str(out),
                ]
            ) == 0
            outs[mode] = load_pgm(out).pixels
        assert outs["joint"].shape == outs["sequential"].shape
        assert np.any(outs["joint"] != outs["sequential"])

    def test_failed_tiles_exit_nonzero(self, small_pgm, tmp_path, capsys):
        # NLM with the CLI defaults fails certification on most tiles
        out = tmp_path / "nlm.pgm"
        args = ["joint", "--image", str(small_pgm), "--denoiser", "nlm"]
        assert run_cli(args + ["--out-image", str(out)]) == 1
        assert load_pgm(out).pixels.shape == (30, 30)  # still written
        err = capsys.readouterr().err
        assert " of 9 tiles failed; first: tile at (" in err
        assert "failed certification" in err

    def test_clean_run_exits_zero(self, small_pgm, tmp_path, capsys):
        out = tmp_path / "bilateral.pgm"
        args = ["joint", "--image", str(small_pgm), "--transform", "rotation"]
        assert run_cli(args + ["--angle", "10", "--out-image", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_input_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["denoise"])

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            (b"P6\n2 2\n255\n" + bytes(12), "not a binary PGM (magic b'P6')"),
            (b"P5\n-5 -5\n255\n" + bytes(25), "non-positive image size -5x-5"),
            (b"P5\n2 2\n100\n" + bytes([0, 50, 200, 25]), "sample 200 above maxval 100 at byte 13"),
        ],
    )
    def test_unreadable_image_is_one_line(self, tmp_path, capsys, content, reason):
        path = tmp_path / "in.pgm"
        if content is not None:
            path.write_bytes(content)
        assert run_cli(["joint", "--image", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read {path}: {reason}\n"


class TestInspectGraph:
    def test_edge_list_format(self, tmp_path):
        out = tmp_path / "edges.txt"
        code = run_cli(
            [
                "inspect-graph",
                "--texture",
                "texture-b",
                "--texture-size",
                "30",
                "--origin",
                "5,5",
                "--size",
                "6",
                "--denoiser",
                "bilateral",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines
        for line in lines:
            i, j, w = line.split()
            assert 0 <= int(i) <= int(j) < 36
            float(w)

    @pytest.mark.parametrize(
        "error, fail",
        [
            ("failed certification: not PD", None),
            ("did not converge", BalanceError("Sinkhorn did not converge")),
        ],
    )
    def test_failed_patch_exits_nonzero(self, monkeypatch, capsys, error, fail):
        if fail is not None:

            def sinkhorn_balance(*args, **kwargs):
                raise fail

            monkeypatch.setattr(denoisers, "sinkhorn_balance", sinkhorn_balance)
        args = ["inspect-graph", "--texture", "texture-a", "--texture-size", "32"]
        assert run_cli(args + ["--denoiser", "nlm"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("patch at (0, 0): ") and error in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("origin", [(0, 0), (5, 5), (10, 20)])
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gaussian", {}),
            ("bilateral", {}),
            ("nlm", {}),
            ("nlm", {"nlm_h2": 0.05}),
            ("identity", {}),
        ],
    )
    def test_shows_the_pipeline_denoiser(self, kind, params, origin, tmp_path, monkeypatch):
        # the denoiser of a 10 x 10 tile is the pipeline's, bit for bit,
        # with the same certification verdict: both balance the kernel of
        # the tile clipped to [0, 1] with Sinkhorn's default tolerance.  A
        # noisy image, like the pipeline's inputs, has pixels outside [0, 1]
        pixels = add_gaussian_noise(synthetic_texture("texture-b", 32).pixels, 0.02, 0)
        assert pixels.min() < 0.0 and pixels.max() > 1.0
        image = ImageBuffer.from_array(pixels)
        monkeypatch.setattr(pipeline, "synthetic_texture", lambda *_: image)
        shown = []
        balance = denoisers.sinkhorn_balance

        def recording_balance(*args, **kwargs):
            shown.append(balance(*args, **kwargs))
            return shown[-1]

        monkeypatch.setattr(denoisers, "sinkhorn_balance", recording_balance)
        args = ["inspect-graph", "--texture", "texture-b", "--texture-size", "32"]
        args += ["--denoiser", kind, "--origin", "%d,%d" % origin, "--size", "10"]
        args += [f"--{key.replace('_', '-')}={value}" for key, value in params.items()]
        status = run_cli(args + ["--out", str(tmp_path / "edges.txt")])
        (psi,) = shown

        op = build_patch_operator(IDENTITY, origin, (10, 10), (32, 32)).operator
        ty = op.real_matrix @ pixels[op.source_coords[:, 0], op.source_coords[:, 1]]
        config = ExperimentConfig(IDENTITY, kind, denoisers.KernelParams(**params))
        want, code, _ = pipeline.build_patch_denoiser([op], ty[None, None], config)
        assert psi.matrix.tobytes() == want[0, 0].tobytes()
        assert psi.certified == (code[0, 0] == OK)
        assert status == (0 if psi.certified else 1)

    def test_empty_patch_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["inspect-graph", "--texture", "texture-a", "--size", "0"])

    # a negative row or column would slice from the image's far side
    @pytest.mark.parametrize("origin, size", [("28,28", "10"), ("-3,0", "2"), ("0,-5", "3")])
    def test_out_of_bounds_origin(self, origin, size):
        args = ["inspect-graph", "--texture", "texture-a", "--texture-size", "30"]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(args + [f"--origin={origin}", "--size", size])
        assert excinfo.value.code == "patch is empty or extends past the image boundary"


SOURCE = ["--config", "--image", "--texture", "--texture-size"]
WARP = ["--transform", "--angle", "--homography"]
KERNEL = [
    "--denoiser",
    "--spatial-var",
    "--range-var",
    "--nlm-patch",
    "--nlm-window",
    "--nlm-h2",
]
WEIGHTS = ["--mu", "--gamma", "--kappa"]
TILING = ["--patch-size", "--workers"]
GRAPH = ["--mu", "--origin", "--size", "--weight-tol", "--out"]
EXPERIMENT = ["--seed", "--method", "--variances", "--mode", "--out-csv"]
# the flags of each command, in --help order: 96 settable values in all
TAKES = {
    "denoise": SOURCE + KERNEL + TILING + ["--out-image"],
    "interpolate": SOURCE + WARP + TILING + ["--out-image"],
    "sequential": SOURCE + WARP + KERNEL + TILING + ["--out-image"],
    "joint": SOURCE + WARP + KERNEL + WEIGHTS + TILING + ["--out-image"],
    "experiment": SOURCE + WARP + KERNEL + WEIGHTS + TILING + EXPERIMENT,
    "inspect-graph": SOURCE + KERNEL + GRAPH,
}
# for each value flag, a value other than its field's default, and that
# field's path in the built ExperimentConfig
SETS = {
    "--denoiser": ("gaussian", "denoiser_kind", "gaussian"),
    "--spatial-var": ("0.7", "kernel_params.spatial_var", 0.7),
    "--range-var": ("0.2", "kernel_params.range_var", 0.2),
    "--nlm-patch": ("5", "kernel_params.nlm_patch_size", 5),
    "--nlm-window": ("11", "kernel_params.nlm_search_window", 11),
    "--nlm-h2": ("0.05", "kernel_params.nlm_h2", 0.05),
    "--mu": ("0.1", "weights.mu", 0.1),
    "--gamma": ("2", "weights.gamma", 2.0),
    "--kappa": ("0", "weights.kappa", 0.0),
    "--patch-size": ("12", "patch_size", 12),
    "--workers": ("2", "workers", 2),
    "--seed": ("7", "seed", 7),
    "--method": ("direct", "method", "direct"),
    "--variances": ("0.02,0.06", "noise_variances", (0.02, 0.06)),
    "--mode": ("joint", "mode", "joint"),
}
# a value each flag accepts, so that only the flag itself can be refused
VALUE = {flag: text for flag, (text, *_) in SETS.items()} | {
    "--transform": "identity",
    "--angle": "20",
    "--homography": "1,0,0;0,1,0;0,0,1",
    "--out-image": "out.pgm",
    "--out-csv": "out.csv",
    "--origin": "0,0",
    "--size": "4",
    "--weight-tol": "1e-12",
    "--out": "out.txt",
}
NOT_TAKEN = [(c, flag) for c, takes in TAKES.items() for flag in VALUE if flag not in takes]
# what an image command takes no flag for, it fixes
FIXED = {
    "denoise": dict(mode="sequential"),
    "interpolate": dict(denoiser_kind="identity", mode="sequential"),
    "sequential": dict(mode="sequential"),
    "joint": dict(mode="joint"),
}


def built(command, argv):
    """The ExperimentConfig that ``command`` builds of the flags ``argv``.

    inspect-graph's denoiser kind, KernelParams and SolverWeights are set
    in a config of the identity transform.
    """
    args = cli._parsers()[1][command].parse_args(argv)
    setup = args.build(args)
    return setup if command != "inspect-graph" else pipeline.ExperimentConfig(IDENTITY, *setup)


@pytest.mark.parametrize("command", TAKES)
def test_each_command_takes_its_flags(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli([command, "--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[(--[\w-]+)", usage) == TAKES[command]


@pytest.mark.parametrize("command", TAKES)
def test_no_value_flag_builds_the_dataclass_defaults(command):
    # a flag that is not given leaves its field the default that the
    # dataclass states, so the parser states none
    want = pipeline.ExperimentConfig(IDENTITY, **FIXED.get(command, {}))
    assert built(command, []) == want


@pytest.mark.parametrize("in_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize("flag", SETS)
def test_each_value_flag_reaches_its_field(flag, in_config, tmp_path):
    # _make sets a field only from a flag whose dest is the field's name
    text, path, want = SETS[flag]
    field = operator.attrgetter(path)
    assert field(pipeline.ExperimentConfig(IDENTITY)) != want
    argv = [flag, text]
    if in_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {text}\n")
        argv = cli._config_flags(cfg)
    takes = [command for command in TAKES if flag in TAKES[command]]
    assert takes
    for command in takes:
        assert field(built(command, argv)) == want, command


@pytest.mark.parametrize("command, flag", NOT_TAKEN)
def test_flag_not_taken_is_usage_error(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = [command, "--texture", "texture-a", "--texture-size", "30"]
    with pytest.raises(SystemExit) as excinfo:
        run_cli(args + [flag, VALUE[flag]])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mixedgraph {command}")
    assert f"error: unrecognized arguments: {flag} {VALUE[flag]}" in err


IMAGE_COMMANDS = ["denoise", "interpolate", "sequential", "joint"]


@pytest.mark.parametrize(
    "command, size",
    [("joint", None), ("experiment", None)]
    + [(command, size) for command in IMAGE_COMMANDS + ["experiment"] for size in ["1 5", "5 1"]],
)
def test_image_too_small_to_tile_is_one_line(command, size, tmp_path, capsys):
    # a 2 px texture tiles, but no rotated tile has a real output; an image
    # of one row or one column is refused by tiling, inside the run, after
    # the output path is checked.  Neither leaves an output file
    out = tmp_path / "out"
    flag = "--out-csv" if command == "experiment" else "--out-image"
    if size is None:
        args = [command, "--texture", "texture-a", "--texture-size", "2"]
        args += ["--transform", "rotation", "--angle", "20"]
        name, reason = "texture-a", "no valid patch jobs for this transform"
    else:
        name, reason = tmp_path / "in.pgm", "image too small to tile"
        name.write_bytes(f"P5\n{size}\n255\n".encode() + bytes(range(0, 250, 50)))
        args = [command, "--image", str(name)]
    assert run_cli(args + [flag, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{name}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["joint", "experiment"])
def test_killed_worker_is_one_line(command, tmp_path, monkeypatch, capsys):
    fork = os.fork

    def fork_and_kill_the_child():
        pid = fork()
        if pid == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_kill_the_child)
    out = tmp_path / "out"
    args = [command, "--texture", "texture-a", "--texture-size", "30", "--workers", "2"]
    args += ["--out-csv" if command == "experiment" else "--out-image", str(out)]
    assert run_cli(args + ["--transform", "rotation", "--angle", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"texture-a: worker process \d+ ended without a result \(killed by signal 9\)\n",
        captured.err,
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not out.exists()


@pytest.mark.parametrize("out", ["no-such-dir", "/dev/full", "full-disk"])
@pytest.mark.parametrize(
    "command, flag",
    [("joint", "--out-image"), ("experiment", "--out-csv"), ("inspect-graph", "--out")],
)
def test_unwritable_output_is_one_line(command, flag, out, tmp_path, monkeypatch, capsys):
    # a path that cannot be opened is found before any tile is solved; a
    # write that fails after the run, on a full disk, is reported the same way
    reason = os.strerror(errno.ENOSPC)
    if out == "no-such-dir":

        def solve(*args, **kwargs):
            raise AssertionError("solved a tile before checking the output path")

        monkeypatch.setattr(pipeline, "run_chunk", solve)
        monkeypatch.setattr(denoisers, "build_denoiser", solve)
        out, reason = tmp_path / "no" / "such" / "dir" / "x", "No such file or directory"
    elif out == "full-disk":
        out, real_open = tmp_path / "x", open

        def open_full(path, mode="r", *args, **kwargs):
            if "w" in mode:
                raise OSError(errno.ENOSPC, reason)
            return real_open(path, mode, *args, **kwargs)

        for module in (cli, pipeline):
            monkeypatch.setattr(module, "open", open_full, raising=False)
    elif not os.path.exists(out):
        pytest.skip("no /dev/full")
    args = [command, "--texture", "texture-a", "--texture-size", "16", flag, str(out)]
    assert run_cli(args + (["--size", "4"] if command == "inspect-graph" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {out}: {reason}\n"


@pytest.mark.parametrize("name", ["x.png", "up.PNG"])
def test_png_output_without_pillow_is_one_line(name, tmp_path, monkeypatch, capsys):
    # found before the output file is created and before any tile is
    # solved; where Pillow is installed, a None entry makes its import fail
    monkeypatch.setitem(sys.modules, "PIL", None)
    solved = []
    monkeypatch.setattr(pipeline, "run_chunk", lambda *args: solved.append(args))
    out = tmp_path / name
    args = ["joint", "--texture", "texture-a", "--texture-size", "16", "--out-image", str(out)]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {out}: PNG support requires Pillow\n"
    assert not solved
    assert not out.exists()


def test_image_error_of_the_final_write_is_one_line(tmp_path, monkeypatch, capsys):
    def fail(image, path):
        raise ImageIOError("PNG support requires Pillow")

    monkeypatch.setattr(pipeline, "save_image", fail)
    out = tmp_path / "x.pgm"
    args = ["joint", "--texture", "texture-a", "--texture-size", "16", "--out-image", str(out)]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {out}: PNG support requires Pillow\n"


# Runs a command line in a new interpreter in which scipy cannot be
# imported, and prints its exit status as JSON
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from mixedgraph import cli
print(json.dumps(cli.main(json.loads(sys.argv[1]))))
"""


def status_without_scipy(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(mixedgraph.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, json.dumps(argv)],
        env=env,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestNoRunLoadsScipy:
    """Every command runs on numpy alone: with scipy unimportable, each exits 0."""

    def test_bilateral_image_run(self, small_pgm, tmp_path):
        argv = ["joint", "--image", str(small_pgm), "--transform", "rotation", "--angle", "20"]
        argv += ["--denoiser", "bilateral", "--out-image", str(tmp_path / "o.pgm")]
        assert status_without_scipy(argv) == 0

    def test_texture_b_experiment(self, tmp_path):
        # texture-b blurs its noise with `pipeline._wrap_gaussian`
        argv = ["experiment", "--texture", "texture-b", "--texture-size", "32"]
        argv += ["--transform", "rotation", "--angle", "20", "--variances", "0.02"]
        assert status_without_scipy(argv + ["--out-csv", str(tmp_path / "o.csv")]) == 0

    def test_nlm_joint_with_two_workers(self, tmp_path):
        # the rotated tiles have holes, which NLM's layout fills
        # (`denoisers.fill_holes_nearest`), in the caller and in its child
        argv = ["joint", "--texture", "texture-a", "--texture-size", "32"]
        argv += ["--transform", "rotation", "--angle", "20", "--denoiser", "nlm"]
        argv += ["--nlm-h2", "0.05", "--workers", "2", "--out-image", str(tmp_path / "o.pgm")]
        assert status_without_scipy(argv) == 0

    def test_inspect_graph(self, tmp_path):
        argv = ["inspect-graph", "--texture", "texture-b", "--texture-size", "32"]
        argv += ["--denoiser", "nlm", "--nlm-h2", "0.02", "--out", str(tmp_path / "e.txt")]
        assert status_without_scipy(argv) == 0


class FullStdout(io.StringIO):
    """A stdout on a full device: each write, or each flush, raises ENOSPC."""

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.fails == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("experiment", None),
        ("experiment", "--out-csv"),
        ("joint", None),
        ("joint", "--out-image"),
        ("inspect-graph", None),
    ],
)
def test_full_stdout_is_one_line(command, flag, fails, tmp_path, monkeypatch, capsys):
    # the CSV or the edge list, or the line that names the file written,
    # cannot be written to stdout: one stderr line, exit 1, no traceback;
    # stdout is flushed before the command returns, so a buffered stdout
    # fails there too, and a file given by path is still written
    monkeypatch.setattr(sys, "stdout", FullStdout(fails))
    out = tmp_path / "out"
    args = [command, "--texture", "texture-a", "--texture-size", "16"]
    args += [flag, str(out)] if flag else []
    assert run_cli(args + (["--size", "4"] if command == "inspect-graph" else [])) == 1
    assert capsys.readouterr().err == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    if flag:
        assert out.stat().st_size > 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "command, flags",
    [("experiment", []), ("experiment", ["--out-csv", "{out}"]), ("joint", ["--out-image", "{out}"])],
)
def test_full_stdout_device_is_one_line(command, flags, tmp_path):
    # a real, buffered stdout on a full device: the failed flush leaves
    # its bytes in the buffer, and the interpreter's exit must not flush
    # them again (a second error and exit status 120)
    env = dict(os.environ, PYTHONPATH=str(Path(mixedgraph.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    args = [command, "--texture", "texture-a", "--texture-size", "16"]
    args += [flag.format(out=tmp_path / "out.pgm") for flag in flags]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "mixedgraph.cli", *args],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 1
    assert proc.stderr == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "command, patched",
    [
        ("inspect-graph", (denoisers, "build_denoiser")),
        ("joint", (pipeline, "run_chunk")),
        # a texture too large for memory, before any tile is solved
        ("experiment", (pipeline, "synthetic_texture")),
    ],
)
@pytest.mark.parametrize(
    "message, shown",
    [
        # numpy's text for `inspect-graph --texture-size 256 --size 200`
        (
            "Unable to allocate 11.9 GiB for an array with shape (40000, 40000) "
            "and data type float64",
            None,
        ),
        ("", "out of memory"),
    ],
)
def test_memory_error_is_one_line(command, patched, message, shown, monkeypatch, capsys):
    # raised, not allocated: no test may really run out of memory
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*patched, out_of_memory)
    args = [command, "--texture", "texture-b", "--texture-size", "30", "--workers", "1"]
    if command == "inspect-graph":
        args = args[:-2] + ["--size", "20"]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == f"texture-b: {shown or message}\n"


@pytest.mark.parametrize(
    "command, flags",
    [
        ("experiment", ["--workers", "0"]),
        ("experiment", ["--variances", ""]),
        ("experiment", ["--variances", "0.02,-1"]),
        ("experiment", ["--mu", "0"]),
        ("experiment", ["--spatial-var", "-1"]),
        ("experiment", ["--transform", "rotation"]),
        ("joint", ["--transform", "homography", "--homography", "0,0,0;0,0,0;0,0,1"]),
        ("inspect-graph", ["--origin", "1,2,3"]),
        ("joint", ["--texture-size", "1"]),
        ("experiment", ["--texture-size", "0"]),
        ("inspect-graph", ["--mu", "0"]),
        ("inspect-graph", ["--spatial-var", "-1"]),
        ("joint", ["--image", "in.pgm"]),
        ("experiment", ["--variances", "nan"]),
        ("experiment", ["--variances", "0.02,inf"]),
    ],
)
def test_bad_values_are_usage_errors(command, flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli([command, "--texture", "texture-a", "--texture-size", "30"] + flags)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mixedgraph {command}") and "error: " in err


# a number that is not finite, or that makes one that is not: each was an
# image or CSV with exit 0, or a traceback
NON_FINITE = {
    "mu-nan": ("joint", ["--mu", "nan"], "mu must be finite, got nan"),
    "kappa-inf": ("joint", ["--kappa", "inf"], "kappa must be finite, got inf"),
    "c-overflows": (
        "joint",
        ["--gamma", "1e-300", "--mu", "1e-300"],
        "c = kappa (1 + gamma) / (gamma mu) is inf; it must be finite, "
        "and positive when kappa > 0",
    ),
    "experiment-mu-nan": ("experiment", ["--mu", "nan"], "mu must be finite, got nan"),
    "spatial-var-inf": (
        "joint",
        ["--spatial-var", "inf"],
        "kernel variances must be positive and finite",
    ),
    "range-var-nan": (
        "joint",
        ["--range-var", "nan"],
        "kernel variances must be positive and finite",
    ),
    "angle-inf": (
        "joint",
        ["--transform", "rotation", "--angle", "inf"],
        "rotation angle must be finite, got inf",
    ),
    "seed-negative": ("experiment", ["--seed", "-1"], "seed must be non-negative, got -1"),
    # an edge list of no edges, or of every pair, with exit 0
    **{
        f"weight-tol-{value}": (
            "inspect-graph",
            [f"--weight-tol={value}"],
            f"weight tolerance must be finite, got {value}",
        )
        for value in ("nan", "inf", "-inf")
    },
    # every pair i <= j, zero weights included, with exit 0
    "weight-tol--1": (
        "inspect-graph",
        ["--weight-tol=-1"],
        "weight tolerance must be non-negative, got -1.0",
    ),
}


@pytest.mark.parametrize(
    "command, flags, message", list(NON_FINITE.values()), ids=list(NON_FINITE)
)
def test_non_finite_values_are_usage_errors(command, flags, message, tmp_path, capsys):
    out = tmp_path / "x.pgm"
    flags = flags + (["--out-image", str(out)] if command == "joint" else [])
    with pytest.raises(SystemExit) as excinfo:
        run_cli([command, "--texture", "texture-a", "--texture-size", "24"] + flags)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"mixedgraph {command}: error: {message}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["joint", "experiment"])
def test_workers_above_the_cap_fork_nothing(command, monkeypatch, capsys):
    def fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", fork)
    cap = pipeline.max_workers()
    args = [command, "--texture", "texture-a", "--texture-size", "24"]
    with pytest.raises(SystemExit) as excinfo:
        run_cli(args + ["--workers", str(cap + 1)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"mixedgraph {command}: error: workers must be from 1 to {cap}, got {cap + 1}"
    ]


# a homography is defined up to scale: any multiple of the identity is the
# identity, and a matrix singular but for its scale is refused on one line
# with no warning of an overflow
@pytest.mark.parametrize("scale", ["1", "0.5", "1e5", "1e-5", "1e200"])
def test_scaled_identity_homography_is_the_identity(scale, tmp_path):
    args = ["joint", "--texture", "texture-a", "--texture-size", "32"]
    assert run_cli(args + ["--out-image", str(tmp_path / "identity.pgm")]) == 0
    h = ["--transform", "homography", "--homography", f"{scale},0,0;0,{scale},0;0,0,{scale}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args + h + ["--out-image", str(tmp_path / "scaled.pgm")]) == 0
    assert (tmp_path / "scaled.pgm").read_bytes() == (tmp_path / "identity.pgm").read_bytes()


@pytest.mark.parametrize("h", ["1e300,0,0;0,1e300,0;0,0,1", "0,0,0;0,0,0;0,0,0"])
def test_singular_but_for_scale_homography_is_one_line(h, capsys):
    args = ["joint", "--texture", "texture-a", "--texture-size", "32"]
    with warnings.catch_warnings(), pytest.raises(SystemExit) as excinfo:
        warnings.simplefilter("error")
        run_cli(args + ["--transform", "homography", "--homography", h])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "mixedgraph joint: error: homography matrix is singular"
    ]


@pytest.mark.parametrize("h", ["1,0;0,1,0;0,0,1", "1,0,0;0,1,0", "1,0,0,0;0,1,0;0,0,1"])
def test_homography_not_three_by_three_is_one_line(h, capsys):
    args = ["joint", "--texture", "texture-a", "--texture-size", "32"]
    with pytest.raises(SystemExit) as excinfo:
        run_cli(args + ["--transform", "homography", "--homography", h])
    assert excinfo.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
        f"mixedgraph joint: error: homography must be 3x3, got {h!r}"
    ]


def test_vanishing_back_projection_is_one_line(capsys):
    args = ["joint", "--texture", "texture-a", "--texture-size", "24"]
    args += ["--transform", "homography", "--homography", "1,0,0;0,1,0;0.5,0.5,1"]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == (
        "texture-a: back-projection has a vanishing homogeneous coordinate\n"
    )


# a flag that a command takes, but that its other flags would leave unread
IGNORED = {
    "angle-without-rotation": (
        "interpolate",
        TEXTURE_A + ["--angle", "20"],
        "an angle applies only to the rotation transform",
    ),
    "angle-with-homography": (
        "joint",
        TEXTURE_A + ["--transform", "homography", "--homography", "1,0,0;0,1,0;0,0,1"]
        + ["--angle", "20"],
        "an angle applies only to the rotation transform",
    ),
    "matrix-with-rotation": (
        "experiment",
        TEXTURE_A + ["--transform", "rotation", "--angle", "20"]
        + ["--homography", "1,0,0;0,1,0;0,0,1"],
        "a matrix applies only to the homography transform",
    ),
    "texture-size-with-image": (
        "denoise",
        ["--image", "{pgm}", "--texture-size", "99"],
        "--texture-size applies only to --texture",
    ),
}


@pytest.mark.parametrize("in_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize("case", IGNORED)
def test_ignored_flag_is_usage_error(case, in_config, small_pgm, tmp_path, capsys):
    command, flags, message = IGNORED[case]
    flags = [a.format(pgm=small_pgm) for a in flags]
    if in_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
        flags = ["--config", str(cfg)]
    out = "--out-csv" if command == "experiment" else "--out-image"
    with pytest.raises(SystemExit) as excinfo:
        run_cli([command] + flags + [out, str(tmp_path / "x.out")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mixedgraph {command}") and f"error: {message}" in err
    assert not (tmp_path / "x.out").exists()


def test_texture_size_defaults_to_512(monkeypatch):
    sizes = []

    def texture(name, size):
        sizes.append(size)
        return synthetic_texture(name, 8)

    monkeypatch.setattr(pipeline, "synthetic_texture", texture)
    assert run_cli(["denoise", "--texture", "texture-a"]) == 0
    assert sizes == [512]


class TestConfigFile:
    def test_file_values_applied(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment settings\n"
            "texture = texture-a\n"
            "texture-size = 30\n"
            "transform = rotation\n"
            "angle = 10\n"
            "variances = 0.02\n"
            "method = direct\n"
            "seed = 9\n"
        )
        assert run_cli(["experiment", "--config", str(cfg)]) == 0
        got = capsys.readouterr().out
        assert got.startswith(CSV_HEADER)
        assert ",0.02," in got

    @pytest.mark.parametrize(
        "name, reason",
        [("no-such.cfg", "No such file or directory"), ("", "Is a directory")],
    )
    def test_unreadable_file_is_one_line(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        assert run_cli(["joint", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read {path}: {reason}\n"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-key = 1\n")
        with pytest.raises(SystemExit):
            run_cli(["experiment", "--config", str(cfg), "--texture", "texture-a"])

    def test_command_line_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("denoiser = gaussian\nvariances = 0.02\nmethod = direct\n")
        args = ["experiment", "--config", str(cfg), "--texture", "texture-a"]
        args += ["--texture-size", "30", "--mode", "joint", "--denoiser", "bilateral"]
        assert run_cli(args) == 0
        got = capsys.readouterr().out
        assert ",bilateral,joint," in got and "gaussian" not in got

    def test_file_values_checked_against_choices(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("denoiser = foo\n")
        with pytest.raises(SystemExit):
            run_cli(["experiment", "--config", str(cfg), "--texture", "texture-a"])

    @pytest.mark.parametrize(
        "command, line",
        [
            ("joint", "seed = 3"),
            ("joint", "method = direct"),
            ("denoise", "transform = rotation"),
            ("interpolate", "denoiser = gaussian"),
            ("experiment", "out-image = x.pgm"),
            ("inspect-graph", "workers = 2"),
        ],
    )
    def test_key_for_flag_not_taken_rejected(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--config", str(cfg), "--texture", "texture-a"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mixedgraph {command}")
        assert "unrecognized arguments: --" + line.split(" = ")[0] in err

    def test_file_values_do_not_leak_into_next_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("denoiser = gaussian\ntexture-size = 30\n")
        args = ["experiment", "--texture", "texture-a", "--mode", "joint"]
        assert run_cli(args + ["--config", str(cfg)]) == 0
        assert ",gaussian,joint," in capsys.readouterr().out
        assert run_cli(args + ["--texture-size", "32"]) == 0
        assert ",bilateral,joint," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "in_file, flags",
        [
            ("image = {pgm}", ["--texture", "texture-a"]),
            ("texture = texture-a", ["--image", "{pgm}"]),
            # checked before --texture-size, which goes only with --texture
            ("texture = texture-a", ["--image", "{pgm}", "--texture-size", "30"]),
        ],
    )
    def test_image_with_texture_rejected(self, small_pgm, tmp_path, capsys, in_file, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(in_file.format(pgm=small_pgm) + "\n")
        args = ["joint", "--config", str(cfg)] + [a.format(pgm=small_pgm) for a in flags]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(args)
        assert excinfo.value.code == 2
        assert "exactly one of --image and --texture" in capsys.readouterr().err

    def test_file_value_starting_with_minus(self, tmp_path, capsys):
        # a left-right flip: its first entry is negative
        cfg = tmp_path / "flip.cfg"
        cfg.write_text(
            "transform = homography\n"
            "homography = -1,0,29;0,1,0;0,0,1\n"
            "variances = 0.02\n"
        )
        args = ["experiment", "--config", str(cfg), "--texture", "texture-a"]
        args += ["--texture-size", "30", "--mode", "joint", "--method", "direct"]
        assert run_cli(args) == 0
        assert "homography(-1,0,29;0,1,0;0,0,1)" in capsys.readouterr().out


# for each flag that a command takes, (usual values, values that are not
# finite, extreme or malformed)
BAD_FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", ""]
BAD_INTS = ["", "-1", "0", "1e300", "x"]
FUZZ = {
    "--texture-size": (["8", "16", "24"], ["", "-1", "0", "2"]),
    "--angle": (["0", "20", "-45", "90"], BAD_FLOATS),
    "--homography": (
        ["1,0.2,0;0.1,1,0;0,0,1", "0.5,0,0;0,0.5,0;0,0,1"],
        ["", "1,0,0;0,1,0;0.5,0.5,1", "1,0,0;0,1,0;0,0,nan", "1,0,0;0,1,0", "0,0,0;0,0,0;0,0,1"],
    ),
    "--denoiser": (["gaussian", "bilateral", "nlm", "identity"], []),
    "--spatial-var": (["0.3", "2"], BAD_FLOATS),
    "--range-var": (["0.05", "0.3"], BAD_FLOATS),
    "--nlm-patch": (["1", "3"], BAD_INTS + ["2", "9"]),
    "--nlm-window": (["5", "9"], BAD_INTS + ["3", "8"]),
    "--nlm-h2": (["0.05", "0.3"], BAD_FLOATS),
    "--mu": (["0.1", "0.3"], BAD_FLOATS),
    "--gamma": (["0.5", "2"], BAD_FLOATS),
    "--kappa": (["0", "0.3"], BAD_FLOATS),
    "--patch-size": (["4", "10", "12"], BAD_INTS + ["1", "2"]),
    "--seed": (["0", "7"], BAD_INTS),
    "--method": (["cg", "direct"], ["lu"]),
    "--variances": (["0.02", "0.02,0.06"], ["", "nan", "0.02,inf", "0", "1e-300", "1e300"]),
    "--mode": (["joint", "sequential", "both"], ["all"]),
    "--origin": (["0,0", "5,5", "2,12"], ["-3,0", "0,-1", "-12,-12", "20,0", "0,30", "1", ""]),
    "--size": (["2", "4", "10"], BAD_INTS + ["1", "40"]),
    "--weight-tol": (["0", "1e-12", "0.01"], BAD_FLOATS),
}
# drawn with the transform they go with
TRANSFORM_FLAG = {"rotation": "--angle", "homography": "--homography"}


@st.composite
def command_lines(draw):
    """A command line, each of whose values is usual three times in four.

    The flags are drawn from the command's own; --workers is left out, so
    that no example starts processes.  inspect-graph always gets the three
    flags that pick its patch and its edges.  Each value is joined to its
    flag with "=", so that a value that starts with "-" is read as a value.
    """

    def value(flag):
        usual, bad = FUZZ[flag]
        return draw(st.sampled_from(usual if not bad or draw(st.integers(0, 3)) else bad))

    command = draw(st.sampled_from(sorted(TAKES)))
    texture = draw(st.sampled_from(["texture-a", "texture-b"]))
    argv = [command, "--texture", texture, f"--texture-size={value('--texture-size')}"]
    always = ["--origin", "--size", "--weight-tol"] if command == "inspect-graph" else []
    drawn = [f for f in TAKES[command] if f in FUZZ and f not in always + ["--texture-size"]]
    if "--transform" in TAKES[command]:
        transform = draw(st.sampled_from(["identity", "rotation", "homography"]))
        argv += ["--transform", transform]
        if transform in TRANSFORM_FLAG:
            argv.append(f"{TRANSFORM_FLAG[transform]}={value(TRANSFORM_FLAG[transform])}")
        drawn = [flag for flag in drawn if flag not in TRANSFORM_FLAG.values()]
    for flag in always + draw(st.lists(st.sampled_from(drawn), unique=True, max_size=4)):
        argv.append(f"{flag}={value(flag)}")
    return argv


@settings(max_examples=72, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
def test_any_command_line_exits_cleanly(argv, tmp_path_factory):
    """Exit status 0, 1 or 2 and never an exception; exit 0 only with a sound output.

    The output is sound when an image is finite, a CSV's PSNRs are
    finite, and an edge list is of a patch inside the image and numbers
    its nodes below size squared.
    """
    saved = []
    if argv[0] not in ("experiment", "inspect-graph"):
        argv = argv + ["--out-image", str(tmp_path_factory.mktemp("out") / "x.pgm")]
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(pipeline, "save_image", lambda image, path: saved.append(image))
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
        except SystemExit as exc:
            # the interpreter prints a message and exits with status 1
            status = 1 if isinstance(exc.code, str) else exc.code
    assert status in (0, 1, 2)
    if status == 0 and argv[0] == "inspect-graph":
        args = cli._parsers()[1]["inspect-graph"].parse_args(argv[1:])
        (r0, c0), n, side = args.origin, args.size, args.texture_size
        assert 0 <= min(r0, c0) and max(r0, c0) + n <= side
        for line in stdout.getvalue().splitlines():
            i, j, w = line.split()
            assert 0 <= int(i) <= int(j) < n * n and math.isfinite(float(w)) and float(w) != 0
    elif status == 0 and argv[0] == "experiment":
        # psnr_db is the last field but one; a homography's label holds commas
        rows = [line.rsplit(",", 2) for line in stdout.getvalue().splitlines()[1:]]
        assert rows and all(math.isfinite(float(row[1])) for row in rows)
    elif status == 0:
        assert len(saved) == 1 and np.isfinite(saved[0].pixels).all()


import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.linalg import sqrtm

from mixedgraph import jointsolver, pipeline
from mixedgraph.errors import BALANCE, CERTIFICATION, NOT_FINITE, OK, SOLVER, outcome_text
from mixedgraph.errors import ImageIOError, TilesFailedError, WorkerError
from mixedgraph.graphcore import TAU_DS
from mixedgraph.interpolators import Homography, Rotation, tile_image
from mixedgraph.jointsolver import SolverWeights
from mixedgraph.pipeline import (
    CSV_HEADER,
    ExperimentConfig,
    ImageBuffer,
    add_gaussian_noise,
    build_patch_denoiser,
    build_reference,
    load_image,
    load_pgm,
    process_image,
    psnr,
    run_chunk,
    run_experiment,
    run_patch,
    save_image,
    save_pgm,
    synthetic_texture,
)

from helpers import error_texts

MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))
PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))


def identity_config(**kw):
    defaults = dict(
        transform=Rotation(0.0), denoiser_kind="identity", noise_variances=(0.02,)
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestPgmIO:
    def test_roundtrip_quantization_error(self, tmp_path):
        rng = np.random.default_rng(0)
        img = ImageBuffer.from_array(rng.uniform(0, 1, (17, 23)))
        path = tmp_path / "t.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        assert back.pixels.shape == (17, 23)
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 510.0 + 1e-12

    def test_comment_and_maxval_parsing(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # comment\n# another\n2 2\n100\n" + bytes([0, 50, 100, 25]))
        img = load_pgm(path)
        np.testing.assert_allclose(
            img.pixels, np.array([[0.0, 0.5], [1.0, 0.25]]), atol=1e-12
        )

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ImageIOError) as excinfo:
            load_pgm(path)
        assert excinfo.value.offset == 0

    @pytest.mark.parametrize("size", [b"-5 -5", b"0 4", b"4 0"])
    def test_non_positive_size_rejected(self, tmp_path, size):
        path = tmp_path / "size.pgm"
        header = b"P5\n" + size + b"\n255\n"
        path.write_bytes(header + bytes(25))
        with pytest.raises(ImageIOError, match="non-positive image size") as excinfo:
            load_pgm(path)
        assert excinfo.value.offset == len(header) - 1  # end of the header's last token

    def test_sample_above_maxval_reports_offset(self, tmp_path):
        path = tmp_path / "over.pgm"
        header = b"P5\n2 2\n100\n"
        path.write_bytes(header + bytes([0, 100, 200, 101]))
        with pytest.raises(ImageIOError, match="^sample 200 above maxval 100 at byte 13$") as excinfo:
            load_pgm(path)
        assert excinfo.value.offset == len(header) + 2  # the first sample above 100

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ImageIOError):
            load_pgm(path)


class TestPngSuffix:
    """A path is a PNG by its suffix in any case, and a PNG needs Pillow."""

    @pytest.fixture
    def no_pillow(self, monkeypatch):
        # where Pillow is installed, a None entry makes its import fail
        monkeypatch.setitem(sys.modules, "PIL", None)

    @pytest.mark.parametrize("name", ["x.png", "x.PNG", "x.Png"])
    def test_load_png_without_pillow_raises(self, name, tmp_path, no_pillow):
        path = tmp_path / name
        save_pgm(synthetic_texture("texture-a", 8), path)  # PGM bytes: not read as a PGM
        with pytest.raises(ImageIOError, match="^PNG support requires Pillow$"):
            load_image(path)

    @pytest.mark.parametrize("name", ["x.png", "x.PNG", "x.Png"])
    def test_save_png_without_pillow_writes_nothing(self, name, tmp_path, no_pillow):
        path = tmp_path / name
        with pytest.raises(ImageIOError, match="^PNG support requires Pillow$"):
            save_image(synthetic_texture("texture-a", 8), path)
        assert not path.exists()

    def test_upper_case_png_round_trips(self, tmp_path):
        pytest.importorskip("PIL")
        img = synthetic_texture("texture-a", 8)
        path = tmp_path / "x.PNG"
        save_image(img, path)
        assert path.read_bytes().startswith(b"\x89PNG")
        assert np.abs(load_image(path).pixels - img.pixels).max() <= 1.0 / 510.0 + 1e-12


class TestSyntheticTexture:
    @pytest.mark.parametrize("name", ["texture-a", "texture-b"])
    def test_range_and_determinism(self, name):
        a = synthetic_texture(name, 64)
        b = synthetic_texture(name, 64)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        assert a.pixels.min() >= 0.02 - 1e-12 and a.pixels.max() <= 0.98 + 1e-12
        assert a.pixels.std() > 0.05

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            synthetic_texture("texture-z")

    @pytest.mark.parametrize("size", [0, 1])
    def test_too_small_rejected(self, size):
        with pytest.raises(ValueError, match="at least 2"):
            synthetic_texture("texture-a", size)


class TestWrapGaussian:
    """`pipeline._wrap_gaussian` gives the bits of scipy's wrap-mode Gaussian filter."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        h=st.integers(1, 600),
        w=st.integers(1, 600),
        sigma=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # sides below the radius (32 at sigma 8) wrap round more than once
    @example(h=1, w=600, sigma=8.0, seed=0)
    @example(h=5, w=3, sigma=8.0, seed=1)
    # texture-b's two filters
    @example(h=64, w=64, sigma=6.0, seed=2)
    @example(h=64, w=64, sigma=1.2, seed=3)
    def test_matches_scipy(self, h, w, sigma, seed):
        x = np.random.default_rng(seed).standard_normal((h, w))
        want = ndimage.gaussian_filter(x, sigma, mode="wrap")
        assert pipeline._wrap_gaussian(x, sigma).tobytes() == want.tobytes()


class TestNoise:
    def test_seed_determinism(self):
        img = synthetic_texture("texture-a", 32)
        a = add_gaussian_noise(img, 0.04, 7)
        b = add_gaussian_noise(img, 0.04, 7)
        c = add_gaussian_noise(img, 0.04, 8)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        assert np.any(a.pixels != c.pixels)

    def test_empirical_variance(self):
        clean = np.full((512, 512), 0.5)
        noisy = add_gaussian_noise(clean, 0.04, 3)
        emp = np.var(noisy - clean)
        assert 0.038 <= emp <= 0.042

    def test_not_clipped(self):
        noisy = add_gaussian_noise(np.zeros((64, 64)), 0.25, 0)
        assert noisy.min() < 0.0

    @pytest.mark.parametrize("variance", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, variance):
        # NaN is not <= 0, and either value gave a non-finite image
        with pytest.raises(ValueError, match="variance must be positive and finite"):
            add_gaussian_noise(np.zeros((4, 4)), variance, 0)


class TestPsnr:
    def test_uniform_offset(self):
        a = np.full((8, 8), 0.5)
        assert psnr(a, a + 0.1) == pytest.approx(20.0, abs=1e-9)

    def test_half_range_error(self):
        a = np.zeros((4, 4))
        assert psnr(a, np.full((4, 4), 0.5)) == pytest.approx(
            20.0 * np.log10(2.0), abs=1e-9
        )

    def test_identical_capped(self):
        a = np.random.default_rng(1).uniform(0, 1, (5, 5))
        assert psnr(a, a) == 99.0

    def test_test_image_clamped_before_compare(self):
        ref = np.ones((4, 4))
        assert psnr(ref, np.full((4, 4), 3.0)) == 99.0

    def test_mask_restricts_support(self):
        ref = np.zeros((2, 2))
        tst = np.array([[0.0, 1.0], [0.0, 0.0]])
        mask = np.array([[True, False], [True, True]])
        assert psnr(ref, tst, mask) == 99.0

    @pytest.mark.parametrize(
        "mask",
        [
            # 0/1 integers index rows 0 and 1 instead of masking pixels
            np.array([[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]),
            np.ones((4, 3), dtype=bool),
        ],
        ids=["integer", "wrong-shape"],
    )
    def test_bad_mask_rejected(self, mask):
        rng = np.random.default_rng(0)
        ref, tst = rng.uniform(0, 1, (2, 4, 4))
        with pytest.raises(ValueError, match=r"mask must be a boolean array of shape \(4, 4\)"):
            psnr(ref, tst, mask)

    def test_cap_only_for_zero_error(self):
        a = np.full((4, 4), 0.5)
        assert psnr(a, a + 1e-6) == pytest.approx(120.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_in_mask_raises(self, bad):
        # a NaN image used to score the 99 dB cap
        ref = np.zeros((2, 2))
        tst = np.array([[0.0, bad], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite pixel inside the mask"):
            psnr(ref, tst)
        with pytest.raises(ValueError, match="non-finite pixel inside the mask"):
            psnr(tst, ref)

    def test_non_finite_pixel_outside_mask_ignored(self):
        ref = np.zeros((2, 2))
        tst = np.array([[0.0, np.nan], [0.0, 0.0]])
        mask = np.array([[True, False], [True, True]])
        assert psnr(ref, tst, mask) == 99.0

    def test_validity_intersection(self):
        ref = ImageBuffer(
            pixels=np.zeros((2, 2)),
            validity=np.array([[True, True], [False, True]]),
        )
        tst = ImageBuffer(
            pixels=np.array([[0.0, 0.9], [0.9, 0.0]]),
            validity=np.array([[True, False], [True, True]]),
        )
        assert psnr(ref, tst) == 99.0


class TestRunPatch:
    def test_identity_everything_passthrough(self):
        img = synthetic_texture("texture-a", 32)
        config = identity_config(patch_size=8)
        job = tile_image((32, 32), config.transform, 8)[0]
        joint, sequential, code, detail = run_patch(job, [img.pixels], config)
        assert error_texts(code, detail, config.denoiser_kind) == [[None]]
        tc = job.operator.target_coords
        want = img.pixels[tc[:, 0], tc[:, 1]]
        np.testing.assert_allclose(sequential[0, 0], want, atol=1e-8)
        np.testing.assert_allclose(joint[0, 0], want, atol=1e-6)

    def test_joint_and_sequential_agree_with_zero_lbar(self):
        # identity denoiser zeroes the prior, so joint must reproduce the
        # plain interpolation that sequential also starts from
        img = synthetic_texture("texture-b", 48)
        config = identity_config(transform=Rotation(15.0), patch_size=8)
        jobs = tile_image((48, 48), config.transform, 8)
        job = next(j for j in jobs if j.origin == (16, 16))
        joint, sequential, code, detail = run_patch(job, [img.pixels], config)
        assert error_texts(code, detail, config.denoiser_kind) == [[None]]
        np.testing.assert_allclose(joint[0, 0], sequential[0, 0], atol=1e-6)

    def test_bilateral_patch_runs_both_modes(self):
        img = add_gaussian_noise(synthetic_texture("texture-a", 48), 0.02, 5)
        config = ExperimentConfig(
            transform=Rotation(20.0), denoiser_kind="bilateral", patch_size=8
        )
        jobs = tile_image((48, 48), config.transform, 8)
        job = next(j for j in jobs if j.origin == (16, 16))
        joint, sequential, code, detail = run_patch(job, [img.pixels], config)
        assert error_texts(code, detail, config.denoiser_kind) == [[None]]
        assert joint.shape == sequential.shape == (1, 1, 64)
        assert np.linalg.norm(joint - sequential) > 1e-8


class TestProcessImage:
    def test_ground_truth_consistency(self):
        # zero noise + identity denoiser recovers the warped clean image
        img = synthetic_texture("texture-a", 40)
        config = identity_config(transform=Rotation(10.0), mode="sequential")
        out = process_image(config, img)
        jobs = tile_image((40, 40), config.transform, 10)
        ref, mask = build_reference(jobs, img.pixels, (40, 40))
        assert out.validity.sum() == mask.sum()
        assert psnr(ImageBuffer(ref, mask), out) >= 80.0

    def test_one_mode_per_image(self):
        # "both" names two images; ExperimentConfig rejects any other name
        img = synthetic_texture("texture-a", 20)
        with pytest.raises(ValueError, match="'joint' or 'sequential', got 'both'"):
            process_image(identity_config(mode="both"), img)

    @pytest.mark.parametrize(
        "transform",
        [Rotation(20.0), Homography(PAPER_H), MAGNIFY_4X],
        ids=["rotation", "homography", "magnify-4x"],
    )
    def test_identity_joint_is_sequential(self, transform):
        # with psi = I the joint system is exactly I, so the solve gives
        # the plain interpolation that sequential mode gives, bit for bit
        img = add_gaussian_noise(synthetic_texture("texture-a", 40), 0.02, 3)
        config = identity_config(transform=transform)
        joint = process_image(replace(config, mode="joint"), img)
        sequential = process_image(replace(config, mode="sequential"), img)
        assert joint.validity.any() and not joint.tile_errors
        assert joint.pixels.tobytes() == sequential.pixels.tobytes()
        assert joint.validity.tobytes() == sequential.validity.tobytes()

    def test_kappa_zero_joint_is_the_interpolation(self):
        # at kappa = 0 the joint solution is theta_r y, whatever the
        # denoiser: the bytes of the `interpolate` command's path
        img = add_gaussian_noise(synthetic_texture("texture-a", 32), 0.02, 3)
        config = ExperimentConfig(
            transform=Rotation(20.0),
            denoiser_kind="bilateral",
            weights=SolverWeights(kappa=0.0),
        )
        joint = process_image(replace(config, mode="joint"), img)
        interpolate = replace(config, denoiser_kind="identity", mode="sequential")
        interpolated = process_image(interpolate, img)
        assert joint.validity.any() and not joint.tile_errors
        assert joint.validity.tobytes() == interpolated.validity.tobytes()
        assert joint.pixels.tobytes() == interpolated.pixels.tobytes()

    def test_stitching_covers_all_tiled_pixels(self):
        img = synthetic_texture("texture-b", 40)
        config = identity_config(transform=Rotation(20.0), mode="joint")
        out = process_image(config, img)
        jobs = tile_image((40, 40), config.transform, 10)
        covered = np.zeros((40, 40), dtype=bool)
        for job in jobs:
            tc = job.operator.target_coords
            covered[tc[:, 0], tc[:, 1]] = True
        np.testing.assert_array_equal(out.validity, covered)

    def test_worker_pool_matches_serial(self, monkeypatch):
        forks = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        img = add_gaussian_noise(synthetic_texture("texture-a", 36), 0.02, 1)
        config = ExperimentConfig(transform=Rotation(20.0), denoiser_kind="bilateral")
        for mode in ("joint", "sequential"):
            serial = process_image(replace(config, mode=mode), img)
            assert not forks
            pooled = process_image(replace(config, workers=2, mode=mode), img)
            assert len(forks) == 1
            forks.clear()
            assert pooled.pixels.tobytes() == serial.pixels.tobytes()
            np.testing.assert_array_equal(pooled.validity, serial.validity)
            assert pooled.tile_errors == serial.tile_errors
            assert serial.validity.any()

    def test_magnified_tiles_are_solved(self):
        # 4x magnification: each 10x10 tile reads only 4x4 source pixels,
        # so its rows cannot be padded into an invertible square operator
        img = add_gaussian_noise(synthetic_texture("texture-a", 40), 0.02, 1)
        config = ExperimentConfig(transform=MAGNIFY_4X, denoiser_kind="bilateral", mode="joint")
        out = process_image(config, img)
        assert out.validity.all() and np.isfinite(out.pixels).all()

    def test_magnified_tile_minimises_reduced_objective(self):
        # With more outputs than footprint pixels (n > m) the joint output
        # is theta_r @ w, where w minimises
        # gamma/(1+gamma) |y - w|^2 + kappa (theta_r w)^T L (theta_r w),
        # L = (inv(psi) - I) / mu; solved here as a stacked least squares.
        img = add_gaussian_noise(synthetic_texture("texture-a", 40), 0.02, 1)
        config = ExperimentConfig(transform=MAGNIFY_4X, denoiser_kind="bilateral")
        job = tile_image((40, 40), config.transform, 10)[5]
        op = job.operator
        n, m = op.real_matrix.shape
        assert n > m
        joint, sequential, code, detail = run_patch(job, [img.pixels], config)
        assert error_texts(code, detail, config.denoiser_kind) == [[None]]
        y = img.pixels[op.source_coords[:, 0], op.source_coords[:, 1]]
        ty = (op.real_matrix @ y)[None, None]
        ((psi,),), ((code,),), _ = build_patch_denoiser([op], ty, config)
        assert code == OK
        wts = config.weights
        lap = (np.linalg.inv(psi) - np.eye(n)) / wts.mu
        a = np.sqrt(wts.gamma / (1.0 + wts.gamma))
        lhs = np.vstack([a * np.eye(m), np.sqrt(wts.kappa) * sqrtm(lap).real @ op.real_matrix])
        rhs = np.concatenate([a * y, np.zeros(n)])
        w = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        np.testing.assert_allclose(joint[0, 0], op.real_matrix @ w, rtol=1e-8)
        np.testing.assert_allclose(sequential[0, 0], psi @ op.real_matrix @ y)


class TestRunExperiment:
    def make_config(self, **kw):
        defaults = dict(
            transform=Rotation(10.0),
            denoiser_kind="bilateral",
            noise_variances=(0.02, 0.06),
            seed=11,
            patch_size=10,
            method="direct",
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_csv_schema_and_curves(self):
        img = synthetic_texture("texture-a", 40)
        curves, csv_text = run_experiment(self.make_config(), img, "tex")
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # two variances, two modes
        for line in lines[1:]:
            name, label, kind, mode, var, value, failed = line.split(",")
            assert name == "tex" and kind == "bilateral"
            assert mode in ("joint", "sequential")
            assert float(var) in (0.02, 0.06)
            float(value), int(failed)
        assert {c.mode for c in curves} == {"joint", "sequential"}
        assert all(len(c.points) == 2 for c in curves)

    def test_deterministic_repeat(self):
        img = synthetic_texture("texture-b", 40)
        _, a = run_experiment(self.make_config(), img, "tex")
        _, b = run_experiment(self.make_config(), img, "tex")
        assert a == b

    def test_monotone_degradation(self):
        img = synthetic_texture("texture-a", 40)
        config = self.make_config(noise_variances=(0.01, 0.04, 0.16))
        curves, _ = run_experiment(config, img, "tex")
        for curve in curves:
            values = [p[1] for p in curve.points]
            assert values[0] > values[1] > values[2]

    def test_identity_transform_zero_noise_near_lossless(self):
        img = synthetic_texture("texture-b", 40)
        config = identity_config(noise_variances=(1e-12,), method="direct")
        curves, _ = run_experiment(config, img, "tex")
        for curve in curves:
            assert curve.points[0][1] >= 80.0

    def test_worker_pool_matches_serial(self):
        img = synthetic_texture("texture-a", 36)
        config = self.make_config(transform=Rotation(20.0))
        _, serial = run_experiment(config, img, "tex")
        _, pooled = run_experiment(replace(config, workers=2), img, "tex")
        assert pooled == serial

    def test_method_is_a_no_op(self):
        img = synthetic_texture("texture-a", 30)
        csvs = {
            run_experiment(self.make_config(method=method), img, "t")[1]
            for method in jointsolver.METHODS
        }
        assert jointsolver.METHODS == ("cg", "direct") and len(csvs) == 1
        with pytest.raises(ValueError, match="unknown solve method 'closed-form'"):
            self.make_config(method="closed-form")


    def test_every_tile_failed_names_variance_and_tile(self):
        # NLM's box window fails certification on every tile of this image
        img = synthetic_texture("texture-a", 48)
        config = self.make_config(
            transform=Homography(((1.0, 0.1, 0.0), (0.05, 1.0, 0.0), (0.0, 0.0, 1.0))),
            denoiser_kind="nlm",
            noise_variances=(0.02,),
            mode="joint",
        )
        match = r"^all \d+ tiles failed at variance 0\.02; first: tile at \(0, 0\): "
        with pytest.raises(TilesFailedError, match=match):
            run_experiment(config, img, "tex")


def blas_thread_counts():
    return [get() for get, _, _ in pipeline._blas_pools()]


class TestOneBlasThread:
    CONFIG = ExperimentConfig(
        transform=Rotation(20.0), noise_variances=(0.02, 0.06), seed=5, method="direct"
    )

    @pytest.fixture
    def two_threads(self):
        """numpy's OpenBLAS pool at two threads, and as found again afterwards."""
        pools = pipeline._blas_pools()
        if not pools:
            # an OpenBLAS whose setter has another name would leave the
            # tile path on unpinned BLAS threads
            bundled = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
            assert not bundled, f"no thread setter found in numpy's {[b.name for b in bundled]}"
            pytest.skip("numpy bundles no OpenBLAS")
        found = blas_thread_counts()
        for _, set_, _ in pools:
            set_(2)
        yield
        for (_, set_, _), count in zip(pools, found):
            set_(count)

    def test_pool_run_restores_counts_and_matches_serial(self, two_threads):
        img = synthetic_texture("texture-a", 32)
        _, serial = run_experiment(self.CONFIG, img, "tex")
        assert blas_thread_counts() == [2]
        _, pooled = run_experiment(replace(self.CONFIG, workers=2), img, "tex")
        assert blas_thread_counts() == [2]
        assert pooled == serial

    def test_tiles_run_on_one_thread(self, two_threads, monkeypatch):
        seen = []

        def counting_run_chunk(*args):
            seen.append(blas_thread_counts())
            return run_chunk(*args)

        monkeypatch.setattr(pipeline, "run_chunk", counting_run_chunk)
        run_experiment(self.CONFIG, synthetic_texture("texture-a", 32), "tex")
        assert seen and all(counts == [1] for counts in seen)
        assert blas_thread_counts() == [2]

    def test_missing_symbols_run_unchanged(self, monkeypatch):
        img = synthetic_texture("texture-a", 32)
        _, want = run_experiment(self.CONFIG, img, "tex")
        monkeypatch.setattr(pipeline, "_BLAS_SYMBOLS", (("no_such_get", "no_such_set"),))
        pipeline._blas_pools.cache_clear()
        try:
            assert pipeline._blas_pools() == ()
            _, got = run_experiment(self.CONFIG, img, "tex")
        finally:
            pipeline._blas_pools.cache_clear()
        assert got == want


# In a new interpreter, which loads numpy's OpenBLAS and, unlike this one,
# not scipy's: the thread count of the process at each of its forks.
FORK_THREADS = """
import os, numpy as np
from mixedgraph.interpolators import Rotation
from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture
product = np.random.default_rng(0).standard_normal((400, 400))
product @ product
fork, threads = os.fork, []
def counting_fork():
    threads.append(len(os.listdir("/proc/self/task")))
    return fork()
os.fork = counting_fork
config = ExperimentConfig(transform=Rotation(20.0), noise_variances=(0.02, 0.06), workers=3)
run_experiment(config, synthetic_texture("texture-a", 32))
print(threads)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc (Linux)")
def test_children_are_forked_from_one_thread():
    # a threaded BLAS product leaves numpy's OpenBLAS pool running; no
    # child may be forked while its threads live
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parent.parent))
    run = subprocess.run(
        [sys.executable, "-c", FORK_THREADS], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[1, 1]\n"


# In a new interpreter with numpy's OpenBLAS pool running: the threads of
# the process before and after a serial run.
SERIAL_THREADS = """
import os, numpy as np
from mixedgraph.interpolators import Rotation
from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture
product = np.random.default_rng(0).standard_normal((400, 400))
product @ product
before = sorted(os.listdir("/proc/self/task"))
config = ExperimentConfig(transform=Rotation(20.0), noise_variances=(0.02, 0.06), workers=1)
run_experiment(config, synthetic_texture("texture-a", 32))
print(len(before), sorted(os.listdir("/proc/self/task")) == before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc (Linux)")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs no pool on one CPU")
def test_serial_run_keeps_the_blas_pool():
    # a run that cannot fork leaves numpy's pool as it found it: shutting
    # it down would make every serial run pay a restart of its threads
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parent.parent))
    env["OPENBLAS_NUM_THREADS"] = "2"
    run = subprocess.run(
        [sys.executable, "-c", SERIAL_THREADS], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "2 True\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_run_leaves_no_spinning_blas_thread(workers):
    # OpenBLAS shuts its pool down at each fork, and restoring two threads
    # afterwards starts a new pool, whose thread spins for about 0.1 s
    # unless the pool is shut down again; a serial run keeps its pool idle
    pools = pipeline._blas_pools()
    if not pools:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter")
    found = blas_thread_counts()
    for _, set_, _ in pools:
        set_(2)
    try:
        config = replace(TestOneBlasThread.CONFIG, workers=workers)
        run_experiment(config, synthetic_texture("texture-a", 32), "tex")
        start = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - start <= 0.02
        assert blas_thread_counts() == [2]
    finally:
        for (_, set_, _), count in zip(pools, found):
            set_(count)


class TestKeepHeap:
    # the sweep-rot-bilateral benchmark workload
    CONFIG = ExperimentConfig(
        transform=Rotation(20.0),
        noise_variances=(0.02, 0.04, 0.06, 0.08, 0.10),
        seed=1,
        method="direct",
    )

    def test_second_sweep_takes_few_page_faults(self):
        if pipeline._mallopt() is None:
            pytest.skip("the C library has no mallopt")
        img = synthetic_texture("texture-a", 64)
        run_experiment(self.CONFIG, img, "tex")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(self.CONFIG, img, "tex")
        # glibc's dynamic thresholds gave about 5,000-11,000 here
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000

    def test_missing_mallopt_runs_unchanged(self, monkeypatch):
        img = synthetic_texture("texture-a", 32)
        config = replace(self.CONFIG, noise_variances=(0.02, 0.06))
        _, want = run_experiment(config, img, "tex")
        cdll = pipeline.ctypes.CDLL

        def no_mallopt(name, *args, **kwargs):
            return object() if name is None else cdll(name, *args, **kwargs)

        monkeypatch.setattr(pipeline.ctypes, "CDLL", no_mallopt)
        pipeline._mallopt.cache_clear()
        try:
            assert pipeline._mallopt() is None
            _, got = run_experiment(config, img, "tex")
        finally:
            pipeline._mallopt.cache_clear()
        assert got == want


class TestOutcomeCodes:
    """A (tile, image)'s outcome is an int8 code and a float64 detail; its text is formed last."""

    def test_each_code_has_its_text(self):
        assert (OK, BALANCE, CERTIFICATION, SOLVER, NOT_FINITE) == tuple(range(5))
        assert [outcome_text(code, 1.2345e-5, "nlm") for code in range(5)] == [
            None,
            "Sinkhorn balancing did not converge (residual 1.234e-05)",
            "nlm denoiser failed certification on patch",
            "reduced joint system is singular",
            "tile output is not finite",
        ]

    def test_outcomes_are_int8_and_float64(self):
        # NLM at the CLI's h^2 on a homography: some tiles pass and some fail
        config = ExperimentConfig(
            transform=Homography(PAPER_H), denoiser_kind="nlm", noise_variances=(0.02, 0.06)
        )
        clean = synthetic_texture("texture-b", 40).pixels
        images = np.stack([add_gaussian_noise(clean, v, i) for i, v in enumerate((0.02, 0.06))])
        jobs, outputs, valid, code, detail = pipeline._run_patches(images, config)
        assert (code.dtype, detail.dtype, code.shape) == (np.int8, np.float64, (len(jobs), 2))
        assert set(code.ravel().tolist()) == {OK, CERTIFICATION}
        assert detail.max() <= TAU_DS  # every Sinkhorn residual converged
        passing = int(np.flatnonzero((code == OK).any(axis=1))[0])
        joint, sequential, *chunk = run_chunk([jobs[passing]], images, config)
        assert [x.dtype for x in chunk] == [np.int8, np.float64]
        for x in (joint, sequential, *chunk, *outputs.values(), valid, code, detail):
            assert x.dtype != object


class TestNonFiniteOutput:
    @pytest.mark.parametrize("mode", ["joint", "sequential"])
    def test_tile_fails_as_solver_failure(self, mode, monkeypatch):
        def nan_solve(a, ty, psi):
            return np.full(ty.shape, np.nan)

        def nan_denoiser(*args):
            psi, code, detail = build_patch_denoiser(*args)
            return np.full(psi.shape, np.nan), code, detail

        img = add_gaussian_noise(synthetic_texture("texture-a", 24), 0.02, 1)
        config = ExperimentConfig(transform=Rotation(20.0), mode=mode)
        want = process_image(config, img)
        assert not want.tile_errors
        if mode == "joint":
            monkeypatch.setattr(jointsolver, "_solve", nan_solve)
        else:
            monkeypatch.setattr(pipeline, "build_patch_denoiser", nan_denoiser)
        out = process_image(config, img)
        assert len(out.tile_errors) == out.tile_count
        assert all(err.endswith("tile output is not finite") for err in out.tile_errors)
        assert not out.validity.any()


class TestNoSpectrumOnTilePath:
    def test_eigh_not_called(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called on the tile path")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        img = add_gaussian_noise(synthetic_texture("texture-a", 30), 0.02, 1)
        config = ExperimentConfig(transform=Rotation(20.0), denoiser_kind="bilateral")
        out = process_image(replace(config, mode="joint"), img)
        assert not out.tile_errors and out.validity.any()
        _, csv_text = run_experiment(replace(config, denoiser_kind="gaussian"), img, "t")
        assert csv_text.count(",0\n") == 2  # both modes, no failed tiles


class TestArrayImageChecked:
    """An array image is checked by `ImageBuffer.from_array` before memory is."""

    @staticmethod
    def bad_image(bad):
        pixels = synthetic_texture("texture-a", 32).pixels.copy()
        if bad == "nan-pixel":
            pixels[5, 5] = np.nan
            return pixels
        return np.stack([pixels] * 3)

    @pytest.mark.parametrize("run", [process_image, run_experiment])
    @pytest.mark.parametrize(
        "bad, message",
        [("nan-pixel", "image contains non-finite pixels"), ("stack", "expected a 2-D image")],
        ids=["nan-pixel", "stack"],
    )
    def test_refused_first(self, run, bad, message, monkeypatch):
        # past the edge, a NaN pixel turns its tiles' kernels NaN, which
        # run Sinkhorn to its iteration cap, and a stack of images fails
        # inside tiling with numpy's unpacking error
        def memory_checked(*args):
            raise AssertionError("memory checked before the image")

        monkeypatch.setattr(pipeline, "require_memory", memory_checked)
        config = ExperimentConfig(transform=Rotation(20.0), mode="joint")
        with pytest.raises(ValueError, match=f"^{message}"):
            run(config, self.bad_image(bad))


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            identity_config(noise_variances=(0.0,))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                identity_config(noise_variances=(0.02, bad))
        with pytest.raises(ValueError):
            identity_config(patch_size=1)
        with pytest.raises(ValueError):
            identity_config(mode="all")
        with pytest.raises(ValueError):
            identity_config(method="lu")
        with pytest.raises(ValueError, match="unknown denoiser kind 'bilat'"):
            identity_config(denoiser_kind="bilat")
        for field, bad in (
            ("patch_size", 10.0),
            ("patch_size", True),
            ("workers", 2.0),
            ("workers", np.float64(1.0)),
            ("seed", 1.5),
            ("seed", False),
        ):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                identity_config(**{field: bad})

    def test_numpy_integers_stored_as_int(self):
        config = identity_config(
            patch_size=np.uint16(10), workers=np.int8(2), seed=np.int64(7)
        )
        assert (config.patch_size, config.workers, config.seed) == (10, 2, 7)
        assert all(type(v) is int for v in (config.patch_size, config.workers, config.seed))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            identity_config(seed=-1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            identity_config(workers=workers)

    def test_workers_above_four_per_cpu_rejected(self):
        # four per CPU this process may run on
        cap = pipeline.max_workers()
        assert cap >= 4 and cap % 4 == 0
        assert identity_config(workers=cap).workers == cap
        with pytest.raises(ValueError, match=f"workers must be from 1 to {cap}, got {cap + 1}"):
            identity_config(workers=cap + 1)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="noise variance"):
            identity_config(noise_variances=())

    def test_modes_property(self):
        assert identity_config(mode="both").modes == ("joint", "sequential")
        assert identity_config(mode="joint").modes == ("joint",)


@pytest.fixture
def first_child_tile(monkeypatch):
    """Set what a forked child does on the first tile it draws.

    ``first_child_tile(in_child, in_caller=None)`` patches `run_chunk`: a
    child reports its first chunk of tiles on a pipe, then calls
    ``in_child``; the caller's first chunk waits up to 30 s for a child's
    report, then calls ``in_caller``.  With two workers and at least two
    chunks, the caller holds one chunk while it waits, so the child draws
    one: each test runs the same way whichever process draws which chunk.
    """
    caller = os.getpid()
    reports, report = os.pipe()

    def install(in_child, in_caller=None):
        first = []

        def patched(*args):
            if not first:
                first.append(True)
                if os.getpid() != caller:
                    os.write(report, b"x")
                    in_child()
                else:
                    assert select.select([reports], [], [], 30.0)[0], "no child drew a tile"
                    if in_caller is not None:
                        in_caller()
            return run_chunk(*args)

        monkeypatch.setattr(pipeline, "run_chunk", patched)

    yield install
    os.close(reports)
    os.close(report)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    IMAGE = add_gaussian_noise(synthetic_texture("texture-a", 30), 0.02, 1)
    CONFIG = ExperimentConfig(
        transform=Rotation(20.0), noise_variances=(0.02, 0.06), seed=2, workers=2
    )

    def test_killed_child_fails_the_run(self, first_child_tile):
        first_child_tile(lambda: os.kill(os.getpid(), signal.SIGKILL))
        start = time.monotonic()
        with pytest.raises(WorkerError, match=r"ended without a result \(killed by signal 9\)"):
            process_image(replace(self.CONFIG, mode="joint"), self.IMAGE)
        assert time.monotonic() - start < 20.0
        assert_no_children()

    def test_child_exception_carries_its_traceback(self, first_child_tile):
        def boom():
            raise ValueError("boom in a child")

        first_child_tile(boom)
        with pytest.raises(WorkerError, match="raised ValueError: boom in a child") as info:
            run_experiment(self.CONFIG, self.IMAGE, "tex")
        assert info.value.status == 0
        assert "Traceback" in info.value.traceback
        assert "in boom" in info.value.traceback
        assert_no_children()

    def test_caller_exception_kills_and_reaps_children(self, first_child_tile):
        def boom():
            raise RuntimeError("boom in the caller")

        first_child_tile(lambda: time.sleep(60.0), boom)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="boom in the caller"):
            process_image(replace(self.CONFIG, mode="sequential"), self.IMAGE)
        assert time.monotonic() - start < 20.0
        assert_no_children()

    def test_any_worker_count_writes_the_serial_bytes(self):
        tiles = len(tile_image(self.IMAGE.pixels.shape, self.CONFIG.transform, 10))
        serial = replace(self.CONFIG, workers=1)
        csv = run_experiment(serial, self.IMAGE, "tex")[1]
        modes = ("joint", "sequential")
        images = {mode: process_image(replace(serial, mode=mode), self.IMAGE) for mode in modes}
        # more workers than tiles where the cap allows it
        for workers in (2, 3, min(tiles + 2, pipeline.max_workers())):
            config = replace(self.CONFIG, workers=workers)
            assert run_experiment(config, self.IMAGE, "tex")[1] == csv
            for mode, want in images.items():
                got = process_image(replace(config, mode=mode), self.IMAGE)
                assert got.pixels.tobytes() == want.pixels.tobytes()
                assert got.validity.tobytes() == want.validity.tobytes()
                assert got.tile_errors == want.tile_errors
        assert_no_children()

    @pytest.mark.parametrize("records", [2, 4])
    def test_runs_of_tiles_write_the_serial_bytes(self, monkeypatch, records):
        # fewer records than tiles: each record names a run of consecutive tiles
        csv = run_experiment(replace(self.CONFIG, workers=1), self.IMAGE, "tex")[1]
        monkeypatch.setattr(pipeline, "_MAX_RECORDS", records)
        for workers in (2, 3):
            config = replace(self.CONFIG, workers=workers)
            assert run_experiment(config, self.IMAGE, "tex")[1] == csv
        assert_no_children()

"""The benchmark's three workloads at seed 1 reproduce `bench/ref` byte for byte.

The benchmark itself accepts PSNR within 1e-5 dB and pixels within one gray
level; these tests hold the program to exact identity instead, so that a
change to the summation order of any stage shows.  The configurations are
rebuilt here from `bench/worker.py`'s description of the workloads; the
files under `bench/` are only read.  CI runs this file with the default
BLAS threads and again with one BLAS thread.
"""

from pathlib import Path

from mixedgraph import cli
from mixedgraph.denoisers import KernelParams
from mixedgraph.interpolators import Homography, Rotation
from mixedgraph.jointsolver import SolverWeights
from mixedgraph.pipeline import (
    ExperimentConfig,
    add_gaussian_noise,
    run_experiment,
    save_pgm,
    synthetic_texture,
)

REF = Path(__file__).resolve().parent.parent / "bench" / "ref"
SEED = 1
PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_sweep_rot_bilateral_csv():
    config = ExperimentConfig(
        transform=Rotation(20.0),
        denoiser_kind="bilateral",
        noise_variances=(0.02, 0.04, 0.06, 0.08, 0.10),
        seed=SEED,
        method="direct",
        mode="both",
        workers=1,
    )
    image = synthetic_texture("texture-a", 64)
    _, csv_text = run_experiment(config, image, image_name="texture-a")
    assert csv_text.encode() == (REF / "sweep-rot-bilateral.csv").read_bytes()


def test_sweep_warp_nlm_pool_csv():
    config = ExperimentConfig(
        transform=Homography(PAPER_H),
        denoiser_kind="nlm",
        kernel_params=KernelParams(nlm_h2=0.05),
        weights=SolverWeights(mu=0.3, gamma=0.6, kappa=0.2),
        noise_variances=(0.08, 0.125),
        seed=SEED,
        mode="both",
        workers=2,
    )
    image = synthetic_texture("texture-b", 128)
    _, csv_text = run_experiment(config, image, image_name="texture-b")
    assert csv_text.encode() == (REF / "sweep-warp-nlm-pool.csv").read_bytes()


def test_restore_rot_joint_pgm(tmp_path):
    noisy = add_gaussian_noise(synthetic_texture("texture-a", 64), 0.02, SEED)
    save_pgm(noisy, tmp_path / "noisy.pgm")
    out = tmp_path / "joint.pgm"
    argv = [
        "joint",
        "--image", str(tmp_path / "noisy.pgm"),
        "--transform", "rotation",
        "--angle", "20",
        "--denoiser", "bilateral",
        "--out-image", str(out),
    ]  # fmt: skip
    assert cli.main(argv) == 0
    assert out.read_bytes() == (REF / "restore-rot-joint.pgm").read_bytes()

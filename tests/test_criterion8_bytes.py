"""Criterion 8's four 512 px configurations write pinned CSV bytes at two workers.

The configurations are copied from `tests/test_acceptance.py`'s
criterion 8, with ``workers=2``; a worker count never changes an output
byte, so the digests are those of the serial run too.  Each CSV is pinned
by its full sha256, so that a change to the summation order of any stage,
or to the synthetic textures, shows.
"""

import hashlib

import pytest

from mixedgraph.denoisers import KernelParams
from mixedgraph.interpolators import Homography, Rotation
from mixedgraph.jointsolver import SolverWeights
from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
STANDARD = SolverWeights(mu=0.3, gamma=0.5, kappa=0.3)
NLM_WEIGHTS = SolverWeights(mu=0.3, gamma=0.6, kappa=0.2)

CONFIGS = {
    "rotation+bilateral": (
        "texture-a",
        ExperimentConfig(
            transform=Rotation(20.0),
            denoiser_kind="bilateral",
            weights=STANDARD,
            noise_variances=(0.02, 0.04, 0.06, 0.08, 0.10),
            seed=21,
            method="direct",
            workers=2,
        ),
        "ca47256f4bce4c14464d4b28ba868f0974e22b128c1eb31c67320a17311ee5a3",
    ),
    "rotation+nlm": (
        "texture-a",
        ExperimentConfig(
            transform=Rotation(20.0),
            denoiser_kind="nlm",
            kernel_params=KernelParams(nlm_h2=0.05),
            weights=NLM_WEIGHTS,
            noise_variances=(0.08, 0.125),
            seed=22,
            method="direct",
            workers=2,
        ),
        "17eb1dbb07fccec039b0e8f1ca500c0f7f82c2740ad1d811439b78e7f2ad46f6",
    ),
    "warp+bilateral": (
        "texture-b",
        ExperimentConfig(
            transform=Homography(PAPER_H),
            denoiser_kind="bilateral",
            weights=STANDARD,
            noise_variances=(0.02, 0.06),
            seed=23,
            method="direct",
            workers=2,
        ),
        "b3d69636460c8cbd483d7892089942494f7cf70ddc8cbbf8cff8ca65dc6d199b",
    ),
    "warp+gaussian": (
        "texture-b",
        ExperimentConfig(
            transform=Homography(PAPER_H),
            denoiser_kind="gaussian",
            weights=STANDARD,
            noise_variances=(0.02, 0.06),
            seed=24,
            method="direct",
            workers=2,
        ),
        "fffb6bbc88b703382ef9417436c27c69c403611fae8fa11a7168ea0060cd758f",
    ),
}


@pytest.mark.parametrize("label", CONFIGS)
def test_csv_sha256(label):
    texture, config, digest = CONFIGS[label]
    csv_text = run_experiment(config, synthetic_texture(texture, 512), texture)[1]
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == digest

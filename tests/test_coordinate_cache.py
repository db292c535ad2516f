"""The per-run cache of the kernels' coordinate-only work.

`_run_patches` gives its tiles one cache, keyed by each tile's offset
pattern (its target coordinates minus their minimum).  A tile served from
the cache must get the kernel, the denoiser, the errors and the outputs
that its own uncached build gives, bit for bit, and the cache must not
outlive the call that made it.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedgraph
from mixedgraph import denoisers
from mixedgraph.denoisers import KernelParams
from mixedgraph.interpolators import Homography, Rotation, tile_image
from mixedgraph.pipeline import (
    ExperimentConfig,
    add_gaussian_noise,
    build_patch_denoiser,
    run_experiment,
    run_patch,
    synthetic_texture,
)

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))
SIZE = 32


def noisy_stack(seed, variances):
    clean = np.random.default_rng(seed).uniform(0.0, 1.0, (SIZE, SIZE))
    return np.stack([add_gaussian_noise(clean, v, seed ^ i) for i, v in enumerate(variances)])


def has_hole(coords):
    """Whether the coordinates leave a cell of their bounding box empty."""
    span = coords.max(axis=0) - coords.min(axis=0) + 1
    return len(coords) < span[0] * span[1]


def outcome(res):
    as_bytes = [None if a is None else np.asarray(a).tobytes() for a in (res.joint, res.sequential)]
    return res.error, *as_bytes


def check_cached_equals_uncached(jobs, images, config):
    """Run the tiles in order on one cache, as `_run_patches` does, and
    compare every tile with its uncached build.  Returns the cache."""
    kind, params = config.denoiser_kind, config.kernel_params
    cache = {}
    for job in jobs:
        op = job.operator
        y = images[:, op.source_coords[:, 0], op.source_coords[:, 1]]
        ty = np.matmul(op.real_matrix, y[..., None])[..., 0]
        got_psi, got_errors = build_patch_denoiser([op], ty[None], config, cache)
        want_psi, want_errors = build_patch_denoiser([op], ty[None], config)
        np.testing.assert_array_equal(got_psi, want_psi, strict=True)
        assert [repr(e) for e in got_errors] == [repr(e) for e in want_errors]
        if kind not in denoisers.SIGNAL_FREE:
            # the raw kernel from the pattern's cached factor
            tc, clipped = op.target_coords, np.clip(ty, 0.0, 1.0)
            factor, _ = cache[pattern_key(tc)]
            got = denoisers.build_denoiser(kind, tc, clipped, params, factor)
            want = denoisers.build_denoiser(kind, tc, clipped, params)
            np.testing.assert_array_equal(got, want, strict=True)
        got = [outcome(res) for res in run_patch(job, images, config, cache)]
        assert got == [outcome(res) for res in run_patch(job, images, config)]
    return cache


def pattern_key(coords):
    return (coords - coords.min(axis=0)).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    transform=st.one_of(
        st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
        st.sampled_from([Homography(PAPER_H), MAGNIFY_4X]),
    ),
    patch_size=st.sampled_from([6, 7, 10]),
    kind=st.sampled_from(["gaussian", "bilateral", "nlm", "identity"]),
    spatial_var=st.sampled_from([0.3, 2.0]),
    nlm_h2=st.sampled_from([0.05, 0.3]),
    variances=st.lists(st.floats(0.001, 0.2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_cached_tiles_match_uncached_build(
    transform, patch_size, kind, spatial_var, nlm_h2, variances, seed
):
    # tile_image's tiles include the image's edge tiles and, for rotations
    # and the homography, tiles cut by the source boundary (holes)
    config = ExperimentConfig(
        transform=transform,
        denoiser_kind=kind,
        kernel_params=KernelParams(spatial_var=spatial_var, nlm_h2=nlm_h2),
        noise_variances=tuple(variances),
        patch_size=patch_size,
    )
    jobs = tile_image((SIZE, SIZE), transform, patch_size)
    cache = check_cached_equals_uncached(jobs, noisy_stack(seed, variances), config)
    assert len(cache) == len({pattern_key(job.operator.target_coords) for job in jobs})


def test_nlm_hole_tiles_share_patterns():
    # the property test's cases exist: NLM tiles with holes, several tiles
    # per pattern, and tiles that are served from the cache
    transform = Rotation(30.0)
    config = ExperimentConfig(
        transform=transform,
        denoiser_kind="nlm",
        kernel_params=KernelParams(nlm_h2=0.05),
        noise_variances=(0.02, 0.1),
    )
    jobs = tile_image((SIZE, SIZE), transform, 10)
    assert any(has_hole(job.operator.target_coords) for job in jobs)
    cache = check_cached_equals_uncached(jobs, noisy_stack(5, (0.02, 0.1)), config)
    assert len(cache) < len(jobs)


def test_pool_writes_the_serial_gaussian_csv():
    # each forked child fills its own cache
    config = ExperimentConfig(
        transform=Homography(PAPER_H),
        denoiser_kind="gaussian",
        noise_variances=(0.02, 0.06),
        seed=4,
    )
    img = synthetic_texture("texture-b", 40)
    _, serial = run_experiment(config, img, "texture-b")
    _, pooled = run_experiment(replace(config, workers=2), img, "texture-b")
    assert pooled == serial


FRESH_RUN = """
import json, sys
from mixedgraph.denoisers import KernelParams
from mixedgraph.interpolators import Rotation
from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture
kind, spatial_var = json.loads(sys.argv[1])
config = ExperimentConfig(
    transform=Rotation(20.0), denoiser_kind=kind,
    kernel_params=KernelParams(spatial_var=spatial_var), noise_variances=(0.02, 0.06),
)
print(run_experiment(config, synthetic_texture("texture-a", 36), "texture-a")[1], end="")
"""


def test_no_cache_outlives_its_run():
    # two runs in this process, with the same tiles but other kernel
    # parameters, each write what a new interpreter writes for them alone
    runs = [("gaussian", 0.3), ("gaussian", 2.0), ("bilateral", 0.3), ("bilateral", 2.0)]
    env = dict(os.environ, PYTHONPATH=str(Path(mixedgraph.__file__).parent.parent))
    fresh = [
        subprocess.Popen(
            [sys.executable, "-c", FRESH_RUN, json.dumps(run)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for run in runs
    ]
    img = synthetic_texture("texture-a", 36)
    here = []
    for kind, spatial_var in runs:
        config = ExperimentConfig(
            transform=Rotation(20.0),
            denoiser_kind=kind,
            kernel_params=KernelParams(spatial_var=spatial_var),
            noise_variances=(0.02, 0.06),
        )
        here.append(run_experiment(config, img, "texture-a")[1])
    want = [proc.communicate()[0] for proc in fresh]
    assert all(proc.returncode == 0 for proc in fresh)
    assert here == want
    assert len(set(here)) == len(runs)

"""Whole stitched images against the paper's system, tile by tile.

`_run_patches` tiles an image stack, groups the tiles into chunks of one
offset pattern, solves each chunk as one stack with its pattern's
coordinate-only work, possibly in forked workers, and scatters each chunk's
(tile, image) grid into the stitched stacks.  Here every stitched pixel is
held to a tile-by-tile oracle that shares none of that machinery: the
tile's dense rows rebuilt from its taps, its denoiser rebuilt by the
public, checked kernel constructors and `sinkhorn_balance`, and the
m x m footprint system of the paper's non-separable MAP problem.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedgraph import pipeline
from mixedgraph.denoisers import (
    KINDS,
    KernelParams,
    bilateral_matrix,
    gaussian_matrix,
    nlm_matrix,
    sinkhorn_balance,
)
from mixedgraph.errors import BalanceError
from mixedgraph.interpolators import Homography, Rotation
from mixedgraph.jointsolver import SolverWeights
from mixedgraph.pipeline import ExperimentConfig, add_gaussian_noise, synthetic_texture

from helpers import error_texts

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
VARIANCES = (0.001, 0.02, 0.05, 0.1, 0.2)
# NLM at the CLI's h^2 fails most tiles' certification, and a small h^2
# passes most; spatial_var 2 puts the Gaussian and bilateral filters of
# full tiles below the Schur bound's margin, so they take the Cholesky
# fallback
PARAMS = (
    KernelParams(),
    KernelParams(nlm_h2=0.05, range_var=0.03),
    KernelParams(spatial_var=2.0),
)


def dense_rows(op):
    """A tile's dense real rows theta_r (n, m), rebuilt from its taps."""
    theta = np.zeros((len(op.target_coords), len(op.source_coords)))
    for row, col, weight in zip(op.tap_row, op.tap_col, op.tap_weight):
        theta[row, col] += weight
    return theta


def denoiser(kind, coords, interpolated, params):
    """``(psi, error)`` of one tile on one signal, built by the public constructors.

    psi is the balanced and certified filter, or None with the text of the
    check that failed it.
    """
    signal = np.clip(interpolated, 0.0, 1.0)
    if kind == "identity":
        kernel = np.eye(len(coords))
    elif kind == "gaussian":
        kernel = gaussian_matrix(coords, params)
    elif kind == "bilateral":
        kernel = bilateral_matrix(coords, signal, params)
    else:
        kernel = nlm_matrix(coords, signal, params)
    try:
        psi = sinkhorn_balance(kernel, kind=kind)
    except BalanceError as exc:
        return None, str(exc)
    if not psi.certified:
        return None, f"{kind} denoiser failed certification on patch"
    return psi.matrix, None


def footprint_solve(theta, y, psi, c):
    """The paper's real outputs z = theta_r w, with (I_m + c theta_r^T G theta_r) w = y.

    G = inv(psi) - I is the denoiser's Laplacian over mu.
    """
    n, m = theta.shape
    g = np.linalg.inv(psi) - np.eye(n)
    return theta @ np.linalg.solve(np.eye(m) + c * theta.T @ g @ theta, y)


def close(got, want, rtol):
    """Every entry of ``got`` within ``rtol`` of ``want``'s, or of its largest entry."""
    scale = np.abs(want).max(initial=0.0)
    return np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), scale))


@settings(max_examples=12, deadline=None, derandomize=True)
# chunks of two tiles at V = 5 in two processes, which mix certified and
# failed NLM filters at every variance but the first; chunks of three
# tiles at V = 3, certified by the Cholesky fallback; a signal-free kind
@example(40, "uniform", Rotation(30.0), 10, "nlm", 5, 0.3, PARAMS[0], 2, 3)
@example(40, "texture-a", Rotation(20.0), 10, "bilateral", 3, 0.3, PARAMS[2], 2, 5)
@example(40, "texture-b", Homography(PAPER_H), 7, "gaussian", 5, 1.0, PARAMS[0], 1, 7)
@given(
    size=st.integers(12, 40),
    content=st.sampled_from(["texture-a", "texture-b", "uniform"]),
    transform=st.one_of(
        st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
        st.just(Homography(PAPER_H)),
    ),
    patch=st.integers(3, 12),
    kind=st.sampled_from(KINDS),
    signals=st.integers(1, 5),
    kappa=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    params=st.sampled_from(PARAMS),
    workers=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
def test_stitched_pixels_solve_each_tile_system(
    size, content, transform, patch, kind, signals, kappa, params, workers, seed
):
    if content == "uniform":
        clean = np.random.default_rng(seed).uniform(0.0, 1.0, (size, size))
    else:
        clean = synthetic_texture(content, size).pixels
    variances = VARIANCES[:signals]
    images = np.stack([add_gaussian_noise(clean, v, seed ^ i) for i, v in enumerate(variances)])
    weights = SolverWeights(kappa=kappa)
    config = ExperimentConfig(
        transform=transform,
        denoiser_kind=kind,
        kernel_params=params,
        weights=weights,
        noise_variances=variances,
        patch_size=patch,
        workers=workers,
    )
    jobs, outputs, valid, code, detail = pipeline._run_patches(images, config)
    errors = error_texts(code, detail, kind)
    reference, mask = pipeline.build_reference(jobs, clean, clean.shape)

    covered = np.zeros(clean.shape, dtype=bool)
    for t, job in enumerate(jobs):
        op = job.operator
        theta = dense_rows(op)
        rows, cols = op.source_coords.T
        at = tuple(op.target_coords.T)
        covered[at] = True
        assert mask[at].all()
        assert close(reference[at], theta @ clean[rows, cols], 1e-12)
        joint, sequential, ok = (
            x[:, at[0], at[1]] for x in (outputs["joint"], outputs["sequential"], valid)
        )
        for s, image in enumerate(images):
            y = image[rows, cols]
            psi, error = denoiser(kind, op.target_coords, theta @ y, params)
            assert errors[t][s] == error, (job.origin, s)
            if psi is None:
                assert not ok[s].any()
                assert not joint[s].any() and not sequential[s].any()
                continue
            assert ok[s].all()
            assert close(sequential[s], psi @ (theta @ y), 1e-12), (job.origin, s)
            assert close(joint[s], footprint_solve(theta, y, psi, weights.c), 1e-9), (job.origin, s)
    # a pixel no tile targets is 0 and invalid, in the stacks and the reference
    assert not valid[:, ~covered].any() and not mask[~covered].any()
    for stack in (outputs["joint"], outputs["sequential"], reference[None]):
        assert not stack[:, ~covered].any()

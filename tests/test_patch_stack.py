"""`run_patch` on a stack of V noisy images against a per-image reference.

The reference below is the single-image tile path written out directly:
each image gets its own kernel, Sinkhorn loop, certification and solve.
The stacked path must give every image the same bits and the same error
text, including in stacks where some images fail and the others succeed.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgraph import denoisers
from mixedgraph.denoisers import SINKHORN_STOP, KernelParams, fill_holes_nearest
from mixedgraph.errors import BalanceError, PatchGeometryError, PreconditionError
from mixedgraph.graphcore import NONEXPANSIVE_SLACK, PD_EIG_MIN
from mixedgraph.interpolators import Homography, Rotation, build_patch_operator
from mixedgraph.pipeline import ExperimentConfig, run_patch

from helpers import SIZE, noisy_stack, outcomes

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))


def sq_dist(f):
    diff = f[:, None, :] - f[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def ref_kernel(kind, coords, y, params):
    c = np.asarray(coords, dtype=float)
    spatial = np.exp(-sq_dist(c) / (2.0 * params.spatial_var))
    if kind == "gaussian":
        return spatial
    if kind == "bilateral":
        dy = y[:, None] - y[None, :]
        return spatial * np.exp(-(dy * dy) / (2.0 * params.range_var))
    # NLM: hole-filled, replicate-padded grid of this one signal
    ci = np.rint(c).astype(int)
    pr, k = params.nlm_patch_size // 2, params.nlm_patch_size
    rows, cols = ci[:, 0] - ci[:, 0].min(), ci[:, 1] - ci[:, 1].min()
    grid = np.zeros((rows.max() + 1, cols.max() + 1))
    valid = np.zeros(grid.shape, dtype=bool)
    grid[rows, cols] = y
    valid[rows, cols] = True
    padded = np.pad(fill_holes_nearest(grid, valid), pr, mode="edge")
    dr, dc = divmod(np.arange(k * k), k)
    weights = np.exp(-sq_dist(padded[rows[:, None] + dr, cols[:, None] + dc]) / params.nlm_h2)
    cheb = np.abs(ci[:, None, :] - ci[None, :, :]).max(axis=2)
    weights[cheb > params.nlm_search_window // 2] = 0.0
    return 0.5 * (weights + weights.T)


def ref_balance(w, max_iter, tol=1e-8):
    d = np.ones(len(w))
    residual = np.inf
    for _ in range(max_iter):
        wd = w @ d
        prev = residual
        residual = np.abs(d * wd - 1.0).max()
        if residual <= SINKHORN_STOP or (residual <= tol and residual > 0.5 * prev):
            break
        d = np.sqrt(d / wd)
    else:
        residual = np.abs(d * (w @ d) - 1.0).max()
    if residual > tol:
        raise BalanceError(f"Sinkhorn balancing did not converge (residual {residual:.3e})")
    return w * (d[:, None] * d[None, :])


def factors(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def ref_certified(psi):
    bound = 1.0 + NONEXPANSIVE_SLACK
    eye = np.eye(len(psi))
    pd = factors(psi - PD_EIG_MIN * eye)
    nonexpansive = np.abs(psi).sum(axis=1).max() <= bound or (
        factors(bound * eye - psi) and (pd or factors(bound * eye + psi))
    )
    return pd and nonexpansive


def ref_run_patch(job, pixels, config, max_iter):
    """(failed, error, joint bytes, sequential bytes) of one tile on one image."""
    op = job.operator
    theta = op.real_matrix
    y = pixels[op.source_coords[:, 0], op.source_coords[:, 1]]
    ty = theta @ y
    try:
        kernel = ref_kernel(
            config.denoiser_kind, op.target_coords, np.clip(ty, 0.0, 1.0), config.kernel_params
        )
        psi = ref_balance(kernel, max_iter)
        if not ref_certified(psi):
            raise PreconditionError(f"{config.denoiser_kind} denoiser failed certification on patch")
    except (BalanceError, PreconditionError) as exc:
        return True, str(exc), None, None
    w = config.weights
    c = w.kappa * (1.0 + w.gamma) / (w.gamma * w.mu)
    p = theta @ theta.T
    v = np.linalg.solve(psi + c * (p - p @ psi), theta @ y)
    return False, None, (psi @ v).tobytes(), (psi @ ty).tobytes()


def failed_and_outcome(job, images, config):
    """(failed, error, joint bytes, sequential bytes) of `run_patch` on each image."""
    (per_image,) = outcomes([run_patch(job, images, config)], config.denoiser_kind)
    return [(error is not None, error, *arrays) for error, *arrays in per_image]


def stacked_outcomes(job, images, config, max_iter):
    scale = functools.partial(denoisers.sinkhorn_scale, max_iter=max_iter)
    with mock.patch.object(denoisers, "sinkhorn_scale", scale):
        return failed_and_outcome(job, images, config)


def check_against_reference(job, images, config, max_iter):
    got = stacked_outcomes(job, images, config, max_iter)
    want = [ref_run_patch(job, pixels, config, max_iter) for pixels in images]
    assert got == want
    return [error for _, error, *_ in got]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    transform=st.one_of(
        st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
        st.sampled_from([Homography(PAPER_H), MAGNIFY_4X]),
    ),
    origin=st.tuples(st.integers(0, 22), st.integers(0, 22)),
    kind=st.sampled_from(["gaussian", "bilateral", "nlm"]),
    range_var=st.sampled_from([0.03, 0.3]),
    nlm_h2=st.sampled_from([0.05, 0.3]),
    variances=st.lists(st.floats(0.001, 0.2), min_size=1, max_size=5),
    max_iter=st.sampled_from([1000, 12, 13, 14]),
    seed=st.integers(0, 2**16),
)
def test_stack_matches_per_image_reference(
    transform, origin, kind, range_var, nlm_h2, variances, max_iter, seed
):
    try:
        job = build_patch_operator(transform, origin, (10, 10), (SIZE, SIZE))
    except PatchGeometryError:
        assume(False)  # tile out of bounds
    config = ExperimentConfig(
        transform=transform,
        denoiser_kind=kind,
        kernel_params=KernelParams(range_var=range_var, nlm_h2=nlm_h2),
        noise_variances=tuple(variances),
    )
    check_against_reference(job, noisy_stack(seed, variances), config, max_iter)


VARIANCES = (0.001, 0.01, 0.05, 0.1, 0.2)


def test_some_images_fail_sinkhorn():
    job = build_patch_operator(Rotation(20.0), (10, 10), (10, 10), (SIZE, SIZE))
    config = ExperimentConfig(
        transform=Rotation(20.0),
        denoiser_kind="bilateral",
        kernel_params=KernelParams(range_var=0.03),
        noise_variances=VARIANCES,
    )
    errors = check_against_reference(job, noisy_stack(3, VARIANCES), config, max_iter=13)
    assert [e and e.split(" (")[0] for e in errors] == [
        "Sinkhorn balancing did not converge",
        "Sinkhorn balancing did not converge",
        None,
        None,
        None,
    ]


def test_some_images_fail_certification():
    job = build_patch_operator(Rotation(20.0), (0, 0), (10, 10), (SIZE, SIZE))
    config = ExperimentConfig(
        transform=Rotation(20.0), denoiser_kind="nlm", noise_variances=VARIANCES
    )
    errors = check_against_reference(job, noisy_stack(3, VARIANCES), config, max_iter=1000)
    cert = "nlm denoiser failed certification on patch"
    assert errors == [cert, cert, cert, None, cert]


def test_balance_and_certification_failures_in_one_stack():
    # Images 0 and 2 stop short of balance, so only 1, 3 and 4 are
    # certified; each flag must land on its own image.
    job = build_patch_operator(Rotation(20.0), (0, 0), (10, 10), (SIZE, SIZE))
    config = ExperimentConfig(
        transform=Rotation(20.0), denoiser_kind="nlm", noise_variances=VARIANCES
    )
    errors = check_against_reference(job, noisy_stack(3, VARIANCES), config, max_iter=26)
    kinds = [e and ("balance" if e.startswith("Sinkhorn") else "certification") for e in errors]
    assert kinds == ["balance", "certification", "balance", None, "certification"]


def test_singular_solve_fails_its_image_alone(monkeypatch):
    # The stacked solve raises, as it does when any system of the stack is
    # singular; then each image is solved alone and only the second fails.
    job = build_patch_operator(Rotation(20.0), (10, 10), (10, 10), (SIZE, SIZE))
    config = ExperimentConfig(
        transform=Rotation(20.0), denoiser_kind="bilateral", noise_variances=VARIANCES[:3]
    )
    images = noisy_stack(3, VARIANCES[:3])
    want = [ref_run_patch(job, pixels, config, 1000) for pixels in images]
    calls = []
    solve = np.linalg.solve

    def failing_solve(a, b):
        calls.append(np.shape(a))
        if len(calls) in (1, 3):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    got = failed_and_outcome(job, images, config)
    n = len(job.operator.target_coords)
    assert calls == [(1, 3, n, n)] + [(n, n)] * 3
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1] == (True, "reduced joint system is singular", None, None)

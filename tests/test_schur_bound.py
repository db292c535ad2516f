"""PD certification by the Schur bound, and its Cholesky fallback.

For the Gaussian and bilateral kinds on integer coordinates, the floor of
`denoisers.coordinate_work` is theta_4(0, q)^2, a lower bound on the
smallest eigenvalue of the spatial factor S, and lambda_min(psi) >= floor *
min_i psi_ii for every balanced psi (`graphcore.schur_bound`).  A filter
whose bound clears `SCHUR_MARGIN` is PD without a factorization; every
other filter, and every NLM filter, takes the Cholesky.  No verdict and no
output byte may differ from the Cholesky alone.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgraph import denoisers, graphcore
from mixedgraph.denoisers import KernelParams, coordinate_work
from mixedgraph.errors import PatchGeometryError
from mixedgraph.graphcore import PD_EIG_MIN, SCHUR_MARGIN, _is_pd, schur_bound
from mixedgraph.interpolators import Homography, Rotation, build_patch_operator, tile_image
from mixedgraph.pipeline import (
    ExperimentConfig,
    add_gaussian_noise,
    process_image,
    run_patch,
    synthetic_texture,
)

from helpers import SIZE, noisy_stack, outcomes

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
TRANSFORMS = st.one_of(
    st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
    st.just(Homography(PAPER_H)),
)
SPATIAL_VARS = st.floats(0.05, 5.0)


def spatial(coords, var):
    c = np.asarray(coords, dtype=float)
    diff = c[:, None, :] - c[None, :, :]
    return np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / (2.0 * var))


def jacobi_theta4(tau):
    """theta_4(0, e^-tau) by a Jacobi triple product.

    For tau >= 0.1 the product of theta_4, every factor in (0, 1].  For
    smaller tau q = e^-tau is near 1 and that product would need too many
    factors, so theta_4(0, q) = sqrt(pi / tau) theta_2(0, p) is used, with
    the dual nome p = exp(-pi^2 / tau) and theta_2(0, p) = 2 p^(1/4)
    prod_n (1 - p^(2n)) (1 + p^(2n))^2, in logarithms.
    """
    n = np.arange(1, 4000)
    if tau >= 0.1:
        q = math.exp(-tau)
        return float(np.prod((1.0 - q ** (2 * n)) * (1.0 - q ** (2 * n - 1)) ** 2))
    log_p = -math.pi**2 / tau
    p2n = np.exp(2.0 * log_p * n)
    log_theta2 = math.log(2.0) + 0.25 * log_p + np.sum(np.log1p(-p2n) + 2.0 * np.log1p(p2n))
    return math.exp(0.5 * (math.log(math.pi) - math.log(tau)) + log_theta2)


@st.composite
def integer_coords(draw):
    """Subsets, with holes, of a 14 x 14 box, or the pixels of a tile."""
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=196, max_size=196)))
        assume(mask.any())
        return np.argwhere(mask.reshape(14, 14)) + draw(st.integers(-50, 50))
    jobs = tile_image((SIZE, SIZE), draw(TRANSFORMS), draw(st.sampled_from([6, 10, 14])))
    return draw(st.sampled_from(jobs)).operator.target_coords


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coords=integer_coords(), var=st.one_of(SPATIAL_VARS, st.floats(4.0, 1e300)))
def test_floor_bounds_the_spatial_factor(coords, var):
    floor = coordinate_work("gaussian", coords, KernelParams(spatial_var=var))[1]
    assert floor == coordinate_work("bilateral", coords, KernelParams(spatial_var=var))[1]
    assert floor <= np.linalg.eigvalsh(spatial(coords, var)).min() + 1e-12


# above 4 Jacobi's transformation; at 1e12 q is 1 - 5e-13, at 1e300 it rounds to 1
@pytest.mark.parametrize("var", [0.05, 0.3, 1.0, 2.0, 4.0, 4.5, 10.0, 1e12, 1e300])
def test_theta4_series_is_a_tight_lower_bound(var):
    tau = 0.5 / var
    got, want = denoisers._theta4(tau), jacobi_theta4(tau)
    assert got <= want * (1.0 + 1e-12)
    assert got == pytest.approx(want, rel=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    transform=TRANSFORMS,
    origin=st.tuples(st.integers(0, 22), st.integers(0, 22)),
    kind=st.sampled_from(["gaussian", "bilateral"]),
    spatial_var=SPATIAL_VARS,
    range_var=st.sampled_from([0.03, 0.3]),
    variances=st.lists(st.floats(0.001, 0.2), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_schur_bound_bounds_each_filter(
    transform, origin, kind, spatial_var, range_var, variances, seed
):
    try:
        op = build_patch_operator(transform, origin, (10, 10), (SIZE, SIZE)).operator
    except PatchGeometryError:
        assume(False)  # tile out of bounds
    params = KernelParams(spatial_var=spatial_var, range_var=range_var)
    images = noisy_stack(seed, variances)
    y = images[:, op.source_coords[:, 0], op.source_coords[:, 1]]
    signals = np.clip(np.matmul(op.real_matrix, y[..., None])[..., 0], 0.0, 1.0)
    kernel = denoisers.build_denoiser(kind, op.target_coords, signals, params)
    kernels = np.broadcast_to(kernel, (len(signals),) + kernel.shape[-2:])
    psi, _ = denoisers.sinkhorn_scale(kernels)
    floor = coordinate_work(kind, op.target_coords, params)[1]
    bound = schur_bound(psi, floor)
    assert np.all(bound <= np.linalg.eigvalsh(psi)[:, 0] + 1e-12)
    clears = bound >= SCHUR_MARGIN
    assert _is_pd(psi[clears] - PD_EIG_MIN * np.eye(psi.shape[-1])).all()
    got, want = graphcore.certify_symmetric(psi, floor), graphcore.certify_symmetric(psi)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_floor_values():
    box = np.argwhere(np.ones((4, 4)))
    default = KernelParams()
    assert coordinate_work("identity", box + 0.5, default)[1] == 1.0
    assert coordinate_work("nlm", box, default)[1] is None
    assert coordinate_work("gaussian", box + 0.5, default)[1] is None
    assert coordinate_work("bilateral", box * 1.0 + 1e-12, default)[1] is None
    assert coordinate_work("bilateral", box, default)[1] == pytest.approx(0.3904, abs=1e-4)
    # at spatial_var 4 no filter can clear the margin: every one falls back
    assert coordinate_work("bilateral", box, KernelParams(spatial_var=4.0))[1] < 1e-15
    with pytest.raises(ValueError, match="duplicate"):
        coordinate_work("gaussian", np.zeros((2, 2)), default)
    with pytest.raises(ValueError, match="unknown denoiser kind"):
        coordinate_work("median", box, default)


def test_stack_with_some_filters_below_the_margin(monkeypatch):
    # a floor between the filters' bounds: the ones above are PD by the
    # bound, and only the others are factored
    op = build_patch_operator(Rotation(20.0), (10, 10), (10, 10), (SIZE, SIZE)).operator
    images = noisy_stack(3, (0.001, 0.05, 0.2, 0.02))
    y = images[:, op.source_coords[:, 0], op.source_coords[:, 1]]
    signals = np.clip(np.matmul(op.real_matrix, y[..., None])[..., 0], 0.0, 1.0)
    psi, _ = denoisers.sinkhorn_scale(
        denoisers.bilateral_matrix(op.target_coords, signals, KernelParams(range_var=0.03))
    )
    floors = np.diagonal(psi, axis1=1, axis2=2).min(axis=1)
    floor = SCHUR_MARGIN / np.median(floors)
    clears = schur_bound(psi, floor) >= SCHUR_MARGIN
    assert 0 < clears.sum() < len(psi)
    factored = []

    def is_pd(a):
        factored.append(len(a))
        return _is_pd(a)

    monkeypatch.setattr(graphcore, "_is_pd", is_pd)
    got = graphcore.certify_symmetric(psi, floor)
    assert factored == [len(psi) - clears.sum()]
    want = graphcore.certify_symmetric(psi)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


CERTIFY = graphcore.certify_symmetric


def cholesky_only(psi, eig_floor=None):
    return CERTIFY(psi)


def tile_outcomes(jobs, images, config):
    return outcomes((run_patch(job, images, config) for job in jobs), config.denoiser_kind)


@pytest.mark.parametrize("kind", ["gaussian", "bilateral"])
@pytest.mark.parametrize("spatial_var", [0.3, 4.0])
@pytest.mark.parametrize("transform", [Rotation(20.0), Homography(PAPER_H)])
def test_run_patch_matches_cholesky_only(kind, spatial_var, transform, monkeypatch):
    config = ExperimentConfig(
        transform=transform,
        denoiser_kind=kind,
        kernel_params=KernelParams(spatial_var=spatial_var, range_var=0.03),
        noise_variances=(0.001, 0.02, 0.1),
    )
    jobs = tile_image((SIZE, SIZE), transform, 10)
    images = noisy_stack(11, config.noise_variances)
    factored = []

    def is_pd(a):
        factored.append(len(a))
        return _is_pd(a)

    monkeypatch.setattr(graphcore, "_is_pd", is_pd)
    got = tile_outcomes(jobs, images, config)
    kernels = len(jobs) * (1 if kind in denoisers.SIGNAL_FREE else len(images))
    # every kernel factored at spatial_var 4, none at 0.3
    assert sum(factored) == (kernels if spatial_var == 4.0 else 0)
    monkeypatch.setattr(graphcore, "certify_symmetric", cholesky_only)
    assert got == tile_outcomes(jobs, images, config)


def test_nlm_never_consults_a_floor(monkeypatch):
    floors = []

    def certify(psi, eig_floor=None):
        floors.append(eig_floor)
        return CERTIFY(psi, eig_floor)

    monkeypatch.setattr(graphcore, "certify_symmetric", certify)
    monkeypatch.setattr(graphcore, "schur_bound", None)
    config = ExperimentConfig(
        transform=Homography(PAPER_H),
        denoiser_kind="nlm",
        kernel_params=KernelParams(nlm_h2=0.05),
        noise_variances=(0.08, 0.125),
    )
    tile_outcomes(
        tile_image((SIZE, SIZE), config.transform, 10), noisy_stack(2, (0.08, 0.125)), config
    )
    assert floors and set(floors) == {None}


def test_no_factorization_for_default_bilateral(monkeypatch):
    def is_pd(a):
        raise AssertionError("a Cholesky factorization on the tile path")

    monkeypatch.setattr(graphcore, "_is_pd", is_pd)
    img = add_gaussian_noise(synthetic_texture("texture-a", 30), 0.02, 1)
    for kind in ("bilateral", "gaussian", "identity"):
        config = ExperimentConfig(transform=Rotation(20.0), denoiser_kind=kind, mode="joint")
        out = process_image(config, img)
        assert not out.tile_errors and out.validity.any()

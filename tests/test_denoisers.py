from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mixedgraph import denoisers, graphcore
from mixedgraph.denoisers import (
    KINDS,
    SINKHORN_MAX_ITER,
    SINKHORN_STOP,
    KernelParams,
    _pairwise_sq_dist,
    bilateral_matrix,
    build_denoiser,
    coordinate_work,
    fill_holes_nearest,
    gaussian_matrix,
    identity_operator,
    nlm_matrix,
    sinkhorn_balance,
    sinkhorn_scale,
)
from mixedgraph.errors import BALANCE, BalanceError, outcome_text
from mixedgraph.graphcore import NONEXPANSIVE_SLACK, TAU_DS


def grid_coords(h, w):
    rr, cc = np.mgrid[0:h, 0:w]
    return np.column_stack([rr.ravel(), cc.ravel()])


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelParams(spatial_var=0.0)
        with pytest.raises(ValueError):
            KernelParams(nlm_patch_size=4)
        with pytest.raises(ValueError):
            KernelParams(nlm_patch_size=9, nlm_search_window=9)

    @pytest.mark.parametrize("field", ["spatial_var", "range_var", "nlm_h2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_variance_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            KernelParams(**{field: value})

    @pytest.mark.parametrize("size", [-1, -3])
    def test_negative_nlm_patch_rejected(self, size):
        with pytest.raises(ValueError, match="at least 1"):
            KernelParams(nlm_patch_size=size)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nlm_patch_size", 3.0),
            ("nlm_patch_size", True),
            ("nlm_search_window", 9.0),
            ("nlm_search_window", np.float64(9.0)),
            ("nlm_search_window", np.bool_(True)),
        ],
    )
    def test_non_integer_nlm_size_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            KernelParams(**{field: value})

    def test_numpy_integer_nlm_sizes_stored_as_int(self):
        params = KernelParams(nlm_patch_size=np.uint8(3), nlm_search_window=np.int64(9))
        assert type(params.nlm_patch_size) is int and type(params.nlm_search_window) is int
        assert params == KernelParams()


class TestGaussianMatrix:
    def test_single_pixel(self):
        np.testing.assert_allclose(gaussian_matrix([[0, 0]], KernelParams()), [[1.0]])

    def test_two_pixel_formula(self):
        m = gaussian_matrix([[0, 0], [0, 1]], KernelParams(spatial_var=0.3))
        assert m[0, 1] == pytest.approx(np.exp(-1.0 / 0.6), rel=1e-12)
        assert m[0, 0] == m[1, 1] == 1.0

    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError):
            gaussian_matrix([[0, 0], [0, 0]], KernelParams())

    def test_grid_kernel_symmetric_pd(self):
        m = gaussian_matrix(grid_coords(3, 3), KernelParams(spatial_var=0.3))
        np.testing.assert_allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() > 0.0


class TestBilateralMatrix:
    def test_constant_intensity_reduces_to_gaussian(self):
        coords = grid_coords(3, 3)
        params = KernelParams()
        m = bilateral_matrix(coords, np.full(9, 0.4), params)
        np.testing.assert_allclose(m, gaussian_matrix(coords, params), atol=1e-14)

    def test_two_pixel_formula(self):
        m = bilateral_matrix([[0, 0], [0, 1]], [0.0, 0.5], KernelParams())
        assert m[0, 1] == pytest.approx(np.exp(-1 / 0.6) * np.exp(-0.25 / 0.6), rel=1e-12)

    def test_random_patch_properties(self):
        rng = np.random.default_rng(1)
        coords = grid_coords(5, 5)
        m = bilateral_matrix(coords, rng.uniform(0, 1, 25), KernelParams())
        np.testing.assert_allclose(m, m.T)
        assert np.all(m > 0.0) and np.all(m <= 1.0)

    def test_out_of_range_intensities_rejected(self):
        with pytest.raises(ValueError):
            bilateral_matrix([[0, 0], [0, 1]], [0.0, 1.5], KernelParams())


def formula_spatial(coords, var):
    return np.exp(-_pairwise_sq_dist(coords) / (2.0 * var))


@st.composite
def integer_coords(draw):
    """Distinct integer coordinates in shuffled order: part of a box, maybe a
    few far points, all shifted by a large offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    box = np.argwhere(rng.random((h, w)) < draw(st.floats(0.2, 1.0)))
    far = rng.integers(-60, 60, (draw(st.integers(0, 2)), 2))
    cells = np.unique(np.vstack([box, far, [[0, 0]]]), axis=0)
    offset = rng.integers(-(10**7), 10**7, 2)
    return rng.permutation(cells + offset).astype(float)


def einsum_sq_dist(f):
    """Squared distances by one einsum over the coordinate axis."""
    diff = f[..., :, None, :] - f[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


class TestPairwiseSqDist:
    """The per-coordinate outer differences give the einsum's bits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coords=integer_coords())
    def test_integer_coordinates(self, coords):
        got = _pairwise_sq_dist(coords)
        assert got.tobytes() == einsum_sq_dist(coords).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        stack=st.sampled_from([(), (3,)]),
        scale=st.floats(-6.0, 6.0),
    )
    def test_float_coordinates(self, seed, n, stack, scale):
        f = np.random.default_rng(seed).normal(size=stack + (n, 2)) * 10.0**scale
        got = _pairwise_sq_dist(f)
        assert got.shape == stack + (n, n)
        assert got.tobytes() == einsum_sq_dist(f).tobytes()


class TestSpatialTable:
    """The Gaussian and bilateral kernels hold the spatial formula's bits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coords=integer_coords(), var=st.floats(0.05, 20.0))
    def test_gaussian_equals_formula(self, coords, var):
        got = gaussian_matrix(coords, KernelParams(spatial_var=var))
        np.testing.assert_array_equal(got, formula_spatial(coords, var))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        coords=integer_coords(),
        var=st.floats(0.05, 20.0),
        stack=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bilateral_equals_formula(self, coords, var, stack, seed):
        params = KernelParams(spatial_var=var, range_var=0.2)
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (stack, len(coords)))
        want = y[..., :, None] - y[..., None, :]
        want *= want
        want /= -2.0 * params.range_var
        np.exp(want, out=want)
        want *= formula_spatial(coords, var)
        np.testing.assert_array_equal(bilateral_matrix(coords, y, params), want)

    def test_fractional_coordinates_use_the_formula(self):
        coords = grid_coords(3, 4) + np.array([0.25, 0.5])
        got = gaussian_matrix(coords, KernelParams(spatial_var=0.7))
        np.testing.assert_array_equal(got, formula_spatial(coords, 0.7))


class TestNlmMatrix:
    def test_constant_image_within_window(self):
        coords = grid_coords(6, 6)
        m = nlm_matrix(coords, np.full(36, 0.3), KernelParams())
        cheb = np.maximum(
            np.abs(coords[:, 0][:, None] - coords[:, 0][None, :]),
            np.abs(coords[:, 1][:, None] - coords[:, 1][None, :]),
        )
        np.testing.assert_allclose(m[cheb <= 4], 1.0, atol=1e-12)

    def test_outside_window_is_zero(self):
        coords = grid_coords(1, 12)
        rng = np.random.default_rng(2)
        m = nlm_matrix(coords, rng.uniform(0, 1, 12), KernelParams())
        assert m[0, 11] == 0.0 and m[0, 4] > 0.0

    def test_random_patch_row_sums_positive_and_symmetric(self):
        rng = np.random.default_rng(3)
        coords = grid_coords(10, 10)
        # exactly symmetric with no averaging, one signal or a stack alike
        for y in (rng.uniform(0, 1, 100), rng.uniform(0, 1, (3, 100))):
            m = nlm_matrix(coords, y, KernelParams())
            np.testing.assert_array_equal(m, m.swapaxes(-1, -2))
            assert np.all(m.sum(axis=-1) > 0.0)


class TestFillHolesNearest:
    """`fill_holes_nearest` picks the cells that scipy's Euclidean distance transform picks."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        h=st.integers(1, 30),
        w=st.integers(1, 30),
        density=st.floats(0.0, 1.0),
        empty_lines=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy(self, h, w, density, empty_lines, seed):
        rng = np.random.default_rng(seed)
        valid = rng.random((h, w)) < density
        if empty_lines:
            valid[rng.random(h) < 0.5] = False
            valid[:, rng.random(w) < 0.5] = False
        if not valid.any():
            valid.flat[rng.integers(h * w)] = True
        grid = np.arange(h * w, dtype=float).reshape(h, w)
        _, (ri, ci) = ndimage.distance_transform_edt(~valid, return_indices=True)
        assert fill_holes_nearest(grid, valid).tobytes() == grid[ri, ci].tobytes()

    def test_one_valid_cell_fills_the_grid(self):
        grid = np.arange(35.0).reshape(7, 5)
        for cell in np.ndindex(grid.shape):
            valid = np.zeros(grid.shape, dtype=bool)
            valid[cell] = True
            np.testing.assert_array_equal(fill_holes_nearest(grid, valid), grid[cell])

    def test_full_grid_returned_as_is(self):
        grid = np.arange(6.0).reshape(2, 3)
        assert fill_holes_nearest(grid, np.ones(grid.shape, dtype=bool)) is grid

    def test_no_valid_cell_rejected(self):
        with pytest.raises(ValueError, match="no valid cells"):
            fill_holes_nearest(np.zeros((3, 4)), np.zeros((3, 4), dtype=bool))


def loop_nlm_matrix(coords, intensities, params):
    """`nlm_matrix` with the patch features gathered one pixel at a time."""
    ci = np.rint(np.asarray(coords, dtype=float)).astype(int)
    pr, k = params.nlm_patch_size // 2, params.nlm_patch_size
    rows, cols = ci[:, 0] - ci[:, 0].min(), ci[:, 1] - ci[:, 1].min()
    grid = np.zeros((rows.max() + 1, cols.max() + 1))
    valid = np.zeros(grid.shape, dtype=bool)
    grid[rows, cols] = intensities
    valid[rows, cols] = True
    padded = np.pad(fill_holes_nearest(grid, valid), pr, mode="edge")
    feats = np.empty((len(ci), k * k))
    for idx, (r, col) in enumerate(zip(rows, cols)):
        feats[idx] = padded[r : r + k, col : col + k].ravel()
    diff = feats[:, None, :] - feats[None, :, :]
    weights = np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / params.nlm_h2)
    cheb = np.abs(ci[:, None, :] - ci[None, :, :]).max(axis=2)
    weights[cheb > params.nlm_search_window // 2] = 0.0
    return 0.5 * (weights + weights.T)


class TestNlmPatchGather:
    @pytest.mark.parametrize("patch_size", [3, 5])
    def test_matches_per_pixel_loop_on_tile_with_holes(self, patch_size):
        rng = np.random.default_rng(4)
        coords = grid_coords(10, 10) + [3, 7]
        # drop a block and scattered pixels, so holes are filled from neighbours
        keep = rng.uniform(size=100) > 0.2
        keep[33:37] = False
        coords = coords[keep]
        y = rng.uniform(0, 1, len(coords))
        params = KernelParams(nlm_patch_size=patch_size, nlm_search_window=7)
        np.testing.assert_array_equal(
            nlm_matrix(coords, y, params), loop_nlm_matrix(coords, y, params)
        )


def in_window_pairs(coords, window):
    """Every unordered pair of distinct coordinates within the Chebyshev window."""
    c = np.rint(np.asarray(coords)).astype(int)
    return {
        (i, j)
        for i in range(len(c))
        for j in range(i + 1, len(c))
        if np.abs(c[i] - c[j]).max() <= window // 2
    }


@st.composite
def nlm_params(draw):
    """Patch sizes 1, 3 and 5, with windows from 3 up to wider than any tile."""
    patch = draw(st.sampled_from([1, 3, 5]))
    window = draw(st.integers(patch // 2 + 1, 14)) * 2 + 1
    return KernelParams(nlm_patch_size=patch, nlm_search_window=window, nlm_h2=0.05)


class TestNlmPairList:
    """The kernel is built from the in-window pairs i < j, mirrored."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        coords=integer_coords(),
        params=nlm_params(),
        stack=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(coords=np.array([[-4.0, 9.0]]), params=KernelParams(), stack=2, seed=0)
    def test_equals_full_oracle(self, coords, params, stack, seed):
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (stack, len(coords)))
        want = np.stack([loop_nlm_matrix(coords, yi, params) for yi in y])
        np.testing.assert_array_equal(nlm_matrix(coords, y, params), want)
        np.testing.assert_array_equal(nlm_matrix(coords, y[0], params), want[0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(coords=integer_coords(), params=nlm_params())
    def test_layout_lists_each_pair_once(self, coords, params):
        gather, (i, j) = coordinate_work("nlm", coords, params)[0]
        assert gather.shape == (len(coords), params.nlm_patch_size**2)
        assert np.all(i < j)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == in_window_pairs(coords, params.nlm_search_window)

    def test_no_pairwise_stack(self, monkeypatch):
        from mixedgraph.interpolators import Homography
        from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture

        def forbidden(f):
            raise AssertionError("the full pairwise difference stack was formed")

        monkeypatch.setattr(denoisers, "_pairwise_sq_dist", forbidden)
        config = ExperimentConfig(
            transform=Homography(((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))),
            denoiser_kind="nlm",
            kernel_params=KernelParams(nlm_h2=0.05),
            noise_variances=(0.08,),
        )
        curves, _ = run_experiment(config, synthetic_texture("texture-b", 24))
        assert {curve.mode for curve in curves} == {"joint", "sequential"}


class TestSinkhornBalance:
    def test_identity_fixed_point(self):
        op = sinkhorn_balance(np.eye(4))
        np.testing.assert_allclose(op.matrix, np.eye(4), atol=1e-8)

    def test_two_by_two_closed_form(self):
        op = sinkhorn_balance(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(op.matrix, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-9)
        assert np.abs(op.matrix.sum(axis=1) - 1.0).max() < 1e-8

    def test_balanced_bilateral_certified_pd(self):
        rng = np.random.default_rng(4)
        coords = grid_coords(5, 5)
        kernel = bilateral_matrix(coords, rng.uniform(0, 1, 25), KernelParams())
        op = sinkhorn_balance(kernel, kind="bilateral")
        assert op.certified_pd
        assert np.linalg.eigvalsh(op.matrix).min() > 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_balance_properties_random_kernels(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        w = rng.uniform(0.05, 1.0, (n, n))
        w = 0.5 * (w + w.T)
        op = sinkhorn_balance(w)
        assert np.abs(op.matrix.sum(axis=1) - 1.0).max() <= 1e-8
        assert np.abs(op.matrix.sum(axis=0) - 1.0).max() <= 1e-8
        assert np.linalg.norm(op.matrix - op.matrix.T) == 0.0
        assert np.abs(np.linalg.eigvalsh(op.matrix)).max() <= 1.0 + 1e-10

    def test_constant_preservation_implies_laplacian_nullspace(self):
        from mixedgraph.graphcore import denoiser_to_laplacian

        coords = grid_coords(4, 4)
        op = sinkhorn_balance(gaussian_matrix(coords, KernelParams()))
        assert np.abs(op.matrix @ np.ones(16) - 1.0).max() < 1e-8
        g = denoiser_to_laplacian(op, 0.3)
        assert np.abs(g.generalized_laplacian @ np.ones(16)).max() < 1e-7

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_balance(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_nonconvergence_raises_with_residual(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 2.0, (6, 6))
        w = 0.5 * (w + w.T)
        with pytest.raises(BalanceError) as excinfo:
            sinkhorn_balance(w, tol=1e-14, max_iter=1)
        assert excinfo.value.residual > 1e-14


def norm_test_rejects(w):
    """The symmetry verdict as the Frobenius norms give it."""
    asym = np.linalg.norm(w - w.T)
    return bool(asym > 1e-10 * np.maximum(np.linalg.norm(w), 1.0))


class TestSymmetryCheck:
    """`sinkhorn_balance` tests exact symmetry first; the verdict is the norm test's."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-14.0, -6.0),
    )
    def test_verdict_equals_norm_test(self, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 1.0, (n, n))
        w = 0.5 * (w + w.T)
        i, j = rng.choice(n, 2, replace=False)
        w[i, j] += 10.0**log_scale * np.linalg.norm(w)
        if norm_test_rejects(w):
            with pytest.raises(ValueError, match="symmetric"):
                sinkhorn_balance(w)
        else:
            psi = sinkhorn_balance(w).matrix
            np.testing.assert_array_equal(psi, psi.T)
            assert np.abs(psi.sum(axis=1) - 1.0).max() <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-16.0, -11.0),
    )
    def test_balances_the_symmetric_part(self, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 1.0, (n, n))
        w = 0.5 * (w + w.T)
        i, j = rng.choice(n, 2, replace=False)
        w[i, j] += 10.0**log_scale * np.linalg.norm(w)
        want = sinkhorn_balance(0.5 * (w + w.T)).matrix
        assert sinkhorn_balance(w).matrix.tobytes() == want.tobytes()

    def test_nan_kernel_is_not_rejected_as_asymmetric(self):
        # NaN fails the exact test and every norm comparison, as before, so
        # the kernel passes the checks and fails in certification instead
        w = np.eye(3) + 0.1
        w[0, 1] = np.nan
        assert not norm_test_rejects(w)
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            sinkhorn_balance(w, max_iter=3)

    def test_sign_and_diagonal(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sinkhorn_balance(np.array([[1.0, -0.1], [-0.1, 1.0]]))
        with pytest.raises(ValueError, match="strictly positive diagonal"):
            sinkhorn_balance(np.array([[1.0, 0.1], [0.1, 0.0]]))

    def test_scale_does_not_check(self):
        # the pipeline's own kernels go to sinkhorn_scale unchecked
        psi, _ = sinkhorn_scale(np.array([[[1.0, 0.5], [0.2, 1.0]]]))
        assert psi.shape == (1, 2, 2)


@st.composite
def kernel_stacks(draw):
    """1-8 exactly symmetric kernels on one tile: `build_denoiser`'s, of every
    kind, on random signals, mixed with random positive matrices."""
    coords = draw(integer_coords())
    n = len(coords)
    params = replace(
        draw(nlm_params()),
        spatial_var=draw(st.floats(0.1, 4.0)),
        range_var=draw(st.floats(0.01, 1.0)),
        nlm_h2=draw(st.floats(0.01, 1.0)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels = []
    for source in draw(st.lists(st.sampled_from(KINDS + ("random",)), min_size=1, max_size=8)):
        if source == "random":
            a = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            kernels.append(a + a.T)
        else:
            kernels.append(build_denoiser(source, coords, rng.uniform(0.0, 1.0, n), params))
    return np.stack(kernels)


def described(residual):
    """The balance error text of a Sinkhorn residual, None if it converged, and its bytes."""
    text = None if residual <= TAU_DS else outcome_text(BALANCE, residual)
    return text, residual.tobytes()


class TestSinkhornScaleStack:
    """A balanced stack is exactly symmetric, and each kernel is balanced as
    alone, as `sinkhorn_balance` balances it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(w=kernel_stacks(), max_iter=st.sampled_from([1, 3, 10, SINKHORN_MAX_ITER]))
    def test_symmetric_and_each_kernel_alone(self, w, max_iter):
        psi, residual = sinkhorn_scale(w, max_iter=max_iter)
        assert psi.tobytes() == psi.swapaxes(1, 2).tobytes()
        for k, (got, r) in enumerate(zip(psi, residual)):
            (alone,), (alone_r,) = sinkhorn_scale(w[k : k + 1], max_iter=max_iter)
            assert got.tobytes() == alone.tobytes()
            assert described(r) == described(alone_r)
            if r <= TAU_DS:
                balanced = sinkhorn_balance(w[k], max_iter=max_iter).matrix
                assert balanced.tobytes() == got.tobytes()


class TestSinkhornStop:
    """A kernel stopped at `SINKHORN_STOP` keeps the row-sum certificate's margin."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        kind=st.sampled_from(["bilateral", "gaussian", "nlm"]),
        spatial_var=st.sampled_from([0.3, 1.0, 4.0]),
        images=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stopped_kernel_is_nonexpansive_by_row_sums(
        self, shape, kind, spatial_var, images, seed
    ):
        coords = grid_coords(*shape)
        signals = np.random.default_rng(seed).uniform(0.0, 1.0, (images, len(coords)))
        params = KernelParams(spatial_var=spatial_var, nlm_h2=0.05)
        w = build_denoiser(kind, coords, signals, params)
        psi, residual = sinkhorn_scale(w if w.ndim == 3 else w[None])
        stopped = np.flatnonzero(residual <= SINKHORN_STOP)
        assert len(stopped)
        for k in stopped:
            assert psi[k].sum(axis=1).max() <= 1.0 + NONEXPANSIVE_SLACK
            # an infinite floor passes the PD check by the Schur bound, so a
            # factorization could only come from the non-expansiveness check
            with mock.patch.object(graphcore, "_is_pd", side_effect=AssertionError):
                _, (nonexpansive,) = graphcore.certify_symmetric(psi[k : k + 1], np.inf)
            assert nonexpansive


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kind", ["gaussian", "bilateral", "nlm"])
    def test_permute(self, kind):
        rng = np.random.default_rng(7)
        coords = grid_coords(4, 5)
        intens = rng.uniform(0, 1, 20)
        params = KernelParams()
        m = build_denoiser(kind, coords, intens, params)
        perm = rng.permutation(20)
        mp = build_denoiser(kind, coords[perm], intens[perm], params)
        np.testing.assert_array_equal(mp, m[np.ix_(perm, perm)])


@st.composite
def holed_coords(draw):
    """Integer coordinates of a box of up to 10 x 10 with holes, offset by up to 10^4."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    mask = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
    mask[draw(st.integers(0, h * w - 1))] = True
    offset = draw(st.tuples(st.integers(-(10**4), 10**4), st.integers(-(10**4), 10**4)))
    return (np.argwhere(mask.reshape(h, w)) + offset).astype(float)


def factor_arrays(factor):
    """Each array of a factor, one matrix or NLM's ``(gather, (i, j))``, as comparable bytes."""
    arrays = [factor[0], *factor[1]] if isinstance(factor, tuple) else [factor]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestCoordinateWork:
    """One tile's coordinate work serves every tile of its offset pattern."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        coords=holed_coords(),
        shift=st.tuples(st.integers(-(10**4), 10**4), st.integers(-(10**4), 10**4)),
        kind=st.sampled_from(KINDS),
        params=nlm_params(),
        spatial_var=st.sampled_from([0.3, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_integer_shift_changes_no_bit(self, coords, shift, kind, params, spatial_var, seed):
        params = replace(params, spatial_var=spatial_var)
        factor, floor = coordinate_work(kind, coords, params)
        moved, moved_floor = coordinate_work(kind, coords + shift, params)
        assert moved_floor == floor
        assert factor_arrays(moved) == factor_arrays(factor)
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (2, len(coords)))
        want = build_denoiser(kind, coords, y, params)
        assert build_denoiser(kind, coords, y, params, moved).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(coords=holed_coords(), params=nlm_params(), seed=st.integers(0, 2**32 - 1))
    def test_named_constructors_are_build_denoiser(self, coords, params, seed):
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (2, len(coords)))
        for kind, got in (
            ("gaussian", gaussian_matrix(coords, params)),
            ("bilateral", bilateral_matrix(coords, y, params)),
            ("nlm", nlm_matrix(coords, y, params)),
        ):
            want = build_denoiser(kind, coords, y, params)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestIdentityOperator:
    def test_exact(self):
        op = identity_operator(5)
        y = np.arange(5.0)
        np.testing.assert_array_equal(op.matrix @ y, y)
        assert op.certified and op.doubly_stochastic

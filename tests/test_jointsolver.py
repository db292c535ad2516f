import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgraph import pipeline
from mixedgraph.denoisers import (
    KernelParams,
    bilateral_matrix,
    build_denoiser,
    gaussian_matrix,
    nlm_matrix,
    sinkhorn_balance,
)
from mixedgraph.errors import (
    PatchGeometryError,
    PreconditionError,
    SingularOperatorError,
    SolverError,
)
from mixedgraph.graphcore import (
    DenoiserOperator,
    DirectedInterpGraph,
    UndirectedGraph,
    certify_denoiser,
    denoiser_to_laplacian,
    interpolator_to_adjacency,
)
from mixedgraph.interpolators import (
    Homography,
    Rotation,
    build_patch_operator,
    pad_full_rank,
    tile_image,
)
from mixedgraph.jointsolver import (
    BlockSystem,
    SolverWeights,
    block_inverse,
    derive_operators,
    gradient_denoise,
    gradient_interpolate,
    gradient_nonseparable,
    gradient_separable,
    joint_nonseparable,
    joint_separable,
    map_denoise,
    map_interpolate,
    nonseparable_matrix,
    objective_denoise,
    objective_interpolate,
    objective_nonseparable,
    objective_separable,
    output_space_solve,
    reduced_nonseparable,
)
from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture

from helpers import pattern

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
MAGNIFY_2X = Homography(((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)))
MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))
PATH_GRAPH_2 = UndirectedGraph.from_generalized_laplacian([[1.0, -1.0], [-1.0, 1.0]])


def random_theta(rng, n):
    """Random well-conditioned interpolator."""
    return rng.normal(size=(n, n)) + (n + 2) * np.eye(n)


def random_balanced_denoiser(rng, n):
    coords = rng.uniform(0, 2.0 * np.sqrt(n), (n, 2))
    while len(np.unique(coords, axis=0)) < n:
        coords = rng.uniform(0, 2.0 * np.sqrt(n), (n, 2))
    return sinkhorn_balance(gaussian_matrix(coords, KernelParams()), kind="gaussian")


def finite_difference_gradient(fun, x, step=1e-5):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return grad


class TestMapDenoise:
    def test_zero_laplacian_returns_input(self):
        g = UndirectedGraph.from_adjacency(np.zeros((3, 3)))
        y = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(map_denoise(y, g, 1.0), y)

    def test_small_mu_limit(self):
        y = np.array([3.0, 0.0])
        x = map_denoise(y, PATH_GRAPH_2, 1e-12)
        np.testing.assert_allclose(x, y, atol=1e-10)

    def test_two_node_closed_form(self):
        x = map_denoise([3.0, 0.0], PATH_GRAPH_2, 1.0)
        np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-12)

    def test_gradient_vanishes(self):
        rng = np.random.default_rng(0)
        psi = random_balanced_denoiser(rng, 8)
        g = denoiser_to_laplacian(psi, 0.3)
        y = rng.normal(size=8)
        x = map_denoise(y, g, 0.3)
        grad = gradient_denoise(x, y, g, 0.3)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(y)

    def test_non_psd_rejected(self):
        g = UndirectedGraph.from_generalized_laplacian([[-2.0, 0.0], [0.0, -2.0]])
        with pytest.raises(PreconditionError):
            map_denoise([1.0, 1.0], g, 1.0)


class TestMapInterpolate:
    def test_identity_theta(self):
        graph = interpolator_to_adjacency(np.eye(3))
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            map_interpolate(y, graph, 0.5), np.concatenate([y, y]), atol=1e-9
        )

    def test_scaled_identity(self):
        graph = interpolator_to_adjacency(2.0 * np.eye(2))
        x = map_interpolate([1.0, 2.0], graph, 0.5)
        np.testing.assert_allclose(x, [1.0, 2.0, 2.0, 4.0], atol=1e-9)

    def test_random_theta_matches_direct_multiplication(self):
        rng = np.random.default_rng(1)
        theta = random_theta(rng, 4)
        graph = interpolator_to_adjacency(theta)
        y = rng.normal(size=4)
        x = map_interpolate(y, graph, 0.5)
        want = np.concatenate([y, theta @ y])
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [2, 10, 100])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 10.0])
    def test_roundtrip_sizes(self, n, gamma):
        rng = np.random.default_rng(n)
        theta = random_theta(rng, n)
        graph = interpolator_to_adjacency(theta)
        y = rng.normal(size=n)
        x = map_interpolate(y, graph, gamma)
        want = np.concatenate([y, theta @ y])
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


class TestJointSeparable:
    def test_two_node_hand_value(self):
        graph = interpolator_to_adjacency(np.array([[1.0, 1.0], [0.0, 1.0]]))
        sol = joint_separable(
            [3.0, 0.0], PATH_GRAPH_2, graph, SolverWeights(mu=1.0, gamma=0.5)
        )
        np.testing.assert_allclose(sol.full_signal, [2.0, 1.0, 3.0, 1.0], atol=1e-9)

    def test_small_mu_reduces_to_interpolation(self):
        rng = np.random.default_rng(2)
        theta = random_theta(rng, 3)
        graph = interpolator_to_adjacency(theta)
        y = rng.normal(size=3)
        zero_l = UndirectedGraph.from_adjacency(np.zeros((3, 3)))
        sol = joint_separable(y, zero_l, graph, SolverWeights(mu=1e-9, gamma=0.5))
        np.testing.assert_allclose(
            sol.full_signal, map_interpolate(y, graph, 0.5), atol=1e-7
        )

    def test_identity_theta_both_blocks_denoised(self):
        rng = np.random.default_rng(3)
        psi = random_balanced_denoiser(rng, 5)
        l = denoiser_to_laplacian(psi, 0.3)
        graph = interpolator_to_adjacency(np.eye(5))
        y = rng.normal(size=5)
        sol = joint_separable(y, l, graph, SolverWeights(mu=0.3, gamma=0.5))
        np.testing.assert_allclose(sol.denoised_block, sol.interpolated_block, atol=1e-9)
        np.testing.assert_allclose(sol.denoised_block, psi.matrix @ y, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 4, 10, 100])
    def test_numerical_solve_matches_closed_form(self, n):
        # verify=True solves the assembled system and compares internally
        rng = np.random.default_rng(n + 7)
        psi = random_balanced_denoiser(rng, n)
        l = denoiser_to_laplacian(psi, 0.3)
        graph = interpolator_to_adjacency(random_theta(rng, n))
        y = rng.normal(size=n)
        sol = joint_separable(y, l, graph, SolverWeights(), verify=True)
        np.testing.assert_allclose(sol.denoised_block, psi.matrix @ y, atol=1e-7)


WEIGHT_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1e300, -1e300, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestSolverWeights:
    @settings(max_examples=300, deadline=None)
    @given(mu=WEIGHT_VALUES, gamma=WEIGHT_VALUES, kappa=WEIGHT_VALUES)
    def test_rejected_or_finite_c(self, mu, gamma, kappa):
        try:
            w = SolverWeights(mu=mu, gamma=gamma, kappa=kappa)
        except ValueError:
            return
        assert np.isfinite(w.c)
        assert w.c > 0 if w.kappa > 0 else w.c == 0

    @pytest.mark.parametrize(
        "mu, gamma, kappa",
        [(np.nan, 0.5, 0.3), (0.3, np.inf, 0.3), (0.3, 0.5, np.inf), (1e-300, 1e-300, 0.3)],
    )
    def test_rejected(self, mu, gamma, kappa):
        with pytest.raises(ValueError):
            SolverWeights(mu=mu, gamma=gamma, kappa=kappa)


class TestJointNonseparable:
    def make_instance(self, rng, n):
        theta = random_theta(rng, n)
        graph = interpolator_to_adjacency(theta)
        psi_bar = random_balanced_denoiser(rng, n)
        lbar = denoiser_to_laplacian(psi_bar, 0.3)
        return graph, psi_bar, lbar, theta

    def test_kappa_zero_degenerates_to_interpolation(self):
        rng = np.random.default_rng(4)
        graph, _, lbar, theta = self.make_instance(rng, 4)
        y = rng.normal(size=4)
        sol = joint_nonseparable(y, graph, lbar, SolverWeights(kappa=0.0))
        want = np.concatenate([y, theta @ y])
        assert np.linalg.norm(sol.full_signal - want) <= 1e-6 * np.linalg.norm(want)

    def test_zero_lbar_same_as_kappa_zero(self):
        rng = np.random.default_rng(5)
        graph, _, _, theta = self.make_instance(rng, 4)
        y = rng.normal(size=4)
        sol = joint_nonseparable(y, graph, np.zeros((4, 4)), SolverWeights())
        want = np.concatenate([y, theta @ y])
        assert np.linalg.norm(sol.full_signal - want) <= 1e-6 * np.linalg.norm(want)

    def test_every_method_runs_the_one_dense_solve(self):
        rng = np.random.default_rng(6)
        graph, _, lbar, _ = self.make_instance(rng, 4)
        w = SolverWeights()
        y = rng.normal(size=4)
        cg = joint_nonseparable(y, graph, lbar, w, method="cg", cg_tol=1e-3)
        direct = joint_nonseparable(y, graph, lbar, w, method="direct")
        assert cg.full_signal.tobytes() == direct.full_signal.tobytes()
        assert (cg.iterations, cg.residual) == (direct.iterations, direct.residual)
        coeff = nonseparable_matrix(graph, lbar, w)
        dense = np.linalg.solve(coeff, np.concatenate([y, np.zeros(4)]))
        assert direct.full_signal.tobytes() == dense.tobytes()
        assert direct.residual <= 1e-12

    def test_unknown_method_rejected(self):
        graph, _, lbar, _ = self.make_instance(np.random.default_rng(7), 4)
        with pytest.raises(ValueError, match="unknown solve method 'lu'"):
            joint_nonseparable(np.ones(4), graph, lbar, SolverWeights(), method="lu")

    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_singular_system_raises(self, method):
        # [[1 + gamma, -gamma], [-gamma, gamma + kappa lbar]] = [[2, -1], [-1, 0.5]]
        # has an exact zero pivot
        graph = interpolator_to_adjacency([[1.0]])
        weights = SolverWeights(mu=0.3, gamma=1.0, kappa=0.5)
        with pytest.raises(SolverError, match="^joint system is singular$"):
            joint_nonseparable([1.0], graph, [[-1.0]], weights, method=method)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_matches_derived_operators(self, n):
        rng = np.random.default_rng(n + 20)
        graph, _, lbar, _ = self.make_instance(rng, n)
        w = SolverWeights()
        y = rng.normal(size=n)
        sol = joint_nonseparable(y, graph, lbar, w)
        psi_star, theta_star = derive_operators(graph, lbar, w)
        want = np.concatenate([psi_star @ y, theta_star @ psi_star @ y])
        assert np.linalg.norm(sol.full_signal - want) <= 1e-6 * np.linalg.norm(want)


class TestDeriveOperators:
    def test_kappa_zero_gives_original_operators(self):
        rng = np.random.default_rng(8)
        theta = random_theta(rng, 4)
        graph = interpolator_to_adjacency(theta)
        psi_star, theta_star = derive_operators(
            graph, np.zeros((4, 4)), SolverWeights(kappa=0.0)
        )
        np.testing.assert_allclose(psi_star, np.eye(4), atol=1e-9)
        np.testing.assert_allclose(theta_star, theta, atol=1e-8)

    def test_large_gamma_enforces_hard_constraint(self):
        # gamma -> inf pins the new pixels to theta @ x, so the derived
        # denoiser tends to the pulled-back regularized filter.
        rng = np.random.default_rng(9)
        theta = random_theta(rng, 4)
        graph = interpolator_to_adjacency(theta)
        lbar = denoiser_to_laplacian(random_balanced_denoiser(rng, 4), 0.3).generalized_laplacian
        kappa = 0.3
        psi_star, theta_star = derive_operators(
            graph, lbar, SolverWeights(gamma=1e8, kappa=kappa)
        )
        limit = np.linalg.inv(np.eye(4) + kappa * theta.T @ lbar @ theta)
        np.testing.assert_allclose(psi_star, limit, atol=1e-6)
        # theta_star approaches theta only at O(1/gamma) with a large constant
        np.testing.assert_allclose(theta_star, theta, atol=1e-2)

    def test_non_separability_witness(self):
        rng = np.random.default_rng(10)
        theta = random_theta(rng, 3)
        graph = interpolator_to_adjacency(theta)
        psi_bar = random_balanced_denoiser(rng, 3)
        lbar = denoiser_to_laplacian(psi_bar, 0.3)
        psi_star, theta_star = derive_operators(graph, lbar, SolverWeights())
        gap = np.linalg.norm(theta_star @ psi_star - psi_bar.matrix @ theta)
        assert gap > 1e-6

    def test_singular_inner_matrix_rejected(self):
        graph = DirectedInterpGraph(2, 2, np.zeros((2, 2)))
        with pytest.raises(SingularOperatorError):
            derive_operators(graph, np.zeros((2, 2)), SolverWeights(kappa=0.0))


class TestBlockInverse:
    def test_block_diagonal(self):
        sys = BlockSystem(
            a=np.diag([2.0, 4.0]),
            b=np.zeros((2, 1)),
            c=np.zeros((1, 2)),
            d=np.array([[5.0]]),
        )
        inv = block_inverse(sys)
        np.testing.assert_allclose(inv, np.diag([0.5, 0.25, 0.2]), atol=1e-12)

    def test_two_by_two_closed_form(self):
        sys = BlockSystem(
            a=np.array([[2.0]]),
            b=np.array([[1.0]]),
            c=np.array([[1.0]]),
            d=np.array([[2.0]]),
        )
        np.testing.assert_allclose(
            block_inverse(sys), np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-12
        )

    def test_random_matches_dense_inverse(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 6)) + 8 * np.eye(6)
        sys = BlockSystem(a=m[:4, :4], b=m[:4, 4:], c=m[4:, :4], d=m[4:, 4:])
        np.testing.assert_allclose(block_inverse(sys), np.linalg.inv(m), atol=1e-9)
        p = sys.schur_p()
        np.testing.assert_allclose(
            p @ (sys.a - sys.b @ np.linalg.solve(sys.d, sys.c)), np.eye(4), atol=1e-8
        )

    def test_singular_d_rejected(self):
        sys = BlockSystem(
            a=np.eye(2), b=np.zeros((2, 1)), c=np.zeros((1, 2)), d=np.zeros((1, 1))
        )
        with pytest.raises(SingularOperatorError):
            block_inverse(sys)


def warped_tile(transform, origin, kind, seed):
    """Real-row operator, footprint values and balanced denoiser of one tile."""
    image = np.random.default_rng(seed).uniform(0.0, 1.0, (32, 32))
    op = build_patch_operator(transform, origin, (6, 6), (32, 32)).operator
    y = image[op.source_coords[:, 0], op.source_coords[:, 1]]
    interp = np.clip(op.real_matrix @ y, 0.0, 1.0)
    if kind == "gaussian":
        kernel = gaussian_matrix(op.target_coords, KernelParams())
    elif kind == "bilateral":
        kernel = bilateral_matrix(op.target_coords, interp, KernelParams())
    else:
        # a small h2 keeps most NLM kernels of these random tiles PD
        kernel = nlm_matrix(op.target_coords, interp, KernelParams(nlm_h2=0.05))
    return op, y, sinkhorn_balance(kernel, kind=kind)


TILE_TRANSFORMS = st.one_of(
    st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
    st.just(Homography(PAPER_H)),
)


class TestReducedNonseparable:
    """The m x m reduced solve against the padded 2m x 2m oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        transform=TILE_TRANSFORMS,
        origin=st.tuples(st.integers(0, 26), st.integers(0, 26)),
        kind=st.sampled_from(["gaussian", "bilateral"]),
        mu=st.floats(0.05, 2.0),
        gamma=st.floats(0.1, 2.0),
        kappa=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_padded_oracle(self, transform, origin, kind, mu, gamma, kappa, seed):
        try:
            op, y, psi = warped_tile(transform, origin, kind, seed)
            padded, _ = pad_full_rank(op.real_matrix)
        except PatchGeometryError:
            assume(False)  # out of bounds, or no invertible padding to compare with
        assume(psi.certified)
        # the oracle inverts the padded operator; keep it well conditioned
        assume(np.linalg.cond(padded) < 1e4)
        weights = SolverWeights(mu=mu, gamma=gamma, kappa=kappa)
        n, m = op.real_matrix.shape
        lbar = np.zeros((m, m))
        lbar[:n, :n] = denoiser_to_laplacian(psi, mu).generalized_laplacian
        graph = interpolator_to_adjacency(padded)
        want = joint_nonseparable(
            y, graph, lbar, weights, method="direct"
        ).interpolated_block[:n]
        got = reduced_nonseparable(y, op.real_matrix, psi, weights)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_kappa_zero_is_plain_interpolation(self):
        op, y, psi = warped_tile(Rotation(20.0), (12, 12), "bilateral", 3)
        got = reduced_nonseparable(y, op.real_matrix, psi, SolverWeights(kappa=0.0))
        np.testing.assert_allclose(got, op.real_matrix @ y, rtol=1e-14, atol=0.0)

    def test_singular_system_is_a_solver_error(self):
        # flags set by hand: psi = 2 gives L = (1/2 - 1) / mu = -1 for
        # mu = 1/2, and beta = kappa (1 + gamma) / gamma = 1, so I + beta * L
        # is zero
        weights = SolverWeights(mu=0.5, gamma=1.0, kappa=0.5)
        psi = DenoiserOperator(
            matrix=np.array([[2.0]]),
            certified_symmetric=True,
            certified_pd=True,
            certified_nonexpansive=True,
        )
        with pytest.raises(SolverError):
            reduced_nonseparable([1.0], [[1.0]], psi, weights)
        # a singular psi is never certified, so it never reaches the solve
        psi = certify_denoiser([[0.0]])
        with pytest.raises(PreconditionError):
            reduced_nonseparable([1.0], [[1.0]], psi, weights)

    def test_uncertified_denoiser_rejected(self):
        psi = certify_denoiser([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError):
            reduced_nonseparable([1.0, 2.0], np.eye(2), psi, SolverWeights())


class TestOutputSpaceSolve:
    """The n x n output-space solve against the m x m footprint system."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        transform=st.one_of(
            TILE_TRANSFORMS, st.sampled_from([MAGNIFY_2X, MAGNIFY_4X])
        ),
        origin=st.tuples(st.integers(0, 26), st.integers(0, 26)),
        kind=st.sampled_from(["gaussian", "bilateral", "nlm"]),
        mu=st.floats(0.05, 2.0),
        gamma=st.floats(0.1, 2.0),
        kappa=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_footprint_system(
        self, transform, origin, kind, mu, gamma, kappa, seed
    ):
        try:
            op, y, psi = warped_tile(transform, origin, kind, seed)
        except PatchGeometryError:
            assume(False)  # tile out of bounds
        assume(psi.certified)
        weights = SolverWeights(mu=mu, gamma=gamma, kappa=kappa)
        theta = op.real_matrix
        n, m = theta.shape
        # (I + c theta^T (inv(psi) - I) theta) w = y, c = kappa (1 + gamma) / (gamma mu)
        c = kappa * (1.0 + gamma) / (gamma * mu)
        g = np.linalg.inv(psi.matrix) - np.eye(n)
        want = theta @ np.linalg.solve(np.eye(m) + c * theta.T @ g @ theta, y)
        got = reduced_nonseparable(y, theta, psi, weights)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        transform=TILE_TRANSFORMS,
        kind=st.sampled_from(["gaussian", "bilateral", "nlm"]),
        tiles=st.integers(1, 4),
        signals=st.integers(1, 3),
        kappa=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_chunk_matches_each_tile_alone(
        self, transform, kind, tiles, signals, kappa, seed, data
    ):
        # T tiles of one offset pattern on V signals: one denoiser per
        # signal, (T, V, n, n), or for a signal-free kind one per tile,
        # (T, 1, n, n), serving its V signals
        images = np.random.default_rng(seed).uniform(0.0, 1.0, (signals, 32, 32))
        groups = {}
        for job in tile_image((32, 32), transform, 6):
            groups.setdefault(pattern(job), []).append(job.operator)
        ops = data.draw(st.sampled_from(list(groups.values())))[:tiles]
        thetas = [op.real_matrix for op in ops]
        ys = [images[:, op.source_coords[:, 0], op.source_coords[:, 1]] for op in ops]
        ty = np.array(
            [[np.matmul(th, y[:, None])[:, 0] for y in tile_ys] for th, tile_ys in zip(thetas, ys)]
        )
        params = KernelParams(nlm_h2=0.05)
        psis = []
        for op, tile_ty in zip(ops, ty):
            if kind == "gaussian":
                kernels = [gaussian_matrix(op.target_coords, params)]
            else:
                kernels = [
                    build_denoiser(kind, op.target_coords, np.clip(t, 0.0, 1.0), params)
                    for t in tile_ty
                ]
            psis.append([sinkhorn_balance(k, kind=kind) for k in kernels])
        assume(all(psi.certified for tile_psis in psis for psi in tile_psis))
        weights = SolverWeights(kappa=kappa)
        psi = np.array([[p.matrix for p in tile_psis] for tile_psis in psis])
        z, singular = output_space_solve(ty, thetas, psi, weights.c)
        assert singular.tolist() == [[False] * signals] * len(ops)
        assert z.shape == ty.shape
        for i, (theta, tile_ys, tile_psis) in enumerate(zip(thetas, ys, psis)):
            for s, y in enumerate(tile_ys):
                want = reduced_nonseparable(y, theta, tile_psis[s % len(tile_psis)], weights)
                assert z[i, s].tobytes() == want.tobytes()

    def test_one_vector_solve_per_tile(self, monkeypatch):
        # A sweep solves each tile once for all its noise variances: one
        # stacked solve per chunk of tiles, with one right-hand side per
        # variance, not one solve per (tile, variance).
        shapes = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            shapes.append((np.shape(a), np.shape(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        variances = (0.02, 0.04, 0.06, 0.08, 0.10)
        image = synthetic_texture("texture-a", 32)
        for transform in (Rotation(20.0), Homography(PAPER_H), MAGNIFY_4X):
            config = ExperimentConfig(
                transform=transform, denoiser_kind="bilateral", noise_variances=variances
            )
            jobs = tile_image((32, 32), transform, config.patch_size)
            shapes.clear()
            run_experiment(config, image)
            # the chunks, of up to two tiles of one offset pattern at V = 5,
            # are not in tile order
            want = []
            for _, tiles in pipeline._chunks(jobs, len(variances)):
                t, n = len(tiles), len(jobs[tiles[0]].operator.target_coords)
                want.append(((t, 5, n, n), (t, 5, n, 1)))
            assert sorted(shapes) == sorted(want)
            assert max(t for (t, *_), _ in want) == 2


class TestOptimalityCertificates:
    """Analytic gradients vanish at solutions and match finite differences."""

    def setup_instance(self, n=4, seed=15):
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, n)
        graph = interpolator_to_adjacency(theta)
        psi = random_balanced_denoiser(rng, n)
        l = denoiser_to_laplacian(psi, 0.3)
        y = rng.normal(size=n)
        return rng, graph, l, y

    def test_denoise_gradient(self):
        rng, _, l, y = self.setup_instance()
        x = map_denoise(y, l, 0.3)
        assert np.linalg.norm(gradient_denoise(x, y, l, 0.3)) <= 1e-6 * np.linalg.norm(y)
        z = rng.normal(size=len(y))
        fd = finite_difference_gradient(lambda v: objective_denoise(v, y, l, 0.3), z)
        np.testing.assert_allclose(
            gradient_denoise(z, y, l, 0.3), fd, rtol=1e-4, atol=1e-7
        )

    def test_interpolate_gradient(self):
        rng, graph, _, y = self.setup_instance(seed=16)
        x = map_interpolate(y, graph, 0.5)
        assert np.linalg.norm(gradient_interpolate(x, y, graph, 0.5)) <= 1e-6 * np.linalg.norm(y)
        z = rng.normal(size=2 * len(y))
        fd = finite_difference_gradient(
            lambda v: objective_interpolate(v, y, graph, 0.5), z
        )
        np.testing.assert_allclose(
            gradient_interpolate(z, y, graph, 0.5), fd, rtol=1e-4, atol=1e-7
        )

    def test_separable_gradient(self):
        rng, graph, l, y = self.setup_instance(seed=17)
        w = SolverWeights()
        sol = joint_separable(y, l, graph, w)
        grad = gradient_separable(sol.full_signal, y, l, graph, w)
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(y)
        z = rng.normal(size=2 * len(y))
        fd = finite_difference_gradient(
            lambda v: objective_separable(v, y, l, graph, w), z
        )
        np.testing.assert_allclose(
            gradient_separable(z, y, l, graph, w), fd, rtol=1e-4, atol=1e-7
        )

    def test_nonseparable_gradient(self):
        rng, graph, lbar, y = self.setup_instance(seed=18)
        w = SolverWeights()
        sol = joint_nonseparable(y, graph, lbar, w)
        grad = gradient_nonseparable(sol.full_signal, y, graph, lbar, w)
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(y)
        z = rng.normal(size=2 * len(y))
        fd = finite_difference_gradient(
            lambda v: objective_nonseparable(v, y, graph, lbar, w), z
        )
        np.testing.assert_allclose(
            gradient_nonseparable(z, y, graph, lbar, w), fd, rtol=1e-4, atol=1e-7
        )

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgraph.denoisers import KernelParams, gaussian_matrix, sinkhorn_balance
from mixedgraph.errors import DegenerateGraphError, PreconditionError, SingularOperatorError
from mixedgraph.graphcore import (
    NONEXPANSIVE_SLACK,
    PD_EIG_MIN,
    DenoiserOperator,
    RandomWalkView,
    UndirectedGraph,
    certify_denoiser,
    certify_symmetric,
    denoiser_to_laplacian,
    export_edges,
    glr,
    gsv,
    interpolator_to_adjacency,
)


def two_node_graph(w=1.0):
    return UndirectedGraph.from_adjacency([[0.0, w], [w, 0.0]])


class TestUndirectedGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_adjacency([[0, 1], [2, 0]])

    def test_laplacian_row_sums_zero_without_self_loops(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (6, 6))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        g = UndirectedGraph.from_adjacency(a)
        assert not g.self_loop_flag
        assert np.abs(g.laplacian.sum(axis=1)).max() < 1e-10
        assert g.is_psd()

    def test_generalized_laplacian_roundtrip(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (5, 5))
        a = a + a.T  # keeps a positive diagonal (self-loops)
        g = UndirectedGraph.from_adjacency(a)
        g2 = UndirectedGraph.from_generalized_laplacian(g.generalized_laplacian)
        assert g2.self_loop_flag
        np.testing.assert_allclose(g2.adjacency, g.adjacency, atol=1e-12)
        np.testing.assert_allclose(g2.laplacian, g.laplacian, atol=1e-12)


class TestGlr:
    def test_constant_signal_is_zero(self):
        assert glr(two_node_graph(), [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_sum(self):
        # 2 * (3 - 0)^2 = 18
        assert glr(two_node_graph(2.0), [3.0, 0.0]) == pytest.approx(18.0, rel=1e-10)

    def test_zero_signal(self):
        assert glr(two_node_graph(5.0), [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            glr(two_node_graph(), [1.0, 2.0, 3.0])

    def test_matches_edge_sum_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 9)
            a = rng.uniform(0, 2, (n, n))
            a = a + a.T
            np.fill_diagonal(a, 0.0)
            g = UndirectedGraph.from_adjacency(a)
            x = rng.normal(size=n)
            edge_sum = sum(
                a[i, j] * (x[i] - x[j]) ** 2 for i in range(n) for j in range(i + 1, n)
            )
            value = glr(g, x)
            assert value == pytest.approx(edge_sum, rel=1e-10, abs=1e-12)
            assert value >= -1e-12


class TestGsv:
    def test_constant_signal_is_zero(self):
        view = RandomWalkView.from_graph(two_node_graph())
        assert gsv(view, [3.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_swap(self):
        view = RandomWalkView.from_graph(two_node_graph())
        assert gsv(view, [1.0, 0.0]) == pytest.approx(2.0, rel=1e-10)

    def test_zero_signal(self):
        view = RandomWalkView.from_graph(two_node_graph())
        assert gsv(view, [0.0, 0.0]) == 0.0

    def test_zero_degree_rejected(self):
        g = UndirectedGraph.from_adjacency(np.zeros((3, 3)))
        with pytest.raises(DegenerateGraphError):
            RandomWalkView.from_graph(g)

    def test_two_form_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = rng.integers(2, 10)
            a = rng.uniform(0.1, 1, (n, n))
            a = a + a.T
            np.fill_diagonal(a, 0.0)
            g = UndirectedGraph.from_adjacency(a)
            view = RandomWalkView.from_graph(g)
            x = rng.normal(size=n)
            lr_x = view.random_walk_laplacian @ x
            assert gsv(view, x) == pytest.approx(float(lr_x @ lr_x), rel=1e-10)
            assert np.abs(view.row_stochastic_adjacency.sum(axis=1) - 1).max() < 1e-10


class TestCertifyDenoiser:
    def test_identity_certified(self):
        op = certify_denoiser(np.eye(3))
        assert op.certified and op.doubly_stochastic

    def test_permutation_uncertified(self):
        op = certify_denoiser([[0.0, 1.0], [1.0, 0.0]])
        assert op.certified_symmetric and not op.certified_pd
        assert not op.certified

    def test_near_symmetric_reported_not_rewritten(self):
        # within TAU_SYM of symmetric, but not exactly: the flag says so,
        # and the operator holds the matrix it was given
        psi = np.array([[0.75, 0.25], [0.25 + 1e-15, 0.75]])
        op = certify_denoiser(psi)
        assert not op.certified_symmetric and not op.certified
        assert op.matrix.tobytes() == psi.tobytes()

    def test_asymmetric_doubling_matrix_is_not_nonexpansive(self):
        # its spectrum is {0}, but it doubles e_2
        op = certify_denoiser([[0.0, 2.0], [0.0, 0.0]])
        assert not op.certified_pd and not op.certified_nonexpansive

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        diagonal=st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=7),
        stretch=st.floats(1.5, 100.0),
        seed=st.integers(0, 2**16),
    )
    def test_asymmetric_flags_are_false_without_a_spectrum(self, diagonal, stretch, seed):
        # Q T Q^T for an upper-triangular T: the spectral radius is T's
        # largest |diagonal| entry, below 1, and the largest singular value,
        # at least T's entry `stretch`, is above 1.  An asymmetric filter's
        # flags are False, never computed from its spectrum
        n = len(diagonal)
        rng = np.random.default_rng(seed)
        t = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) + np.diag(diagonal)
        t[0, -1] = stretch
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        psi = q @ t @ q.T
        assume(not np.array_equal(psi, psi.T))
        assert np.abs(np.linalg.eigvals(psi)).max() < 1.0
        assert np.linalg.norm(psi, 2) > 1.0

        def no_spectrum(*args, **kwargs):
            raise AssertionError("computed a spectrum")

        with pytest.MonkeyPatch.context() as mp:
            for name in ("eig", "eigh", "eigvals", "eigvalsh"):
                mp.setattr(np.linalg, name, no_spectrum)
            op = certify_denoiser(psi)
        assert not op.certified_symmetric
        assert not op.certified_pd and not op.certified_nonexpansive

    def test_balanced_gaussian_kernel_certified(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]]
        op = sinkhorn_balance(gaussian_matrix(coords, KernelParams()))
        assert op.certified and op.doubly_stochastic
        # independent eigenvalue oracle
        assert np.linalg.eigvalsh(op.matrix).min() > 1e-10


# Eigenvalues at least 1e-8 to either side of each certification threshold.
MARGIN = 1e-8
THRESHOLDS = (PD_EIG_MIN, 1.0 + NONEXPANSIVE_SLACK, -1.0 - NONEXPANSIVE_SLACK)
EIGENVALUE = st.one_of(
    st.floats(-1.5, 1.5),
    st.tuples(
        st.sampled_from(THRESHOLDS), st.sampled_from((-1.0, 1.0)), st.floats(MARGIN, 1e-4)
    ).map(lambda t: t[0] + t[1] * t[2]),
)


def clear_of_thresholds(evals, thresholds=THRESHOLDS):
    return all(abs(lam - t) >= MARGIN for lam in evals for t in thresholds)


class TestCertificationWithoutSpectrum:
    """Cholesky and row-sum certification against an eigenvalue oracle."""

    @staticmethod
    def check_flags(op):
        evals = np.linalg.eigvalsh(op.matrix)
        assert op.certified_symmetric
        assert op.certified_pd == (evals.min() > PD_EIG_MIN)
        assert op.certified_nonexpansive == (np.abs(evals).max() <= 1.0 + NONEXPANSIVE_SLACK)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        evals=st.lists(EIGENVALUE, min_size=1, max_size=8),
        constant_eigvec=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_planted_spectrum(self, evals, constant_eigvec, seed):
        # Q diag(evals) Q^T; with the constant vector in Q, psi 1 = evals[0] 1,
        # so the rows sum to one when evals[0] == 1. Most such matrices
        # have negative entries: the row-sum bound misses, and the
        # Cholesky fallback decides non-expansiveness.
        assume(clear_of_thresholds(evals))
        n = len(evals)
        rng = np.random.default_rng(seed)
        basis = rng.normal(size=(n, n))
        if constant_eigvec:
            basis[:, 0] = 1.0
            evals[0] = 1.0
        q, _ = np.linalg.qr(basis)
        psi = (q * evals) @ q.T
        # rounding leaves Q diag(evals) Q^T a few ulps from symmetric
        self.check_flags(certify_denoiser(0.5 * (psi + psi.T)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 12),
        mix=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_doubly_stochastic_mixtures(self, n, mix, seed):
        # mix * (balanced Gaussian kernel) + (1 - mix) * (reversal
        # permutation): nonnegative and doubly stochastic, so the row-sum
        # bound certifies non-expansiveness, and PD or indefinite by mix.
        # Such a matrix has the eigenvalue 1 (and -1 for mix = 0), 1e-10
        # inside the non-expansiveness bound; only PD is given a margin.
        rng = np.random.default_rng(seed)
        balanced = sinkhorn_balance(
            gaussian_matrix(rng.uniform(0.0, 3.0, (n, 2)), KernelParams())
        ).matrix
        psi = mix * balanced + (1.0 - mix) * np.eye(n)[::-1]
        assume(clear_of_thresholds(np.linalg.eigvalsh(psi), (PD_EIG_MIN,)))
        self.check_flags(certify_denoiser(psi))


def identity_with(entries, value, n=3):
    """The n x n identity with ``value`` at each (i, j) of ``entries``, as a stack of one."""
    psi = np.eye(n)[None]
    for i, j in entries:
        psi[0, i, j] = value
    return psi


NON_FINITE_FILTERS = {
    "nan-stack": lambda: np.full((1, 3, 3), np.nan),
    "nan-diagonal": lambda: identity_with([(1, 1)], np.nan),
    "inf-diagonal": lambda: identity_with([(1, 1)], np.inf),
    # numpy's Cholesky factors this one without raising
    "inf-off-diagonal": lambda: identity_with([(0, 2), (2, 0)], np.inf),
}


class TestNonFiniteFilters:
    """A filter with a NaN or inf entry is neither PD nor non-expansive."""

    @pytest.mark.parametrize("name", NON_FINITE_FILTERS)
    def test_not_certified(self, name):
        pd, nonexpansive = certify_symmetric(NON_FINITE_FILTERS[name]())
        assert not pd.any() and not nonexpansive.any()

    @pytest.mark.parametrize("name", NON_FINITE_FILTERS)
    def test_finite_filter_of_the_stack_still_certified(self, name):
        # one stacked factorization, which does not raise for a NaN factor
        stack = np.concatenate([np.eye(3)[None], NON_FINITE_FILTERS[name]()])
        pd, nonexpansive = certify_symmetric(stack)
        assert pd.tolist() == [True, False] and nonexpansive.tolist() == [True, False]

    def test_inf_filter_is_not_certified(self):
        # exactly symmetric, so certify_denoiser checks it
        assert not certify_denoiser(NON_FINITE_FILTERS["inf-off-diagonal"]()[0]).certified


class TestDenoiserToLaplacian:
    def test_identity_gives_empty_graph(self):
        op = certify_denoiser(np.eye(4))
        g = denoiser_to_laplacian(op, 0.7)
        np.testing.assert_allclose(g.generalized_laplacian, 0.0, atol=1e-12)

    def test_two_by_two_closed_form(self):
        psi = certify_denoiser(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        g = denoiser_to_laplacian(psi, 1.0)
        np.testing.assert_allclose(
            g.generalized_laplacian, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12
        )

    def test_constant_vector_in_nullspace(self):
        coords = np.random.default_rng(5).uniform(0, 4, (8, 2))
        psi = sinkhorn_balance(gaussian_matrix(coords, KernelParams()))
        g = denoiser_to_laplacian(psi, 0.3)
        assert np.abs(g.generalized_laplacian @ np.ones(8)).max() < 1e-8

    def test_spectral_mapping(self):
        rng = np.random.default_rng(6)
        coords = rng.uniform(0, 4, (12, 2))
        psi = sinkhorn_balance(gaussian_matrix(coords, KernelParams()))
        g = denoiser_to_laplacian(psi, 0.3)
        lam = np.linalg.eigvalsh(psi.matrix)
        expected = np.sort((1.0 / lam - 1.0) / 0.3)
        got = np.sort(np.linalg.eigvalsh(g.generalized_laplacian))
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_uncertified_rejected(self):
        op = certify_denoiser([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError):
            denoiser_to_laplacian(op, 0.3)

    def test_hand_flagged_singular_rejected(self):
        # a certified filter is PD, so only flags set by hand reach the pivot test
        psi = DenoiserOperator(
            matrix=np.diag([1.0, 1e-13]),
            certified_symmetric=True,
            certified_pd=True,
            certified_nonexpansive=True,
        )
        with pytest.raises(PreconditionError, match="singular within pivot tolerance"):
            denoiser_to_laplacian(psi, 0.3)


class TestInterpolatorToAdjacency:
    def test_identity(self):
        g = interpolator_to_adjacency(np.eye(3))
        np.testing.assert_allclose(g.block_mn, np.eye(3))

    def test_scaled_identity(self):
        g = interpolator_to_adjacency(2.0 * np.eye(2))
        np.testing.assert_allclose(g.block_mn, 0.5 * np.eye(2))

    def test_shear_closed_form(self):
        g = interpolator_to_adjacency(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(g.block_mn, [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)

    def test_block_structure(self):
        g = interpolator_to_adjacency(np.array([[1.0, 1.0], [0.0, 1.0]]))
        a = g.adjacency
        assert np.all(a[:, :2] == 0.0) and np.all(a[2:] == 0.0)
        np.testing.assert_allclose(
            a[:2, 2:] @ np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), atol=1e-8
        )

    def test_singular_rejected(self):
        with pytest.raises(SingularOperatorError):
            interpolator_to_adjacency(np.ones((3, 3)))
        with pytest.raises(SingularOperatorError):
            interpolator_to_adjacency(np.ones((2, 3)))

    def test_zero_matrix_rejected_without_warning(self):
        # its singular values have no ratio: no 0/0, no nan in the message
        with warnings.catch_warnings(), pytest.raises(SingularOperatorError) as excinfo:
            warnings.simplefilter("error")
            interpolator_to_adjacency(np.zeros((2, 2)))
        assert str(excinfo.value) == "interpolator is numerically singular (sigma_max = 0)"


def loop_edges(graph, weight_tol=0.0):
    """`export_edges` as a loop over the pairs i <= j, the reference."""
    lines = []
    a = graph.adjacency
    n = len(a)
    for i in range(n):
        if abs(a[i, i]) > weight_tol:
            lines.append(f"{i} {i} {float(a[i, i])!r}")
        for j in range(i + 1, n):
            if abs(a[i, j]) > weight_tol:
                lines.append(f"{i} {j} {float(a[i, j])!r}")
    return "\n".join(lines) + ("\n" if lines else "")


EDGE_WEIGHTS = (0.0, -0.0, 0.25, -0.25, 1e-12, -1.5, 3.0, np.nan)
EDGE_TOLS = (0.0, 1e-12, 0.25, -1.0)


class TestExportEdges:
    @pytest.mark.parametrize("weight_tol", EDGE_TOLS)
    @pytest.mark.parametrize(
        "adjacency",
        [
            np.zeros((0, 0)),
            [[0.25]],
            [[0.25, -0.25, 0.0], [-0.25, 0.0, 1e-12], [0.0, 1e-12, -1.5]],
            [[np.nan, 0.5], [0.5, -0.0]],
            [[-0.0, -0.0], [-0.0, -0.0]],
        ],
        ids=["empty", "one-self-loop", "signs-and-tolerances", "nan", "negative-zero"],
    )
    def test_matches_the_per_pair_loop(self, adjacency, weight_tol):
        g = UndirectedGraph.from_adjacency(adjacency)
        assert export_edges(g, weight_tol) == loop_edges(g, weight_tol)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 12),
        weight_tol=st.sampled_from(EDGE_TOLS),
        seed=st.integers(0, 2**16),
    )
    def test_random_graphs_match_the_per_pair_loop(self, n, weight_tol, seed):
        # symmetric by mirroring the upper triangle, which keeps -0.0 and NaN
        a = np.random.default_rng(seed).choice(EDGE_WEIGHTS, (n, n))
        a = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)
        g = UndirectedGraph.from_adjacency(a)
        assert export_edges(g, weight_tol) == loop_edges(g, weight_tol)

    def test_format(self):
        g = two_node_graph(0.5)
        assert export_edges(g) == "0 1 0.5\n"

    def test_self_loops_included(self):
        g = UndirectedGraph.from_adjacency([[0.25, 0.5], [0.5, 0.25]])
        lines = export_edges(g).splitlines()
        assert lines[0].split() == ["0", "0", "0.25"]
        assert lines[1].split() == ["0", "1", "0.5"]

"""Graph data structures, smoothness priors, and the filter/graph mappings.

Undirected graphs model denoisers (via the graph Laplacian); directed
bipartite-style graphs model interpolators (via the upper-right adjacency
block).  Both directions of the mapping are provided:

* a certified denoiser matrix maps to a generalized graph Laplacian,
* an invertible interpolator matrix maps to a directed adjacency block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGraphError, PreconditionError, SingularOperatorError

# Symmetry / row-sum tolerance (relative, Frobenius).
TAU_SYM = 1e-10
# PSD slack relative to the spectral norm.
TAU_PSD = 1e-8
# Relative pivot threshold below which a matrix is treated as singular; a
# homography's matrix is tested divided by its largest absolute entry.
PIVOT_RTOL = 1e-12
# A square interpolator is singular unless sigma_min > SV_RTOL * sigma_max.
SV_RTOL = 1e-10
# Strict positive-definiteness floor for denoiser eigenvalues.
PD_EIG_MIN = 1e-10
# Smallest Schur bound on a filter's lambda_min that certifies it PD without
# a factorization: far above PD_EIG_MIN and the n * eps rounding of a filter.
SCHUR_MARGIN = 1e-6
# Non-expansiveness slack on the spectral radius.
NONEXPANSIVE_SLACK = 1e-10
# Row/column-sum tolerance for the doubly-stochastic flag; Sinkhorn stops on it.
TAU_DS = 1e-8


def as_vector(x) -> np.ndarray:
    """A float 1-D array from anything array-like."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {v.shape}")
    return v


def as_signals(x) -> np.ndarray:
    """`as_vector`, but a stack of V signals (V, n) is accepted too."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D signal or a stack of them, got shape {v.shape}")
    return v


def _rel_asym(m: np.ndarray) -> float:
    denom = np.linalg.norm(m)
    if denom == 0.0:
        return 0.0
    return np.linalg.norm(m - m.T) / denom


@dataclass(frozen=True)
class UndirectedGraph:
    """Symmetric adjacency/degree/Laplacian bundle for an undirected graph.

    ``laplacian`` is the combinatorial Laplacian (degree minus adjacency);
    ``generalized_laplacian`` additionally keeps self-loop mass on the
    diagonal, and is the matrix used by the MAP solvers.
    """

    node_count: int
    adjacency: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray
    generalized_laplacian: np.ndarray
    self_loop_flag: bool

    @classmethod
    def from_adjacency(cls, adjacency) -> "UndirectedGraph":
        a = np.asarray(adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if _rel_asym(a) > TAU_SYM:
            raise ValueError("adjacency is not symmetric within tolerance")
        a = 0.5 * (a + a.T)
        n = a.shape[0]
        deg = np.diag(a.sum(axis=1))
        lap = deg - a
        loops = np.diag(np.diag(a))
        return cls(
            node_count=n,
            adjacency=a,
            degree=deg,
            laplacian=lap,
            generalized_laplacian=lap + loops,
            self_loop_flag=bool(np.any(np.abs(np.diag(a)) > 0.0)),
        )

    @classmethod
    def from_generalized_laplacian(cls, lg) -> "UndirectedGraph":
        """Recover the edge decomposition from a generalized Laplacian.

        Off-diagonal adjacency is the negated off-diagonal of ``lg``; the
        self-loop weights are the row sums of ``lg`` (which equal the
        residual diagonal mass once degrees are accounted for).
        """
        lg = np.asarray(lg, dtype=float)
        if lg.ndim != 2 or lg.shape[0] != lg.shape[1]:
            raise ValueError(f"laplacian must be square, got shape {lg.shape}")
        if _rel_asym(lg) > TAU_SYM:
            raise ValueError("generalized Laplacian is not symmetric within tolerance")
        lg = 0.5 * (lg + lg.T)
        n = lg.shape[0]
        a = -lg.copy()
        self_loops = lg.sum(axis=1)
        np.fill_diagonal(a, self_loops)
        deg = np.diag(a.sum(axis=1))
        lap = deg - a
        scale = max(np.abs(lg).max(), 1.0)
        return cls(
            node_count=n,
            adjacency=a,
            degree=deg,
            laplacian=lap,
            generalized_laplacian=lg,
            self_loop_flag=bool(np.any(np.abs(self_loops) > TAU_SYM * scale)),
        )

    def is_psd(self) -> bool:
        evals = np.linalg.eigvalsh(self.generalized_laplacian)
        return bool(evals.min() >= -TAU_PSD * max(np.abs(evals).max(), 1.0))


@dataclass(frozen=True)
class RandomWalkView:
    """Row-stochastic adjacency and random-walk Laplacian of an undirected graph."""

    row_stochastic_adjacency: np.ndarray
    random_walk_laplacian: np.ndarray

    @classmethod
    def from_graph(cls, graph: UndirectedGraph) -> "RandomWalkView":
        deg = np.diag(graph.degree)
        if np.any(deg <= 0.0):
            raise DegenerateGraphError("graph has zero-degree nodes")
        inv_d = (1.0 / deg)[:, None]
        return cls(
            row_stochastic_adjacency=inv_d * graph.adjacency,
            random_walk_laplacian=inv_d * graph.laplacian,
        )


@dataclass(frozen=True)
class DirectedInterpGraph:
    """Directed graph whose only edges run from original to new pixels.

    Only the upper-right M-by-N adjacency block is nonzero; for an
    invertible interpolator it equals the interpolator's matrix inverse.
    """

    original_count: int
    new_count: int
    block_mn: np.ndarray

    @property
    def adjacency(self) -> np.ndarray:
        m, n = self.original_count, self.new_count
        a = np.zeros((m + n, m + n))
        a[:m, m:] = self.block_mn
        return a


@dataclass(frozen=True)
class DenoiserOperator:
    """A square filter matrix with recorded (never assumed) property flags.

    ``spectrum`` and ``eigvecs`` (ascending, from ``eigh``) are computed on
    first access and cached; they are None for an asymmetric matrix.
    """

    matrix: np.ndarray
    kind: str = "custom"
    certified_symmetric: bool = False
    certified_pd: bool = False
    certified_nonexpansive: bool = False
    doubly_stochastic: bool = False

    @property
    def certified(self) -> bool:
        return (
            self.certified_symmetric
            and self.certified_pd
            and self.certified_nonexpansive
        )

    @cached_property
    def _eigh(self):
        if not self.certified_symmetric:
            return None, None
        return np.linalg.eigh(self.matrix)

    @property
    def spectrum(self) -> np.ndarray | None:
        return self._eigh[0]

    @property
    def eigvecs(self) -> np.ndarray | None:
        return self._eigh[1]


def _is_pd(a: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (V, n, n) have a Cholesky factorization.

    One stacked factorization; the matrices are factored one at a time
    only when it raises.
    """
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_is_pd(m[None]) for m in a])
    return np.ones(len(a), dtype=bool)


def schur_bound(psi, eig_floor) -> np.ndarray:
    """``eig_floor * min_i psi_ii`` of each filter of a stack (V, n, n).

    For the floor ``eig_floor`` of `denoisers.coordinate_work` this is a
    lower bound on each filter's smallest eigenvalue.
    """
    return eig_floor * np.diagonal(psi, axis1=1, axis2=2).min(axis=-1, initial=np.inf)


def certify_symmetric(psi, eig_floor=None) -> tuple:
    """PD and non-expansiveness flags of a stack (V, n, n) of symmetric filters.

    ``eig_floor``, if given, is a floor f with lambda_min >= f * min_i psi_ii
    for every filter of the stack (the floor of `denoisers.coordinate_work`); a
    filter whose `schur_bound` is at least ``SCHUR_MARGIN`` is PD.  Any
    other filter is PD when a Cholesky
    factorization of ``psi - PD_EIG_MIN * I`` succeeds; for it, ``psi``'s
    diagonal is lowered in place and then restored, so ``psi`` must be
    writable.  A filter is non-expansive when its
    largest absolute row sum, a bound on its spectral radius, is at most
    ``1 + NONEXPANSIVE_SLACK`` (always so for a nonnegative doubly
    stochastic filter), or else when ``(1 + slack) I - psi`` and, unless
    ``psi`` is PD, ``(1 + slack) I + psi`` factor.  No spectrum is computed.
    Returns two boolean arrays of length V.
    """
    bound = 1.0 + NONEXPANSIVE_SLACK
    eye = np.eye(psi.shape[-1])
    pd = np.zeros(len(psi), dtype=bool)
    if eig_floor is not None:
        pd = schur_bound(psi, eig_floor) >= SCHUR_MARGIN
    rest = np.flatnonzero(~pd)
    if len(rest):
        # psi - PD_EIG_MIN * I with no copy of a whole stack: the diagonal
        # is lowered in place, factored, and put back bit for bit
        shifted = psi if len(rest) == len(psi) else psi[rest]
        diagonal = np.einsum("...ii->...i", shifted)
        saved = diagonal.copy()
        diagonal -= PD_EIG_MIN
        try:
            pd[rest] = _is_pd(shifted)
        finally:
            diagonal[...] = saved
    # a Sinkhorn-balanced stack is nonnegative, and needs no np.abs copy
    rows = psi if psi.min(initial=0.0) >= 0.0 else np.abs(psi)
    nonexpansive = rows.sum(axis=-1).max(axis=-1, initial=0.0) <= bound
    for i in np.flatnonzero(~nonexpansive):
        one = psi[i : i + 1]
        nonexpansive[i] = _is_pd(bound * eye - one)[0] and (
            pd[i] or _is_pd(bound * eye + one)[0]
        )
    return pd, nonexpansive


def certify_denoiser(psi_matrix, kind: str = "custom") -> DenoiserOperator:
    """Check symmetry, positive definiteness, and non-expansiveness of a filter.

    Failing checks never raise; they produce an uncertified operator that
    downstream mappings reject.  The operator holds the matrix as given,
    and is certified symmetric only if it equals its transpose exactly;
    `sinkhorn_balance` is where a kernel within `TAU_SYM` of symmetric is
    made exactly symmetric.  A symmetric filter is certified without its
    spectrum, by `certify_symmetric`.
    """
    psi = np.asarray(psi_matrix, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise ValueError(f"denoiser matrix must be square, got shape {psi.shape}")

    symmetric = bool(np.array_equal(psi, psi.T))
    if symmetric:
        (pd,), (nonexpansive,) = certify_symmetric(psi[None])
    else:
        evals = np.linalg.eigvals(psi)
        pd = False
        nonexpansive = np.abs(evals).max(initial=0.0) <= 1.0 + NONEXPANSIVE_SLACK

    row = psi.sum(axis=1)
    col = psi.sum(axis=0)
    ds = bool(
        np.all(psi >= -TAU_DS)
        and np.abs(row - 1.0).max() <= TAU_DS
        and np.abs(col - 1.0).max() <= TAU_DS
    )
    return DenoiserOperator(
        matrix=psi,
        kind=kind,
        certified_symmetric=symmetric,
        certified_pd=bool(pd),
        certified_nonexpansive=bool(nonexpansive),
        doubly_stochastic=ds,
    )


def glr(graph: UndirectedGraph, x) -> float:
    """Graph Laplacian regularizer: the quadratic form of the combinatorial Laplacian.

    Equals the weighted sum of squared differences over the edge set when
    weights are nonnegative.
    """
    v = as_vector(x)
    if len(v) != graph.node_count:
        raise ValueError(
            f"signal length {len(v)} != node count {graph.node_count}"
        )
    return float(v @ graph.laplacian @ v)


def gsv(view: RandomWalkView, x) -> float:
    """Graph shift variation: squared distance between a signal and its shift."""
    v = as_vector(x)
    ar = view.row_stochastic_adjacency
    if len(v) != ar.shape[0]:
        raise ValueError(f"signal length {len(v)} != node count {ar.shape[0]}")
    r = v - ar @ v
    return float(r @ r)


def require_certified(psi) -> None:
    """Raise PreconditionError, naming the failed checks, unless ``psi`` is certified."""
    if not isinstance(psi, DenoiserOperator):
        raise PreconditionError("denoiser must be a certified DenoiserOperator")
    checks = {
        "symmetric": psi.certified_symmetric,
        "PD": psi.certified_pd,
        "non-expansive": psi.certified_nonexpansive,
    }
    failed = ", ".join(name for name, ok in checks.items() if not ok)
    if failed:
        raise PreconditionError(f"denoiser failed certification: not {failed}")


def denoiser_to_laplacian(psi: DenoiserOperator, mu: float) -> UndirectedGraph:
    """Map a certified denoiser to the undirected graph whose MAP filter it is.

    The generalized Laplacian is ``(inv(psi) - I) / mu``, formed from the
    eigendecomposition of ``psi``; solving the Laplacian-regularized MAP
    problem with weight ``mu`` then reproduces the denoiser exactly
    (exercised by the roundtrip tests).  Raises PreconditionError unless
    ``psi`` is certified and its spectrum is nonsingular within
    ``PIVOT_RTOL``: these are the conditions under which ``psi`` is the MAP
    filter of a Laplacian-regularized problem.
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    require_certified(psi)
    spectrum, v = psi.spectrum, psi.eigvecs
    if np.abs(spectrum).min() <= PIVOT_RTOL * np.abs(spectrum).max():
        raise PreconditionError("denoiser matrix is singular within pivot tolerance")
    lg = (v * ((1.0 / spectrum - 1.0) / mu)) @ v.T
    lg = 0.5 * (lg + lg.T)
    return UndirectedGraph.from_generalized_laplacian(lg)


def interpolator_to_adjacency(theta) -> DirectedInterpGraph:
    """Map an invertible square interpolator matrix to its directed adjacency block."""
    mat = np.asarray(theta, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SingularOperatorError(
            f"interpolator must be square after padding, got shape {mat.shape}"
        )
    require_nonsingular(mat, SingularOperatorError, "interpolator is numerically singular")
    n = mat.shape[0]
    return DirectedInterpGraph(
        original_count=n, new_count=n, block_mn=np.linalg.inv(mat)
    )


def require_nonsingular(mat, error, what):
    """Raise ``error(what ...)`` unless the square ``mat`` has sigma_min > SV_RTOL * sigma_max."""
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= SV_RTOL * svals[0]:
        raise error(f"{what} (sigma_min/sigma_max = {svals[-1] / svals[0]:.3e})")


def export_edges(graph: UndirectedGraph, weight_tol: float = 0.0) -> str:
    """Serialize a graph as `i j w` lines (0-based, upper triangle + self-loops)."""
    lines = []
    a = graph.adjacency
    n = graph.node_count
    for i in range(n):
        if abs(a[i, i]) > weight_tol:
            lines.append(f"{i} {i} {float(a[i, i])!r}")
        for j in range(i + 1, n):
            if abs(a[i, j]) > weight_tol:
                lines.append(f"{i} {j} {float(a[i, j])!r}")
    return "\n".join(lines) + ("\n" if lines else "")

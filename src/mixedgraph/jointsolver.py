"""MAP solvers for denoising, interpolation, and the two joint formulations.

All four problems are convex quadratics with symmetric positive definite
coefficient matrices.  The non-separable joint problem is solved in output
space, one dense n x n system per tile, by `output_space_solve`: the
pipeline calls it on a chunk of tiles, and `reduced_nonseparable` on one
tile behind its certification and dimension checks.  The assembled 2m x 2m
systems, each solved by one dense factorization, and the closed-form
derived operators are kept as the reference solutions that the tests hold
that solve to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SOLVER, PreconditionError, SingularOperatorError, SolverError, outcome_text
from .graphcore import (
    DenoiserOperator,
    DirectedInterpGraph,
    UndirectedGraph,
    as_vector,
    require_certified,
)

# the settable values of a solve method; every one runs the same dense solve
METHODS = ("cg", "direct")


@dataclass(frozen=True)
class SolverWeights:
    """Regularization weights for the joint objectives.

    The pipeline's joint output depends on them only through `c`, which
    must be finite, and positive when kappa is.
    """

    mu: float = 0.3
    gamma: float = 0.5
    kappa: float = 0.3

    def __post_init__(self):
        # NaN passes every comparison, so finiteness is checked first
        for name, value in (("mu", self.mu), ("gamma", self.gamma), ("kappa", self.kappa)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu <= 0 or self.gamma <= 0 or self.kappa < 0:
            raise ValueError("require mu > 0, gamma > 0, kappa >= 0")
        c = self.c if self.gamma * self.mu > 0 else math.inf
        if not math.isfinite(c) or (self.kappa > 0 and c == 0):
            raise ValueError(
                f"c = kappa (1 + gamma) / (gamma mu) is {c:g}; it must be finite, "
                "and positive when kappa > 0"
            )

    @property
    def c(self) -> float:
        """``kappa (1 + gamma) / (gamma mu)``, the weight of the joint solve."""
        return self.kappa * (1.0 + self.gamma) / (self.gamma * self.mu)


@dataclass(frozen=True)
class BlockSystem:
    """2x2 block partition of a square system with its Schur complement."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def assembled(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    def schur_p(self) -> np.ndarray:
        """Inverse of the Schur complement of the lower-right block."""
        try:
            d_inv_c = np.linalg.solve(self.d, self.c)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError("lower-right block is singular") from exc
        schur = self.a - self.b @ d_inv_c
        try:
            return np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError("Schur complement is singular") from exc


@dataclass(frozen=True)
class JointSolution:
    """Solution of a joint system plus solver stats."""

    full_signal: np.ndarray
    original_count: int
    iterations: int = 0
    residual: float = 0.0

    @property
    def denoised_block(self) -> np.ndarray:
        return self.full_signal[: self.original_count]

    @property
    def interpolated_block(self) -> np.ndarray:
        return self.full_signal[self.original_count :]


def block_inverse(system: BlockSystem) -> np.ndarray:
    """Invert a 2x2 block matrix through the Schur complement of its D block."""
    p = system.schur_p()
    d_inv = np.linalg.inv(system.d)
    top = np.hstack([p, -p @ system.b @ d_inv])
    dcp = d_inv @ system.c @ p
    bottom = np.hstack([-dcp, d_inv + dcp @ system.b @ d_inv])
    return np.vstack([top, bottom])


def _laplacian_matrix(l) -> np.ndarray:
    if isinstance(l, UndirectedGraph):
        return l.generalized_laplacian
    return np.asarray(l, dtype=float)


def map_denoise(y, graph: UndirectedGraph, mu: float) -> np.ndarray:
    """Solve the Laplacian-regularized denoising problem in closed form."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    y = as_vector(y)
    lg = _laplacian_matrix(graph)
    if len(y) != lg.shape[0]:
        raise ValueError("signal length does not match graph size")
    if isinstance(graph, UndirectedGraph) and not graph.is_psd():
        raise PreconditionError("graph Laplacian must be PSD")
    coeff = np.eye(len(y)) + mu * lg
    try:
        np.linalg.cholesky(coeff)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("denoising system is not positive definite") from exc
    return np.linalg.solve(coeff, y)


def _interp_system(a_mn: np.ndarray, gamma: float) -> BlockSystem:
    m, n = a_mn.shape
    return BlockSystem(
        a=(1.0 + gamma) * np.eye(m),
        b=-gamma * a_mn,
        c=-gamma * a_mn.T,
        d=gamma * (a_mn.T @ a_mn),
    )


def map_interpolate(y, graph: DirectedInterpGraph, gamma: float) -> np.ndarray:
    """Solve the shift-variation-regularized interpolation problem."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    y = as_vector(y)
    m, n = graph.original_count, graph.new_count
    if len(y) != m:
        raise ValueError("signal length does not match original pixel count")
    coeff = _interp_system(graph.block_mn, gamma).assembled
    rhs = np.concatenate([y, np.zeros(n)])
    try:
        x = np.linalg.solve(coeff, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("interpolation system is singular", residual=None) from exc
    res = np.linalg.norm(coeff @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if res > 1e-6:
        raise SolverError("interpolation solve inaccurate", residual=res)
    return x


def joint_separable(
    y,
    laplacian,
    graph: DirectedInterpGraph,
    weights: SolverWeights,
    verify: bool = True,
) -> JointSolution:
    """Joint problem with the smoothness prior on original pixels.

    Solves in closed form as denoise-then-interpolate; when `verify` is on,
    the assembled system is also solved numerically and both paths are
    required to agree to 1e-6 relative.
    """
    y = as_vector(y)
    lg = _laplacian_matrix(laplacian)
    m = graph.original_count
    if lg.shape[0] != m or len(y) != m:
        raise ValueError("dimension mismatch between signal, Laplacian, and graph")
    psi_y = map_denoise(y, laplacian, weights.mu)
    interp = np.linalg.solve(graph.block_mn, psi_y)
    x = np.concatenate([psi_y, interp])

    if verify:
        system = _interp_system(graph.block_mn, weights.gamma)
        coeff = system.assembled
        coeff[:m, :m] += weights.mu * lg
        rhs = np.concatenate([y, np.zeros(graph.new_count)])
        x_num = np.linalg.solve(coeff, rhs)
        gap = np.linalg.norm(x_num - x) / max(np.linalg.norm(x), 1e-300)
        if gap > 1e-6:
            raise SolverError(
                f"closed form and numerical solve disagree ({gap:.3e})", residual=gap
            )
    return JointSolution(full_signal=x, original_count=m)


def nonseparable_matrix(
    graph: DirectedInterpGraph, lbar, weights: SolverWeights
) -> np.ndarray:
    """Coefficient matrix of the joint problem with the prior on new pixels."""
    a_mn = graph.block_mn
    lbar = _laplacian_matrix(lbar)
    if lbar.shape[0] != graph.new_count:
        raise ValueError("interpolated-pixel Laplacian has wrong size")
    coeff = _interp_system(a_mn, weights.gamma).assembled
    m = graph.original_count
    coeff[m:, m:] += weights.kappa * lbar
    return coeff


def joint_nonseparable(
    y,
    graph: DirectedInterpGraph,
    lbar,
    weights: SolverWeights,
    method: str = "cg",
    cg_tol: float = 1e-8,
) -> JointSolution:
    """Joint problem with the smoothness prior on interpolated pixels.

    Solves the assembled 2m x 2m system with one dense LU factorization
    and reports its relative residual; a singular system raises
    SolverError.  ``method`` must be one of `METHODS`, but each runs that
    solve, and ``cg_tol`` is unused: they are kept for the callers that
    pass them.
    """
    if method not in METHODS:
        raise ValueError(f"unknown solve method {method!r}")
    y = as_vector(y)
    m, n = graph.original_count, graph.new_count
    if len(y) != m:
        raise ValueError("signal length does not match original pixel count")
    coeff = nonseparable_matrix(graph, lbar, weights)
    rhs = np.concatenate([y, np.zeros(n)])
    try:
        x = np.linalg.solve(coeff, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("joint system is singular") from exc
    res = np.linalg.norm(coeff @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return JointSolution(full_signal=x, original_count=m, iterations=1, residual=res)


def reduced_nonseparable(y, theta_real, psi: DenoiserOperator, weights: SolverWeights):
    """Real interpolated block of the non-separable joint solution.

    Eliminating the original-pixel block of the 2m x 2m system and
    substituting ``x_n = theta @ w`` leaves ``(I_m + c theta_r.T G theta_r)
    w = y`` with ``c = kappa (1 + gamma) / (gamma mu)`` and
    ``G = inv(psi) - I`` (``G / mu`` is the Laplacian of the n x n denoiser
    ``psi``); the real outputs are ``z = theta_r @ w``.  Only the real rows
    ``theta_real`` (n x m) enter, so no padding or interpolator inverse is
    needed.  The push-through identity (Henderson and Searle, SIAM Review
    1981) gives ``z = (I_n + c P G)^-1 theta_r y`` with
    ``P = theta_r theta_r.T``, and ``z = psi v`` removes ``inv(psi)``: one
    n x n solve with one right-hand side, ``(psi + c (P - P psi)) v =
    theta_r y``, for n <= m and for magnified tiles (n > m) alike.

    ``psi`` must be certified, or PreconditionError is raised: its
    eigenvalues then lie in ``(PD_EIG_MIN, 1 + NONEXPANSIVE_SLACK]``, so it
    is nonsingular, as `graphcore.denoiser_to_laplacian` requires.  The
    dimensions are checked, and the solve is `output_space_solve` of a
    chunk of one tile; a singular system raises SolverError.
    """
    require_certified(psi)
    y = as_vector(y)
    theta_real = np.asarray(theta_real, dtype=float)
    n, m = theta_real.shape
    if len(y) != m or psi.matrix.shape != (n, n):
        raise ValueError("dimension mismatch between signal, interpolator, and denoiser")
    ty = np.matmul(theta_real, y[:, None])[None, None, :, 0]
    z, singular = output_space_solve(ty, [theta_real], psi.matrix[None, None], weights.c)
    if singular[0, 0]:
        raise SolverError(outcome_text(SOLVER))
    return z[0, 0]


def output_space_solve(ty, thetas, psi, c: float):
    """The joint outputs of a chunk of tiles: the solve of `reduced_nonseparable`, unchecked.

    ``ty`` holds the signals theta_r y of T tiles on V images, (T, V, n);
    ``thetas`` the tiles' dense real rows theta_r (n, m); and ``psi`` their
    certified denoisers, (T, K, n, n), with K = V, one denoiser per signal,
    or K = 1, one that serves all the tile's signals (numpy broadcasting
    pairs them).  For ``c = 0`` the solution is the interpolation, and
    ``ty`` itself is returned.  Otherwise P = theta_r theta_r^T is formed
    once per tile, and the matrices ``A = psi + c (P - P psi)`` of all the
    chunk's denoisers are written into one stack.  A is not symmetric, but
    it equals ``(I + c P G) psi``; ``P G`` is a product of positive
    semidefinite matrices (up to the certification slack), so its
    eigenvalues are real and >= 0, A is nonsingular and LU with partial
    pivoting is safe.  The stack is one stacked solve, which runs the same
    LAPACK routine on each system, so every signal gets the bits it would
    get alone.  Only when that solve fails is each (tile, image) solved
    alone, so that a singular system fails only the signals it serves.
    Returns ``(z, singular)``: the outputs ``psi inv(A) ty``, (T, V, n),
    and a boolean (T, V) array that is True where a (tile, image)'s
    system is singular, whose row of z is NaN.
    """
    singular = np.zeros(ty.shape[:2], dtype=bool)
    if c == 0:
        return ty, singular
    a = np.empty(psi.shape)
    for theta, tile_psi, tile_a in zip(thetas, psi, a):
        p = theta @ theta.T
        np.matmul(p, tile_psi, out=tile_a)
        np.subtract(p, tile_a, out=tile_a)
        tile_a *= c
        tile_a += tile_psi
    try:
        return _solve(a, ty, psi), singular
    except np.linalg.LinAlgError:
        pass
    z = np.full(ty.shape, np.nan)
    a, psi = (np.broadcast_to(x, ty.shape[:2] + x.shape[2:]) for x in (a, psi))
    for u in np.ndindex(ty.shape[:2]):
        try:
            z[u] = _solve(a[u], ty[u], psi[u])
        except np.linalg.LinAlgError:
            singular[u] = True
    return z, singular


def _solve(a, ty, psi) -> np.ndarray:
    """``psi inv(a) ty``, with ``a`` and ``psi`` (..., n, n) and ``ty`` (..., n) broadcast.

    A singular system raises numpy's LinAlgError.
    """
    return np.matmul(psi, np.linalg.solve(a, ty[..., None]))[..., 0]


def derive_operators(graph: DirectedInterpGraph, lbar, weights: SolverWeights):
    """Closed-form denoiser and interpolator of the non-separable solution.

    Returns (psi_star, theta_star) such that the joint solution equals
    stacking psi_star @ y over theta_star @ psi_star @ y.
    """
    a_mn = graph.block_mn
    a_nm = a_mn.T
    lbar = _laplacian_matrix(lbar)
    gamma, kappa = weights.gamma, weights.kappa
    inner = gamma * (a_nm @ a_mn) + kappa * lbar
    try:
        inner_inv_anm = np.linalg.solve(inner, a_nm)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(
            "inner matrix of the derived operators is singular"
        ) from exc
    m = graph.original_count
    schur = (gamma + 1.0) * np.eye(m) - gamma**2 * (a_mn @ inner_inv_anm)
    try:
        psi_star = np.linalg.inv(schur)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("derived denoiser block is singular") from exc
    theta_star = gamma * inner_inv_anm
    return psi_star, theta_star


# ---------------------------------------------------------------------------
# Objectives and analytic gradients (used for optimality certificates).

def objective_denoise(x, y, laplacian, mu: float) -> float:
    x, y = as_vector(x), as_vector(y)
    lg = _laplacian_matrix(laplacian)
    r = y - x
    return float(r @ r + mu * (x @ lg @ x))


def gradient_denoise(x, y, laplacian, mu: float) -> np.ndarray:
    x, y = as_vector(x), as_vector(y)
    lg = _laplacian_matrix(laplacian)
    return 2.0 * (x - y) + 2.0 * mu * (lg @ x)


def _shift_residual(x, graph: DirectedInterpGraph):
    # H (x - A x) for the block-structured adjacency.
    m = graph.original_count
    return x[:m] - graph.block_mn @ x[m:]


def objective_interpolate(x, y, graph: DirectedInterpGraph, gamma: float) -> float:
    x, y = as_vector(x), as_vector(y)
    m = graph.original_count
    r = y - x[:m]
    s = _shift_residual(x, graph)
    return float(r @ r + gamma * (s @ s))


def gradient_interpolate(x, y, graph: DirectedInterpGraph, gamma: float) -> np.ndarray:
    x, y = as_vector(x), as_vector(y)
    m = graph.original_count
    s = _shift_residual(x, graph)
    grad = np.zeros_like(x)
    grad[:m] = 2.0 * (x[:m] - y) + 2.0 * gamma * s
    grad[m:] = -2.0 * gamma * (graph.block_mn.T @ s)
    return grad


def objective_separable(x, y, laplacian, graph, weights: SolverWeights) -> float:
    x = as_vector(x)
    m = graph.original_count
    lg = _laplacian_matrix(laplacian)
    return objective_interpolate(x, y, graph, weights.gamma) + weights.mu * float(
        x[:m] @ lg @ x[:m]
    )


def gradient_separable(x, y, laplacian, graph, weights: SolverWeights) -> np.ndarray:
    x = as_vector(x)
    m = graph.original_count
    lg = _laplacian_matrix(laplacian)
    grad = gradient_interpolate(x, y, graph, weights.gamma)
    grad[:m] += 2.0 * weights.mu * (lg @ x[:m])
    return grad


def objective_nonseparable(x, y, graph, lbar, weights: SolverWeights) -> float:
    x = as_vector(x)
    m = graph.original_count
    lbar = _laplacian_matrix(lbar)
    return objective_interpolate(x, y, graph, weights.gamma) + weights.kappa * float(
        x[m:] @ lbar @ x[m:]
    )


def gradient_nonseparable(x, y, graph, lbar, weights: SolverWeights) -> np.ndarray:
    x = as_vector(x)
    m = graph.original_count
    lbar = _laplacian_matrix(lbar)
    grad = gradient_interpolate(x, y, graph, weights.gamma)
    grad[m:] += 2.0 * weights.kappa * (lbar @ x[m:])
    return grad

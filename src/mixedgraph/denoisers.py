"""Linear denoiser matrices over pixel index sets, plus Sinkhorn balancing.

All constructors take an explicit coordinate list so the same code serves
original-pixel sets and interpolated-pixel sets of any size.  Raw kernels
are symmetric and nonnegative; `sinkhorn_balance` turns them into
doubly-stochastic operators suitable for the denoiser/graph mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import BalanceError
from .graphcore import DenoiserOperator, certify_denoiser, as_vector


@dataclass(frozen=True)
class KernelParams:
    """Kernel hyperparameters; variances are in pixel^2 / intensity^2 units."""

    spatial_var: float = 0.3
    range_var: float = 0.3
    nlm_patch_size: int = 3
    nlm_search_window: int = 9
    nlm_h2: float = 0.3

    def __post_init__(self):
        if self.spatial_var <= 0 or self.range_var <= 0 or self.nlm_h2 <= 0:
            raise ValueError("kernel variances must be positive")
        if self.nlm_patch_size % 2 == 0 or self.nlm_search_window % 2 == 0:
            raise ValueError("NLM patch and window sizes must be odd")
        if self.nlm_patch_size >= self.nlm_search_window:
            raise ValueError("NLM patch must be smaller than the search window")


def _as_coords(coords) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2:
        raise ValueError(f"coords must be an (n, 2) array, got shape {c.shape}")
    s = c[np.lexsort((c[:, 1], c[:, 0]))]
    if np.any((s[1:] == s[:-1]).all(axis=1)):
        raise ValueError("duplicate coordinates")
    return c


def _pairwise_sq_dist(c: np.ndarray) -> np.ndarray:
    diff = c[:, None, :] - c[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def gaussian_matrix(coords, params: KernelParams) -> np.ndarray:
    """Spatial Gaussian kernel; unit diagonal, symmetric, strictly positive."""
    c = _as_coords(coords)
    return np.exp(-_pairwise_sq_dist(c) / (2.0 * params.spatial_var))


def bilateral_matrix(coords, intensities, params: KernelParams) -> np.ndarray:
    """Product of spatial and range Gaussian kernels (bilateral weights)."""
    c = _as_coords(coords)
    y = as_vector(intensities)
    if len(y) != len(c):
        raise ValueError("intensities length must match coords")
    if y.min() < 0.0 or y.max() > 1.0:
        raise ValueError("intensities must lie in [0, 1]")
    spatial = np.exp(-_pairwise_sq_dist(c) / (2.0 * params.spatial_var))
    dy = y[:, None] - y[None, :]
    return spatial * np.exp(-(dy * dy) / (2.0 * params.range_var))


def fill_holes_nearest(grid: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Fill invalid grid cells with the value of the nearest valid cell."""
    if valid.all():
        return grid
    if not valid.any():
        raise ValueError("grid has no valid cells")
    _, (ri, ci) = ndimage.distance_transform_edt(~valid, return_indices=True)
    return grid[ri, ci]


def nlm_matrix(coords, intensities, params: KernelParams) -> np.ndarray:
    """Non-local-means weights with a square search window.

    Patch vectors are extracted from a grid covering the coordinate set
    (holes filled from the nearest neighbor, boundary replicate-padded).
    Coordinates must be integer-valued for patch extraction to make sense.
    """
    c = _as_coords(coords)
    y = as_vector(intensities)
    if len(y) != len(c):
        raise ValueError("intensities length must match coords")
    ci = np.rint(c).astype(int)
    if np.abs(c - ci).max() > 1e-9:
        raise ValueError("NLM requires integer pixel coordinates")

    pr = params.nlm_patch_size // 2
    wr = params.nlm_search_window // 2

    r0, c0 = ci.min(axis=0)
    rows = ci[:, 0] - r0
    cols = ci[:, 1] - c0
    h, w = rows.max() + 1, cols.max() + 1
    grid = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)
    grid[rows, cols] = y
    valid[rows, cols] = True
    grid = fill_holes_nearest(grid, valid)
    padded = np.pad(grid, pr, mode="edge")

    # Patch feature vectors, one per coordinate, each patch in row-major order.
    k = params.nlm_patch_size
    dr, dc = divmod(np.arange(k * k), k)
    feats = padded[rows[:, None] + dr, cols[:, None] + dc]

    d2 = _pairwise_sq_dist_features(feats)
    weights = np.exp(-d2 / params.nlm_h2)
    cheb = np.maximum(
        np.abs(ci[:, 0][:, None] - ci[:, 0][None, :]),
        np.abs(ci[:, 1][:, None] - ci[:, 1][None, :]),
    )
    weights[cheb > wr] = 0.0
    return 0.5 * (weights + weights.T)


def _pairwise_sq_dist_features(f: np.ndarray) -> np.ndarray:
    # Direct differencing: exact zeros on the diagonal and exact symmetry,
    # which keeps the kernel permutation-equivariant bit for bit.
    diff = f[:, None, :] - f[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def sinkhorn_balance(
    w,
    tol: float = 1e-8,
    max_iter: int = 1000,
    kind: str = "custom",
) -> DenoiserOperator:
    """Balance a symmetric nonnegative kernel into a doubly stochastic operator.

    Uses the symmetric one-vector iteration d <- sqrt(d / (W d)) so that
    diag(d) W diag(d) stays symmetric by construction.  Iterates past `tol`
    toward machine precision while progress is being made, then certifies
    the result (symmetry, PD, non-expansiveness) and records the flags.

    Raises BalanceError (with the final residual) if the row-sum residual
    is still above `tol` after `max_iter` iterations.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"kernel must be square, got shape {w.shape}")
    if np.linalg.norm(w - w.T) > 1e-10 * max(np.linalg.norm(w), 1.0):
        raise ValueError("kernel must be symmetric")
    if w.min() < 0.0:
        raise ValueError("kernel must be nonnegative")
    if np.any(np.diag(w) <= 0.0):
        raise ValueError("kernel must have a strictly positive diagonal")

    d = np.ones(w.shape[0])
    residual = np.inf
    for _ in range(max_iter):
        wd = w @ d
        prev = residual
        residual = np.abs(d * wd - 1.0).max()
        # Stop at machine precision, or once below tol with progress stalled.
        if residual < 1e-13 or (residual <= tol and residual > 0.5 * prev):
            break
        d = np.sqrt(d / wd)
    else:
        wd = w @ d
        residual = np.abs(d * wd - 1.0).max()
    if residual > tol:
        raise BalanceError(
            f"Sinkhorn balancing did not converge (residual {residual:.3e})",
            residual=residual,
        )

    psi = w * d[:, None] * d[None, :]
    psi = 0.5 * (psi + psi.T)
    return certify_denoiser(psi, kind=kind)


def identity_operator(n: int) -> DenoiserOperator:
    """The do-nothing denoiser; trivially certified and doubly stochastic."""
    return DenoiserOperator(
        matrix=np.eye(n),
        kind="identity",
        certified_symmetric=True,
        certified_pd=True,
        certified_nonexpansive=True,
        doubly_stochastic=True,
    )


def build_denoiser(kind: str, coords, intensities, params: KernelParams):
    """Raw kernel matrix for a named denoiser kind (before balancing)."""
    if kind == "gaussian":
        return gaussian_matrix(coords, params)
    if kind == "bilateral":
        return bilateral_matrix(coords, intensities, params)
    if kind == "nlm":
        return nlm_matrix(coords, intensities, params)
    if kind == "identity":
        return np.eye(len(coords))
    raise ValueError(f"unknown denoiser kind {kind!r}")

"""Linear denoiser matrices over pixel index sets, plus Sinkhorn balancing.

All constructors take an explicit coordinate list so the same code serves
original-pixel sets and interpolated-pixel sets of any size.  `KINDS` names
the denoiser kinds; the raw kernel of a kind in `SIGNAL_FREE` depends on the
coordinates alone.  The intensity-dependent constructors also take a stack
of V signals (V, n) and return one kernel per signal (V, n, n), doing the
work that depends only on the coordinates once.  `coordinate_work` does
that work, and is the one check of a kind and its coordinates: it returns
the factor of the raw kernel that depends on the coordinates alone (for a
signal-free kind, the whole kernel), which `build_denoiser` takes back so
that a caller can reuse it for coordinate sets that differ by a shift,
and a floor that bounds a balanced kernel's smallest eigenvalue from
below, so that certification can prove it PD without a factorization.
Raw kernels are symmetric and nonnegative; `sinkhorn_balance` turns one
into a doubly-stochastic operator suitable for the denoiser/graph
mapping, and `sinkhorn_scale` balances a stack.  Sinkhorn stops at a
row-sum residual of `SINKHORN_STOP`, a decade below the slack of the
non-expansiveness certificate, which the n * eps rounding of forming a
balanced kernel cannot use up.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BALANCE, BalanceError, outcome_text
from .graphcore import (
    NONEXPANSIVE_SLACK,
    TAU_DS,
    TAU_SYM,
    DenoiserOperator,
    certify_denoiser,
)

KINDS = ("gaussian", "bilateral", "nlm", "identity")
# the kinds whose raw kernel depends on the coordinates alone
SIGNAL_FREE = ("identity", "gaussian")
# Sinkhorn's iteration cap; its tolerance is TAU_DS, the doubly-stochastic flag's
SINKHORN_MAX_ITER = 1000
# Sinkhorn's stop, a decade below the row-sum certificate's slack (see sinkhorn_scale)
SINKHORN_STOP = NONEXPANSIVE_SLACK / 10


def require_integers(config, *names):
    """Store each named field of a frozen dataclass as a Python int.

    Raises ValueError for a value that is not a Python or numpy integer; a
    bool is not one.
    """
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))


@dataclass(frozen=True)
class KernelParams:
    """Kernel hyperparameters; variances are in pixel^2 / intensity^2 units."""

    spatial_var: float = 0.3
    range_var: float = 0.3
    nlm_patch_size: int = 3
    nlm_search_window: int = 9
    nlm_h2: float = 0.3

    def __post_init__(self):
        variances = (self.spatial_var, self.range_var, self.nlm_h2)
        if not all(math.isfinite(v) and v > 0 for v in variances):
            raise ValueError("kernel variances must be positive and finite")
        require_integers(self, "nlm_patch_size", "nlm_search_window")
        if self.nlm_patch_size < 1:
            raise ValueError(f"NLM patch size must be at least 1, got {self.nlm_patch_size}")
        if self.nlm_patch_size % 2 == 0 or self.nlm_search_window % 2 == 0:
            raise ValueError("NLM patch and window sizes must be odd")
        if self.nlm_patch_size >= self.nlm_search_window:
            raise ValueError("NLM patch must be smaller than the search window")


def _pairwise_sq_dist(c: np.ndarray) -> np.ndarray:
    """Squared distances between the (row, col) points c (..., n, 2), as (..., n, n).

    Direct differencing, (r_i - r_j)^2 + (c_i - c_j)^2 from one outer
    difference per coordinate: exact zeros on the diagonal and exact
    symmetry, so a kernel needs no symmetrizing and is
    permutation-equivariant bit for bit.
    """
    r, col = c[..., 0], c[..., 1]
    d = r[..., :, None] - r[..., None, :]
    d *= d
    dc = col[..., :, None] - col[..., None, :]
    dc *= dc
    d += dc
    return d


def gaussian_matrix(coords, params: KernelParams) -> np.ndarray:
    """Spatial Gaussian kernel; unit diagonal, symmetric, strictly positive."""
    return build_denoiser("gaussian", coords, None, params)


def _as_intensities(intensities, n: int) -> np.ndarray:
    """A float signal (n,) or stack of V signals (V, n) from anything array-like."""
    y = np.asarray(intensities, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D signal or a stack of them, got shape {y.shape}")
    if y.shape[-1] != n:
        raise ValueError("intensities length must match coords")
    return y


def bilateral_matrix(coords, intensities, params: KernelParams) -> np.ndarray:
    """Product of spatial and range Gaussian kernels (bilateral weights).

    For a stack of signals (V, n) the spatial factor is computed once and
    each signal gets its own range factor: the result is (V, n, n).
    """
    return build_denoiser("bilateral", coords, intensities, params)


def _bilateral(spatial: np.ndarray, intensities, params: KernelParams) -> np.ndarray:
    y = _as_intensities(intensities, len(spatial))
    # written so that a NaN, which compares False, fails it
    if not (0.0 <= y.min() and y.max() <= 1.0):
        raise ValueError("intensities must lie in [0, 1]")
    # The range factor, and then the kernel, are built in place in one
    # buffer of the output's size.
    k = np.subtract(y[..., :, None], y[..., None, :])
    k *= k
    k /= -2.0 * params.range_var
    np.exp(k, out=k)
    k *= spatial
    return k


def fill_holes_nearest(grid: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Fill invalid grid cells with the value of the nearest valid cell.

    The nearest cell is the one whose indices
    ``scipy.ndimage.distance_transform_edt(~valid, return_indices=True)``
    returns, found in two passes.  Down each column, each cell takes the
    nearest valid row, the lower one on a tie.  Along each row, each cell
    then takes the column whose first-pass cell is nearest in squared
    distance, the lower column on a tie.  Raises ValueError for a grid
    with no valid cell.
    """
    if valid.all():
        return grid
    if not valid.any():
        raise ValueError("grid has no valid cells")
    h, w = valid.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    # a column with no valid cell gets a row h + w away, farther than any valid cell
    above = np.maximum.accumulate(np.where(valid, rows, -h - w), axis=0)
    below = np.minimum.accumulate(np.where(valid, rows, 2 * h + w)[::-1], axis=0)[::-1]
    near = np.where(rows - above <= below - rows, above, below)
    # (h, w, w): the squared distance from each cell to each column's near cell in its row
    dist = (cols[:, None] - cols) ** 2 + ((rows - near) ** 2)[:, None, :]
    ci = dist.argmin(axis=2)
    return grid[np.take_along_axis(near, ci, axis=1), ci]


def nlm_matrix(coords, intensities, params: KernelParams) -> np.ndarray:
    """Non-local-means weights with a square search window.

    Patch vectors are extracted from a grid covering the coordinate set
    (holes filled from the nearest neighbor, boundary replicate-padded).
    Coordinates must be integer-valued for patch extraction to make sense.
    The grid is never built: every patch entry is an index into the signal,
    computed once from the coordinates, so a stack of signals (V, n) costs
    one gather and gives one kernel per signal (V, n, n).  Only the pairs
    i < j inside the window get a patch distance, by direct differencing,
    and their weight is written to (i, j) and (j, i); the diagonal is
    exactly 1.  The result is bit for bit the full pairwise kernel with the
    pairs outside the window zeroed.
    """
    return build_denoiser("nlm", coords, intensities, params)


def _nlm_layout(c: np.ndarray, params: KernelParams) -> tuple:
    """NLM's ``(gather, (i, j))`` for checked coordinates; see `coordinate_work`.

    The pairs are listed in row-major order of the (n, n) kernel's upper
    triangle, each unordered in-window pair once.
    """
    ci = np.rint(c).astype(int)
    if np.abs(c - ci).max() > 1e-9:
        raise ValueError("NLM requires integer pixel coordinates")

    pr = params.nlm_patch_size // 2
    wr = params.nlm_search_window // 2

    r0, c0 = ci.min(axis=0)
    rows = ci[:, 0] - r0
    cols = ci[:, 1] - c0
    h, w = rows.max() + 1, cols.max() + 1
    # Grid cell -> signal index, holes taking their nearest pixel's index.
    index = np.full((h, w), -1)
    index[rows, cols] = np.arange(len(c))
    index = fill_holes_nearest(index, index >= 0)

    # Patch feature vectors, one per coordinate, each patch in row-major
    # order; clipping to the grid is the replicate padding.
    k = params.nlm_patch_size
    dr, dc = divmod(np.arange(k * k), k)
    gather = index[
        np.clip(rows[:, None] + dr - pr, 0, h - 1),
        np.clip(cols[:, None] + dc - pr, 0, w - 1),
    ]
    cheb = np.maximum(
        np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])
    )
    return gather, np.nonzero(np.triu(cheb <= wr, 1))


def _nlm(layout: tuple, intensities, params: KernelParams) -> np.ndarray:
    gather, (i, j) = layout
    n = len(gather)
    y = _as_intensities(intensities, n)
    # np.take returns C order; ``y[..., gather]`` would put the stack axis
    # innermost, and einsum would then sum each kernel's feature distances
    # in another order than for one signal alone (and more slowly).
    feats = np.take(y, gather, axis=-1)
    # Direct differencing of each in-window pair i < j: the same bits as
    # the full pairwise difference, whose lower triangle mirrors the upper.
    # One signal at a time, so that a stack's pair differences, 1.4 MB for
    # 8 signals of a 10 x 10 tile, are never all held at once.
    signals = feats.reshape(-1, n, feats.shape[-1])
    d2 = np.empty((len(signals), len(i)))
    for f, out in zip(signals, d2):
        diff = np.take(f, i, axis=0)
        diff -= np.take(f, j, axis=0)
        np.einsum("pk,pk->p", diff, diff, out=out)
    d2 = d2.reshape(y.shape[:-1] + (len(i),))
    d2 /= -params.nlm_h2
    np.exp(d2, out=d2)
    weights = np.zeros(d2.shape[:-1] + (n, n))
    weights[..., i, j] = d2
    weights[..., j, i] = d2
    # exp(-0 / h2) on the diagonal
    weights.reshape(d2.shape[:-1] + (n * n,))[..., :: n + 1] = 1.0
    return weights


def sinkhorn_balance(
    w,
    tol: float = TAU_DS,
    max_iter: int = SINKHORN_MAX_ITER,
    kind: str = "custom",
) -> DenoiserOperator:
    """Balance a symmetric nonnegative kernel into a doubly stochastic operator.

    Raises ValueError unless the kernel is square, finite, symmetric to
    within `TAU_SYM`, nonnegative and has a positive diagonal.  Balances
    0.5 (W + W^T), which is W for an exactly symmetric W, with
    `sinkhorn_scale`, then certifies the exactly symmetric result by
    `graphcore.certify_denoiser`'s one rule and records the flags.

    Raises BalanceError (with the final residual) if the row-sum residual
    is still above `tol` after `max_iter` iterations.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"kernel must be square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("kernel must be finite")
    # the norms and the average are needed only for a kernel not exactly symmetric
    if not np.array_equal(w, w.T):
        if np.linalg.norm(w - w.T) > TAU_SYM * max(np.linalg.norm(w), 1.0):
            raise ValueError("kernel must be symmetric")
        w = 0.5 * (w + w.T)
    if w.min() < 0.0:
        raise ValueError("kernel must be nonnegative")
    if np.any(np.diagonal(w) <= 0.0):
        raise ValueError("kernel must have a strictly positive diagonal")
    (psi,), (residual,) = sinkhorn_scale(w[None], tol=tol, max_iter=max_iter)
    if residual > tol:
        raise BalanceError(outcome_text(BALANCE, residual), residual=float(residual))
    return certify_denoiser(psi, kind=kind)


def sinkhorn_scale(w, tol: float = TAU_DS, max_iter: int = SINKHORN_MAX_ITER):
    """Balance a stack of symmetric nonnegative kernels (V, n, n), each on its own.

    The kernels are not checked; `sinkhorn_balance` checks outside input.

    Uses the symmetric one-vector iteration d <- sqrt(d / (W d)) of Knight
    (SIAM J. Matrix Anal. Appl. 2008) on all V kernels at once.  Each
    kernel iterates past `tol` while progress is being made, until its
    residual is at most `SINKHORN_STOP`, and stops by its own residual.
    Forming psi and summing its rows adds about n * eps to that residual
    (1e-14 at n = 100), so a kernel stopped there meets
    `graphcore.certify_symmetric`'s row-sum bound, 1 + `NONEXPANSIVE_SLACK`,
    with a decade to spare.  A kernel that has stopped keeps its d while
    the others go on, so every kernel gets the scaling it would get alone.
    psi = diag(d) W diag(d) is formed as (d d^T) o W: d_i d_j rounds as
    d_j d_i does, so psi is exactly symmetric when W is, as the kernel
    builders' kernels are (`_pairwise_sq_dist` differences directly, and
    `_nlm` writes one weight to both (i, j) and (j, i)).

    Returns ``(psi, residual)``: the V balanced kernels, and each one's
    final row-sum residual, float64 (V,).  A kernel whose residual is
    still above `tol` after `max_iter` iterations did not converge.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"kernels must be a (V, n, n) stack, got shape {w.shape}")

    # d is kept as (V, n, 1) columns, so W d is one stacked matrix-vector
    # product; the stopping rule runs on Python floats, one per kernel.
    d = np.ones(w.shape[:2] + (1,))
    residual = [np.inf] * len(w)
    active = range(len(w))
    for _ in range(max_iter):
        wd = np.matmul(w, d)
        err = d * wd
        err -= 1.0
        now = np.abs(err, out=err).max(axis=(1, 2)).tolist()
        going = []
        for i in active:
            prev, residual[i] = residual[i], now[i]
            # Stop at SINKHORN_STOP, or once below tol with progress stalled.
            if not (now[i] <= SINKHORN_STOP or tol >= now[i] > 0.5 * prev):
                going.append(i)
        if not going:
            break
        if len(going) == len(w):
            d = np.sqrt(d / wd)
        else:
            d[going] = np.sqrt(d[going] / wd[going])
        active = going
    else:
        now = np.abs(d * np.matmul(w, d) - 1.0).max(axis=(1, 2)).tolist()
        for i in active:
            residual[i] = now[i]

    psi = d * d.swapaxes(1, 2)
    psi *= w
    return psi, np.array(residual)


def identity_operator(n: int) -> DenoiserOperator:
    """The do-nothing denoiser of n pixels, certified by `graphcore.certify_denoiser`."""
    return certify_denoiser(np.eye(n), kind="identity")


def coordinate_work(kind: str, coords, params: KernelParams) -> tuple:
    """``(factor, floor)``: what a denoiser kind's raw kernel takes from its coordinates alone.

    Checks the kind, one of `KINDS`, and the coordinates, an (n, 2) array
    without duplicates, and raises ValueError otherwise; no other function
    here checks them.

    The factor is, for a kind in `SIGNAL_FREE`, the whole raw kernel
    (n, n): the identity, or the spatial factor for "gaussian"; for
    "bilateral" it is the spatial factor; for "nlm" it is ``(gather, (i,
    j))``: each coordinate's patch as indices into the signal (n, k*k),
    holes filled, and the in-window pair list, the row and column
    indices, with i < j, of every pair of coordinates within the search
    window.  For integer coordinates it is the same, bit for bit, when
    every coordinate is shifted by one offset.

    The floor is an f with lambda_min(psi) >= f * min_i psi_ii for every
    psi = D W D, W a raw kernel of the kind on these coordinates and D
    any positive diagonal scaling, such as Sinkhorn's.  For "gaussian"
    and "bilateral" on integer coordinates, f = theta_4(0, q)^2 with q =
    exp(-1 / (2 spatial_var)), the minimum of the spatial Gaussian's
    symbol on the integer lattice, which bounds lambda_min of the spatial
    factor S of any set of distinct pixels from below (Grenander and
    Szego, Toeplitz Forms, 1958).  W = S o R, with the range factor R PSD
    with unit diagonal (R = 1 for "gaussian"), so psi = S o (D R D), and
    Schur's bound lambda_min(A o B) >= lambda_min(A) min_i B_ii for PSD A
    and B (Horn and Johnson, Topics in Matrix Analysis, Thm 5.3.4) gives
    f.  For "identity" f = 1.  None for "nlm", whose 0/1 window is not
    PSD, and for coordinates that are not all integers.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown denoiser kind {kind!r}")
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2:
        raise ValueError(f"coords must be an (n, 2) array, got shape {c.shape}")
    s = c[np.lexsort((c[:, 1], c[:, 0]))]
    if np.any((s[1:] == s[:-1]).all(axis=1)):
        raise ValueError("duplicate coordinates")
    if kind == "identity":
        return np.eye(len(c)), 1.0
    if kind == "nlm":
        return _nlm_layout(c, params), None
    floor = _theta4(0.5 / params.spatial_var) ** 2 if np.array_equal(c, np.rint(c)) else None
    return np.exp(-_pairwise_sq_dist(c) / (2.0 * params.spatial_var)), floor


def coordinate_work_size(kind: str, n: int, params: KernelParams) -> int:
    """At most how many numbers `coordinate_work` of n coordinates holds.

    An n x n factor (the whole kernel of a kind in SIGNAL_FREE, balanced
    or not); for NLM, n k^2 gather indices and fewer than n min(w^2, n)
    pair indices, for patch k and search window w: a window wider than
    the tile pairs each pixel with at most every other.
    """
    if kind == "nlm":
        return n * (params.nlm_patch_size**2 + min(params.nlm_search_window**2, n))
    return n * n


def _theta4(tau: float) -> float:
    """A lower bound on theta_4(0, q) = 1 + 2 sum_k (-1)^k q^(k^2), q = exp(-tau), tau > 0.

    For tau >= 1/8 (spatial_var <= 4) the series alternates with terms
    falling in size, so a partial sum that ends on a negative term is at
    most the limit; it is cut after the first negative term below 1e-17,
    and a sum that rounding takes below 0 is 0.  For smaller tau q is near
    1, and the series would need about sqrt(39 / tau) terms; once q rounds
    to 1 it would never end.  There Jacobi's transformation theta_4(0,
    e^-tau) = 2 sqrt(pi / tau) sum_{k >= 0} exp(-pi^2 (k + 1/2)^2 / tau)
    is used instead: its terms are positive, so its first term is a lower
    bound, and the next is smaller by a factor exp(-2 pi^2 / tau) below
    1e-68.  It is lowered by a relative 1e-12, more than the rounding of
    its exponent (at most 745 in size before it underflows to 0, for tau
    below about 3e-3).
    """
    if tau < 0.125:
        # in logarithms, as pi / tau overflows for the smallest tau
        log_scale = 0.5 * (math.log(math.pi) - math.log(tau))
        return 2.0 * (1.0 - 1e-12) * math.exp(log_scale - 0.25 * math.pi**2 / tau)
    q = math.exp(-tau)
    total = 1.0
    for k in itertools.count(1):
        term = 2.0 * q ** (k * k)
        total += -term if k % 2 else term
        if k % 2 and term < 1e-17:
            return max(total, 0.0)


def build_denoiser(kind: str, coords, intensities, params: KernelParams, factor=None):
    """Raw kernel matrix for a named denoiser kind (before balancing).

    ``factor``, if given, is ``coordinate_work(kind, coords, params)[0]``,
    which is then neither computed nor checked again.  For a stack of
    signals (V, n), a kind that depends on them gives one kernel per
    signal (V, n, n).
    """
    if factor is None:
        factor = coordinate_work(kind, coords, params)[0]
    if kind in SIGNAL_FREE:
        return factor
    if kind == "bilateral":
        return _bilateral(factor, intensities, params)
    return _nlm(factor, intensities, params)

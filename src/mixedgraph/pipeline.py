"""End-to-end experiment harness: image I/O, noise, patch orchestration, PSNR.

The harness reproduces the joint-versus-sequential comparison: for each
noise variance it corrupts the image once, runs every patch job in both
modes from identical inputs, stitches the real output pixels, and scores
them against the clean image pushed through the same interpolation rows.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import math
import os
import pickle
import select
import signal
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import denoisers, graphcore, interpolators, jointsolver
from .errors import ImageIOError, PatchGeometryError, PreconditionError
from .errors import TileMemoryError, TilesFailedError, WorkerError
from .interpolators import OPERATOR_BYTES, ROW_TAPS

PSNR_CAP_DB = 99.0
TEXTURE_SIZE = 512
CSV_HEADER = "image,transform,denoiser,mode,variance,psnr_db,patches_failed"
MODES = ("joint", "sequential", "both")
METHODS = ("cg", "direct", "closed-form")


@dataclass(frozen=True)
class ImageBuffer:
    """Grayscale intensities nominally in [0, 1] with a per-pixel validity mask."""

    pixels: np.ndarray
    validity: np.ndarray

    @classmethod
    def from_array(cls, pixels) -> "ImageBuffer":
        p = np.asarray(pixels, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"expected a 2-D image, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("image contains non-finite pixels")
        return cls(pixels=p, validity=np.ones(p.shape, dtype=bool))


@dataclass(frozen=True)
class StitchedImage(ImageBuffer):
    """A pipeline output image, with the errors of the tiles that failed.

    A failed tile's pixels stay invalid.
    """

    tile_count: int = 0
    tile_errors: tuple = ()


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    transform: object
    denoiser_kind: str = "bilateral"
    kernel_params: denoisers.KernelParams = field(
        default_factory=denoisers.KernelParams
    )
    weights: jointsolver.SolverWeights = field(
        default_factory=jointsolver.SolverWeights
    )
    noise_variances: tuple = (0.02,)
    seed: int = 0
    mode: str = "both"
    patch_size: int = 10
    # A checked no-op: every value runs the same dense solve per tile.
    method: str = "cg"
    workers: int = 1

    def __post_init__(self):
        denoisers.require_integers(self, "patch_size", "workers", "seed")
        if not self.noise_variances:
            raise ValueError("at least one noise variance is required")
        if not all(math.isfinite(v) and v > 0 for v in self.noise_variances):
            raise ValueError("noise variances must be positive and finite")
        if self.patch_size < 2:
            raise ValueError("patch size must be at least 2")
        if self.denoiser_kind not in denoisers.KINDS:
            raise ValueError(f"unknown denoiser kind {self.denoiser_kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown solve method {self.method!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def modes(self):
        return ("joint", "sequential") if self.mode == "both" else (self.mode,)


@dataclass(frozen=True)
class PsnrCurve:
    mode: str
    points: tuple  # ((variance, psnr_db), ...)
    image_name: str
    transform_label: str
    denoiser_kind: str
    tile_count: int = 0
    tile_errors: tuple = ()  # per point, the failed tiles' errors, as StitchedImage's


# ---------------------------------------------------------------------------
# Image I/O (binary 8-bit PGM; PNG optional via Pillow).

def load_pgm(path) -> ImageBuffer:
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageIOError(f"unexpected end of header at byte {start}", offset=start)
        return data[start:pos]

    magic = token()
    if magic != b"P5":
        raise ImageIOError(f"not a binary PGM (magic {magic!r})", offset=0)
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise ImageIOError(f"malformed header near byte {pos}", offset=pos) from None
    if width <= 0 or height <= 0:
        raise ImageIOError(f"non-positive image size {width}x{height}", offset=pos)
    if maxval <= 0 or maxval > 255:
        raise ImageIOError(f"unsupported maxval {maxval}", offset=pos)
    pos += 1  # single whitespace after maxval
    need = width * height
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise ImageIOError(
            f"truncated raster at byte {pos + len(raster)}", offset=pos + len(raster)
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    over = np.flatnonzero(pixels > maxval)
    if over.size:
        at = pos + int(over[0])
        raise ImageIOError(f"sample {data[at]} above maxval {maxval} at byte {at}", offset=at)
    return ImageBuffer.from_array(pixels / float(maxval))


def _pixels(image) -> np.ndarray:
    return image.pixels if isinstance(image, ImageBuffer) else np.asarray(image)


def _quantize(image) -> np.ndarray:
    """8-bit pixels of an image, clipped to [0, 1] and rounded half up."""
    return np.floor(np.clip(_pixels(image), 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def save_pgm(image, path) -> None:
    quantized = _quantize(image)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(quantized.tobytes())


def png_module(path):
    """PIL's ``Image`` module if ``path`` names a PNG, by its suffix in any case; else None.

    Raises ImageIOError for a PNG when Pillow is not installed.
    """
    if not str(path).lower().endswith(".png"):
        return None
    try:
        from PIL import Image
    except ImportError as exc:
        raise ImageIOError("PNG support requires Pillow") from exc
    return Image


def load_image(path) -> ImageBuffer:
    png = png_module(path)
    if png is None:
        return load_pgm(path)
    arr = np.asarray(png.open(path).convert("L"), dtype=float)
    return ImageBuffer.from_array(arr / 255.0)


def save_image(image, path) -> None:
    png = png_module(path)
    if png is None:
        save_pgm(image, path)
    else:
        png.fromarray(_quantize(image), mode="L").save(path)


# ---------------------------------------------------------------------------
# Synthetic test textures (deterministic procedural generation).

def synthetic_texture(name: str, size: int = TEXTURE_SIZE) -> ImageBuffer:
    """Procedural grayscale textures used by the shipped experiments."""
    if size < 2:
        raise ValueError(f"texture size must be at least 2, got {size}")
    u = np.linspace(0.0, 1.0, size, endpoint=False)
    cc, rr = np.meshgrid(u, u)
    if name == "texture-a":
        img = (
            0.45 * np.sin(2 * np.pi * (7 * rr + 3 * cc))
            + 0.35 * np.sin(2 * np.pi * (2 * rr - 9 * cc) + 1.3)
            + 0.25 * np.sin(2 * np.pi * (23 * rr + 17 * cc) + 0.4)
            + 0.3 * np.sin(2 * np.pi * 5 * np.hypot(rr - 0.4, cc - 0.6))
        )
    elif name == "texture-b":
        rng = np.random.default_rng(20240817)
        noise = rng.standard_normal((size, size))
        img = (
            1.1 * _wrap_gaussian(noise, 6.0) * 12.0
            + 0.8 * _wrap_gaussian(noise, 1.2) * 2.5
            + 0.4 * np.sin(2 * np.pi * (4 * rr + 11 * cc))
        )
    else:
        raise ValueError(f"unknown synthetic texture {name!r}")
    lo, hi = img.min(), img.max()
    img = 0.02 + 0.96 * (img - lo) / (hi - lo)
    return ImageBuffer.from_array(img)


def _wrap_gaussian(x, sigma):
    """A 2-D image blurred by a Gaussian of standard deviation ``sigma``, wrapped at its edges.

    The bits of ``scipy.ndimage.gaussian_filter(x, sigma, mode="wrap")``:
    its weights w_j ∝ exp(-j² / (2 σ²)) for |j| ≤ r = int(4 σ + 0.5),
    divided by their sum, and its order of operations.  Axis 0 is filtered,
    then axis 1; each output starts from w_0 x_i and adds w_j (x_{i-j} +
    x_{i+j}) for j from r down to 1.  Each axis is padded once by
    wrapping, so a side shorter than r wraps round more than once.
    """
    r = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (taps / taps.sum())[r:]
    for _ in range(2):
        n = len(x)
        padded = x[np.arange(-r, n + r) % n]
        out = w[0] * x
        for j in range(r, 0, -1):
            out += w[j] * (padded[r - j : r - j + n] + padded[r + j : r + j + n])
        # transposed into C order, so that the second pass filters axis 1
        x = np.ascontiguousarray(out.T)
    return x


# ---------------------------------------------------------------------------
# Noise and metrics.

def add_gaussian_noise(image, variance: float, seed: int):
    """Add i.i.d. zero-mean Gaussian noise; output is NOT clipped to [0, 1]."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    pixels = _pixels(image)
    rng = np.random.default_rng(seed)
    noisy = pixels + rng.normal(0.0, np.sqrt(variance), pixels.shape)
    if isinstance(image, ImageBuffer):
        return ImageBuffer(pixels=noisy, validity=image.validity.copy())
    return noisy


def psnr(reference, test, mask=None) -> float:
    """Peak-signal-to-noise ratio in dB (peak 1.0); 99 dB for a zero error.

    Raises ValueError when a pixel inside the mask is not finite.
    """
    ref, tst = _pixels(reference), _pixels(test)
    if ref.shape != tst.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {tst.shape}")
    if mask is None:
        mask = np.ones(ref.shape, dtype=bool)
    for image in (reference, test):
        if isinstance(image, ImageBuffer):
            mask = mask & image.validity
    if not mask.any():
        raise ValueError("no valid pixels to compare")
    ref, tst = ref[mask], tst[mask]
    if not (np.isfinite(ref).all() and np.isfinite(tst).all()):
        raise ValueError("non-finite pixel inside the mask")
    diff = ref - np.clip(tst, 0.0, 1.0)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return 10.0 * np.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# Per-patch solve.

def build_patch_denoiser(ops, interp_values, config, work=None):
    """Balanced, certified denoisers of a chunk of T tiles of one offset pattern.

    ``ops`` are the tiles' operators, all of one offset pattern
    (`_pattern`), and ``interp_values`` a stack (T, V, n) of their plain
    interpolations of the V noisy inputs; kernel weights are computed from
    them clipped to [0, 1] (for kernel evaluation only).  ``work`` is
    `_coordinate_work` of the pattern, or None to compute it from the
    first tile.  Returns ``(psi, errors)``: the denoisers (T, K, n, n),
    K = V, one per signal, and a (T, V) object array that holds, for each
    tile and signal, None or the first error that fails its denoiser: a
    BalanceError, or a PreconditionError when certification fails.  The
    kernels are built by one `denoisers.build_denoiser` on the pattern's
    factor, and balanced and certified by one `denoisers.sinkhorn_scale`
    and one `graphcore.certify_symmetric`, with the pattern's eigenvalue
    floor.  A denoiser is certified PD by the Schur bound of
    `denoisers.eigenvalue_floor` where that clears
    `graphcore.SCHUR_MARGIN`, and by a Cholesky factorization otherwise
    (always for NLM).  A denoiser of a kind in `denoisers.SIGNAL_FREE`
    does not depend on the signal, so K = 1: psi is the pattern's one
    denoiser as a read-only view (T, 1, n, n) that serves each tile's V
    signals, and its error fills errors.
    """
    kind = config.denoiser_kind
    if work is None:
        work = _coordinate_work(ops[0], config)
    t, v, n = interp_values.shape
    if kind in denoisers.SIGNAL_FREE:
        psi, (error,) = work
        return np.broadcast_to(psi, (t, 1, n, n)), np.full((t, v), error, dtype=object)
    factor, floor = work
    clipped = np.clip(interp_values, 0.0, 1.0).reshape(t * v, n)
    # the kernels are not named here, so that _balance can free them
    psi, errors = _balance(
        denoisers.build_denoiser(kind, ops[0].target_coords, clipped, config.kernel_params, factor),
        kind,
        floor,
    )
    return psi.reshape(t, v, n, n), np.array(errors, dtype=object).reshape(t, v)


def _balance(kernel, kind, floor):
    """The ``(psi, errors)`` of `build_patch_denoiser` of a stack of raw kernels.

    ``floor`` is `denoisers.eigenvalue_floor` of the kernels' coordinates, or None.
    """
    psi, errors = denoisers.sinkhorn_scale(kernel)
    del kernel  # freed before certification allocates its stacks
    pd, nonexpansive = graphcore.certify_symmetric(psi, floor)
    for i, certified in enumerate(pd & nonexpansive):
        if errors[i] is None and not certified:
            errors[i] = PreconditionError(f"{kind} denoiser failed certification on patch")
    return psi, errors


def _coordinate_work(op, config):
    """The part of a tile's denoisers that depends only on its offset pattern (`_pattern`).

    That is ``(factor, floor)``, from `denoisers.coordinate_work`; or for
    a kind in `denoisers.SIGNAL_FREE` the whole balanced and certified
    ``(psi, errors)`` of its one kernel, with psi (1, n, n).  Every tile of
    the pattern gets the same bits from it.
    """
    kind = config.denoiser_kind
    factor, floor = denoisers.coordinate_work(kind, op.target_coords, config.kernel_params)
    if kind in denoisers.SIGNAL_FREE:
        return _balance(factor[None], kind, floor)
    return factor, floor


def _pattern(op):
    """A tile's offset pattern: its integer target coordinates minus their minimum, as bytes."""
    tc = op.target_coords
    return (tc - tc.min(axis=0)).tobytes()


# The kernel budget of a chunk of tiles, which a chunk holds the fewest
# tiles to reach (`chunk_tiles`).  At V = 1 and 2, Sinkhorn, certification
# and the joint solve of one 100 x 100 kernel are mostly numpy's per-call
# cost, which a chunk pays once.  Measured with bench/run.py (2-vCPU VM,
# medians of 3 alternated runs, run_s and peak_rss_mb): restore-rot-joint
# 42.5 ms and 63.8 MB at 4 kernels, 40.5 ms and 64.4 MB at 8, 40.4 ms and
# 65.5 MB at 16; sweep-warp-nlm-pool 178 ms and 74.9 MB at 4, 165 ms and
# 76.1 MB at 8, 166 ms and 78.5 MB at 16.  Past 8 the stacks only cost
# memory.  At V = 3, 5 and 7, chunks of 3, 2 and 2 tiles (9, 10 and 14
# kernels) against the 2, 1 and 1 tiles of a budget rounded down:
# run_experiment on the 64 px texture-a, rotation 20, bilateral, both
# modes, one BLAS thread (same VM, both versions in one process, 60
# alternated runs, median ratio and pairs won) took 0.956 (56 of 60),
# 0.908 (60 of 60) and 0.930 (51 of 60) of the time.  Those are tiles of
# n = 100 pixels; larger tiles have a budget of fewer kernels, K =
# STACK_DOUBLES // n^2, since their O(n^3) factorizations and solves
# outweigh the per-call cost.  A chunk reaches its budget and may pass
# it by up to V - 1 kernels, so a budget is not a cap on its doubles:
# `tile_peak_bytes` counts the kernels a chunk really stacks.
STACK_KERNELS = 8
STACK_DOUBLES = STACK_KERNELS * 100 * 100


def chunk_tiles(n, signals) -> int:
    """The most tiles of n pixels that `_chunks` puts in one chunk, for V = ``signals``.

    A chunk's budget is K = min(STACK_KERNELS, STACK_DOUBLES // n^2)
    kernels of n x n doubles, and it holds the fewest tiles whose V
    kernels each reach it, but at least one: ``max(1, ceil(K / V))``
    tiles, so a chunk of full tiles stacks K to K + V - 1 kernels.  Up to
    n = 100, K = STACK_KERNELS: 8, 4, 3 and 2 tiles for V = 1, 2, 3 and
    4 to 7, one from V = 8 on.  Above n = 100, K is smaller, and from
    n = 201 on a chunk holds one tile.
    """
    kernels = min(STACK_KERNELS, STACK_DOUBLES // (n * n))
    return max(1, -(-kernels // signals))


def run_patch(job, images, config):
    """Solve one tile on V noisy images: `run_chunk` of the chunk of one tile.

    Returns `run_chunk`'s ``(joint, sequential, errors)``, with T = 1.
    """
    return run_chunk([job], images, config)


def run_chunk(jobs, images, config, work=None):
    """Solve a chunk of T tiles of one offset pattern on V noisy images.

    ``images`` is a stack (V, H, W) of noisy images, or a sequence of V
    images of one shape.  ``work`` is the pattern's coordinate-only work
    (`_coordinate_work`), or None to compute it from the first tile.
    Returns ``(joint, sequential, errors)`` on one (tile, image) grid: the
    outputs (T, V, n) of each mode, None for a mode that was not run or
    a chunk whose every denoiser failed, and a (T, V) object array of
    None or the text of the error that failed that tile on that image.
    The outputs of a failed (tile, image) are not defined.

    Each tile's dense real rows theta_r are built from its taps once, on
    entry, and held only while the chunk is solved.  The chunk's kernels
    are built, balanced (Sinkhorn) and certified (the Schur bound, or the
    Cholesky fallback of `graphcore.certify_symmetric`) as one stack
    (`build_patch_denoiser`); a signal-free kind's one denoiser is
    broadcast over the chunk's tiles and signals.  A chunk whose every
    denoiser failed is not solved.  Otherwise every denoiser is solved,
    whether or not it passed, and each (tile, image) then keeps its first
    error: balance, certification, then solver; an output that is not
    finite fails it as a solver failure, found by one check per output
    stack.  The joint output is the non-separable MAP solution,
    `jointsolver.output_space_solve` of the whole chunk, which returns the
    interpolation ty = theta_r y itself at kappa = 0.  Stacked products
    and solves run the same BLAS/LAPACK routine per matrix as a
    single-matrix call, so each image of each tile gets the bits it would
    get alone.  A balance, certification or solver failure fails only its
    own (tile, image).
    """
    ops = [job.operator for job in jobs]
    thetas = [op.real_matrix for op in ops]
    images = np.asarray(images)
    t, v, n = len(ops), len(images), len(ops[0].target_coords)
    ty = np.empty((t, v, n))
    for i, (op, theta) in enumerate(zip(ops, thetas)):
        src = op.source_coords
        y = images[:, src[:, 0], src[:, 1]]
        ty[i] = np.matmul(theta, y[..., None])[..., 0]
    psi, errors = build_patch_denoiser(ops, ty, config, work)
    joint = sequential = None
    if np.equal(errors, None).any():
        if "sequential" in config.modes:
            sequential = np.matmul(psi, ty[..., None])[..., 0]
        if "joint" in config.modes:
            joint, solver_errors = jointsolver.output_space_solve(
                ty, thetas, psi, config.weights.c
            )
            errors = np.where(np.equal(errors, None), solver_errors, errors)
        outputs = [x for x in (joint, sequential) if x is not None]
        finite = np.logical_and.reduce([np.isfinite(x).all(axis=-1) for x in outputs])
        errors = np.where(np.equal(errors, None) & ~finite, "tile output is not finite", errors)
    return joint, sequential, np.where(np.not_equal(errors, None), errors.astype(str), None)


def process_image(config: ExperimentConfig, image) -> StitchedImage:
    """Run every patch job in ``config.mode``, joint or sequential, and stitch the outputs.

    The image's stitched pixels and validity are that mode's stack and the
    validity of `_run_patches` on the one image.
    """
    mode = config.mode
    if mode not in ("joint", "sequential"):
        raise ValueError(f"mode must be 'joint' or 'sequential', got {mode!r}")
    jobs, outputs, valid, errors = _run_patches(_pixels(image)[None], config)
    tile_errors = _tile_errors(jobs, errors[:, 0])
    return StitchedImage(
        pixels=outputs[mode][0], validity=valid[0], tile_count=len(jobs), tile_errors=tile_errors
    )


def _tile_errors(jobs, errors):
    """``tile at (r, c): <error>`` of each job whose entry of ``errors`` is not None."""
    return tuple(f"tile at {job.origin}: {e}" for job, e in zip(jobs, errors) if e is not None)


# ---------------------------------------------------------------------------
# Experiment orchestration.

# (getter, setter) of the thread count of numpy's bundled OpenBLAS, in its
# 64-bit and its 32-bit integer builds.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_libraries():
    """The OpenBLAS libraries bundled with numpy, loaded."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            yield ctypes.CDLL(str(path))
        except OSError:
            continue


@functools.cache
def _blas_pools():
    """(getter, setter) pairs of the OpenBLAS libraries bundled with numpy.

    Found on first use: numpy's library directory is searched, and a
    library with neither symbol pair (another BLAS, MKL) is left out.
    """
    pools = []
    for lib in _openblas_libraries():
        for get, set_ in _BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                pools.append((getter, setter))
    return tuple(pools)


@functools.cache
def _blas_shutdowns():
    """The pool shutdown, ``blas_thread_shutdown_``, of each OpenBLAS bundled with numpy."""
    shutdowns = []
    for lib in _openblas_libraries():
        if hasattr(lib, "blas_thread_shutdown_"):
            shutdown = lib.blas_thread_shutdown_
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            shutdowns.append(shutdown)
    return tuple(shutdowns)


# How many times this process has forked.  OpenBLAS shuts its thread pool
# down at each fork (its own fork handler).
_forks = 0


def _count_fork():
    global _forks
    _forks += 1


os.register_at_fork(after_in_parent=_count_fork)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS pool at one thread.

    Every matrix of the tile path is at most about 130 x 130, too small for
    BLAS threads to pay off, and the children of `_deal` would oversubscribe
    the cores; they inherit the setting.  The previous counts are restored
    on exit.  A fork shuts the pool down, and raising the count again then
    starts a new pool, whose threads spin for about 0.1 s; so after a body
    that forked the pool is shut down once more, and the next BLAS call
    that wants threads starts it.
    """
    pools = _blas_pools()
    saved = [get() for get, _ in pools]
    forks = _forks
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, saved):
            set_(count)
        if pools and _forks != forks:
            for shutdown in _blas_shutdowns():
                shutdown()


@functools.cache
def _mallopt():
    """The C library's ``mallopt``, or None where it has none (macOS)."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


@contextlib.contextmanager
def _keep_heap():
    """Run the body with glibc's heap keeping the memory a tile frees.

    By default glibc maps a block above its dynamic mmap threshold on its
    own, and trims the top of the heap back to the kernel once the free
    space there exceeds twice that threshold.  A chunk of tiles has two
    (K, n, n) stacks live at once (640 KB each for K = 8 kernels of
    n = 100), so each chunk would hand its memory back and the next would
    page-fault it in again.  On entry, the mmap threshold is set to 4 MiB,
    above the largest tile temporary (the largest arrays seen on the tile
    path by a tracing run: a chunk's (K, n, n) stacks, 1.1 MB at n = 100
    for the largest K of up to 14 variances, the 14 kernels of two tiles
    at V = 7 (`chunk_tiles`), and NLM's (P, 9) pair differences of one
    signal, 173 KB with P = 2,400 pairs of a 10 x 10 tile; each tile's
    dense rows, built for its chunk, are about 100 KB at n = 100), so
    image-scale arrays still get their own mappings; and the trim
    threshold to 32 MiB, the most freed
    memory the heap's top keeps resident.  Either setting alone turns off
    glibc's dynamic thresholds, so both are set.  The children of `_deal`
    inherit them.  glibc has no getter for them, so they stay set after the
    body, for the rest of the process.
    Where the C library has no ``mallopt``, this does nothing.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
    yield


# Each record of `_deal`'s pipe is the first index of a run.  All of
# them are written at once, before any process reads: POSIX has an empty
# pipe take up to PIPE_BUF bytes in one write.
_RECORD_SIZE = 4
_MAX_RECORDS = select.PIPE_BUF // _RECORD_SIZE


def _deal(count, solve, workers):
    """``[solve(i) for i in range(count)]``, drawn by this process and forked children.

    `_run_patches` deals the indices of its chunks of tiles this way.
    One pipe is filled with fixed-size records and its write end closed,
    then up to ``workers - 1`` children are forked.  Each record names one
    index, or a run of consecutive indices when there are more indices
    than records fit in the pipe at once.  Every process, this one
    included, reads one record at a time until the pipe is empty, so each
    index is solved by exactly one process, whichever is free, and a
    reader that dies blocks no other.  A child sends its ``[(index,
    result)]``, or the traceback of an exception, pickled on a pipe of its
    own and leaves with ``os._exit``.  Raises WorkerError for a child that
    ends without a result.  On any exception every child still running is
    killed and reaped, so none outlives the call.
    """
    run = -(-count // _MAX_RECORDS)
    starts = np.arange(0, count, run, dtype=np.uint32)
    tiles, fill = os.pipe()
    try:
        os.write(fill, starts.tobytes())
    finally:
        os.close(fill)

    def draw():
        done = []
        while record := os.read(tiles, _RECORD_SIZE):
            first = int.from_bytes(record, sys.byteorder)
            done += [(i, solve(i)) for i in range(first, min(first + run, count))]
        return done

    children = {}  # the read end of a child's result pipe -> its pid, or None
    try:
        for _ in range(min(workers, len(starts)) - 1):
            out, into = os.pipe()
            children[out] = None
            try:
                pid = os.fork()
                if pid == 0:
                    _child(draw, into)
                children[out] = pid
            finally:
                os.close(into)
        done = draw()
        for out, pid in list(children.items()):
            with open(out, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(out)
            del children[out]
            done += _child_results(pid, status, data)
        solved = dict(done)
        return [solved[i] for i in range(count)]
    finally:
        os.close(tiles)
        for out, pid in children.items():
            os.close(out)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(draw, into):
    """A forked child's whole life: run ``draw`` and send its outcome to ``into``.

    The outcome is ``(True, draw())``, or ``(False, traceback text)`` when
    it raises, pickled.  Never returns: the child leaves with ``os._exit``,
    status 0 once the outcome is written and 1 otherwise, so it runs none
    of its parent's cleanup.
    """
    status = 1
    try:
        try:
            outcome = (True, draw())
        except Exception:
            outcome = (False, traceback.format_exc())
        with open(into, "wb") as sink:
            pickle.dump(outcome, sink, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _child_results(pid, status, data):
    """The ``[(index, result)]`` a child sent, given its exit status and bytes.

    Raises WorkerError when the child ended without a result, or sent the
    traceback of an exception.
    """
    if status != 0:
        how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
        raise WorkerError(
            f"worker process {pid} ended without a result ({how})", pid=pid, status=status
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise WorkerError(
            f"worker process {pid} raised {value.strip().splitlines()[-1]}",
            pid=pid,
            status=status,
            traceback=value,
        )
    return value


# A chunk of K kernels of n pixels holds at most LIVE_STACKS K +
# CHUNK_ARRAYS arrays of n x n doubles at once: the kernels and the
# filters in Sinkhorn, the filters and a Cholesky factor or the joint
# systems later, and two more whatever the chunk's size.  tracemalloc
# counted 2 K + 2.01 to 2 K + 2.13 in `run_chunk` on 30 x 30 tiles
# (n = 900), for every kind at V = 1, 2, 3 and 5 with 1, 2 and 8 // V
# tiles per chunk, and 2 K + 2.02 to 2 K + 2.03 for bilateral and NLM at
# V = 3 and 5 with ceil(8 / V) tiles per chunk (`chunk_tiles` of tiles of
# up to 100 pixels), besides the tiles' dense rows; a kind in
# `denoisers.SIGNAL_FREE` builds one kernel per tile.  The remainder is
# O(n) per kernel (NLM's pair differences, the signals), which outweighs
# the n x n terms only for small tiles.
LIVE_STACKS = 2
CHUNK_ARRAYS = 2


def _tile_counts(size, patch_size):
    """``{n: tiles}`` of the grid of `interpolators.tile_image` on an image of ``size``.

    Every tile of the grid is counted at its full pixel count, including
    those whose real outputs tile_image then leaves out.
    """
    rows, cols = (interpolators.tile_spans(length, patch_size) for length in size)
    return collections.Counter(r * c for _, r in rows for _, c in cols)


def tile_peak_bytes(config, shape) -> int:
    """An estimate of the peak bytes of the tiles' operators and chunks.

    ``shape`` is that of the image stack (V, H, W).  The tiles of each
    pixel count n (`_tile_counts`) make chunks of up to `chunk_tiles`
    tiles of one offset pattern, each tile of V kernels (one for a kind in
    `denoisers.SIGNAL_FREE`).  A chunk of T tiles and K kernels holds
    LIVE_STACKS K + CHUNK_ARRAYS arrays of n x n doubles, the T tiles'
    dense rows theta_r, of at most min(ROW_TAPS n, H W) columns each, and
    its pattern's coordinate-only work (`_coordinate_work`), one entry of
    `denoisers.coordinate_work_size` numbers.  Each of up to
    ``config.workers`` processes holds one chunk at a time.  A pixel count
    of several patterns splits into several partial chunks, so k of its
    chunks hold at most min(count, k `chunk_tiles`) of its tiles and k
    fixed parts; the k-th chunk of each pixel count is charged what it can
    add, and the largest ``config.workers`` charges are summed.  To them
    is added what the run holds throughout: every tile's operator, at
    most OPERATOR_BYTES per pixel of the image.
    """
    signals, h, w = shape
    kind = config.denoiser_kind
    kernels = 1 if kind in denoisers.SIGNAL_FREE else signals
    peaks = []
    for n, count in _tile_counts((h, w), config.patch_size).items():
        tiles = chunk_tiles(n, signals)
        per_tile = (LIVE_STACKS * kernels * n + min(ROW_TAPS * n, h * w)) * n
        fixed = CHUNK_ARRAYS * n * n + denoisers.coordinate_work_size(kind, n, config.kernel_params)
        for k in range(min(count, config.workers)):
            peaks.append((max(0, min(tiles, count - k * tiles)) * per_tile + fixed) * 8)
    return sum(sorted(peaks, reverse=True)[: config.workers]) + OPERATOR_BYTES * h * w


def require_memory(config, shape) -> None:
    """Raise TileMemoryError unless the tiles' operators and chunks fit in memory.

    The run's operators and chunks need about `tile_peak_bytes`; the
    machine's memory is ``os.sysconf("SC_PHYS_PAGES")`` pages.  Nothing is
    allocated.  Where the system does not report its memory, nothing is
    checked.
    """
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return
    need = tile_peak_bytes(config, shape)
    if physical > 0 and need > physical:
        raise TileMemoryError(
            f"tiles of patch size {config.patch_size} need about {need / 2**30:.1f} GiB, "
            f"more than the {physical / 2**30:.1f} GiB of memory"
        )


def _run_patches(images, config):
    """Tile a stack (V, H, W) of images and run `run_chunk` on every chunk of tiles.

    Returns ``(jobs, outputs, valid, errors)``: ``outputs`` maps each mode
    of ``config.modes`` to its stitched stack (V, H, W), ``valid`` is the
    stacks' validity (V, H, W), and ``errors`` a (tiles, V) object array of
    None or the error text of each job on each image (`run_chunk`).  Each
    chunk's (tile, image) grid is written into the stacks by one fancy
    assignment per mode, at its tiles' target pixels; a failed (tile,
    image) is written as 0 and left invalid, and so is a pixel no tile
    targets.  No tile raises PatchGeometryError.  A run that would not
    fit in memory raises TileMemoryError before anything is built
    (`require_memory`).
    The tiles hold their taps, and are grouped into chunks of one offset
    pattern (`_chunks`), which are dealt to this process and
    ``config.workers - 1`` children forked from it (`_deal`; none at one
    worker), with the same results; a child that dies fails the call with
    WorkerError.  The process that solves a chunk builds its tiles' dense
    rows.  Each process keeps the coordinate-only work
    (`_coordinate_work`) of the last pattern it solved, and computes it
    again only for a chunk of another pattern; the chunks of one pattern
    are consecutive, and each process draws its chunks in ascending order.
    numpy's BLAS runs on one thread throughout, and after a run that
    forked its pool is shut down again once its count is restored
    (`_one_blas_thread`); the heap keeps the memory the tiles free
    (`_keep_heap`).
    """
    require_memory(config, images.shape)
    with _one_blas_thread(), _keep_heap():
        jobs = interpolators.tile_image(
            images.shape[1:], config.transform, config.patch_size
        )
        if not jobs:
            raise PatchGeometryError("no valid patch jobs for this transform")
        chunks = _chunks(jobs, len(images))
        held = {}  # this process's last pattern -> its coordinate work

        def solve(c):
            pattern, tiles = chunks[c]
            if pattern not in held:
                held.clear()
                held[pattern] = _coordinate_work(jobs[tiles[0]].operator, config)
            return run_chunk([jobs[i] for i in tiles], images, config, held[pattern])

        per_chunk = _deal(len(chunks), solve, config.workers)
    outputs = {mode: np.zeros(images.shape) for mode in config.modes}
    valid = np.zeros(images.shape, dtype=bool)
    errors = np.empty((len(jobs), len(images)), dtype=object)
    for (_, tiles), (joint, sequential, chunk_errors) in zip(chunks, per_chunk):
        targets = np.array([jobs[i].operator.target_coords for i in tiles])
        # (V, 1) images against (T, 1, n) rows and columns: the (T, V, n) grid
        grid = (np.arange(len(images))[:, None], targets[:, None, :, 0], targets[:, None, :, 1])
        ok = np.equal(chunk_errors, None)[..., None]
        for mode, x in (("joint", joint), ("sequential", sequential)):
            if x is not None:
                outputs[mode][grid] = np.where(ok, x, 0.0)
        valid[grid] = ok
        errors[tiles] = chunk_errors
    return jobs, outputs, valid, errors


def _chunks(jobs, signals):
    """The chunks of `_run_patches`: ``(pattern, tiles)`` pairs.

    ``tiles`` lists the indices of up to `chunk_tiles` jobs of one offset
    pattern (`_pattern`, computed once per job), in index order.  The
    patterns are in the order of their first jobs, and the chunks of one
    pattern are consecutive.
    """
    by_pattern = {}
    for i, job in enumerate(jobs):
        by_pattern.setdefault(_pattern(job.operator), []).append(i)
    chunks = []
    for pattern, tiles in by_pattern.items():
        size = chunk_tiles(len(jobs[tiles[0]].operator.target_coords), signals)
        chunks += [(pattern, tiles[k : k + size]) for k in range(0, len(tiles), size)]
    return chunks


def build_reference(jobs, clean_pixels, shape):
    """``(pixels, mask)``: the clean image pushed through the real interpolation rows of every job.

    Each job's dense rows are built from its taps, written to its target
    pixels and freed before the next job's.  A pixel no job targets is 0
    and invalid.
    """
    pixels = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    for job in jobs:
        op = job.operator
        targets = tuple(op.target_coords.T)
        pixels[targets] = op.real_matrix @ clean_pixels[tuple(op.source_coords.T)]
        mask[targets] = True
    return pixels, mask


def run_experiment(config: ExperimentConfig, image, image_name: str = "image"):
    """Sweep noise variances and score both modes; returns (curves, csv_text).

    Each curve holds the tile count and, per variance, the errors of the
    tiles that failed.  Raises TilesFailedError, naming the variance and
    the first tile's error, when every tile fails at some variance.
    """
    clean = _pixels(image)
    noisy = np.empty((len(config.noise_variances),) + clean.shape)
    for vi, var in enumerate(config.noise_variances):
        noisy[vi] = add_gaussian_noise(clean, var, config.seed ^ vi)

    jobs, outputs, valid, errors = _run_patches(noisy, config)
    ref, _ = build_reference(jobs, clean, clean.shape)

    transform_label = config.transform.label()
    tile_errors = tuple(_tile_errors(jobs, column) for column in errors.T)
    rows = []
    points = {mode: [] for mode in config.modes}
    for vi, (var, failed) in enumerate(zip(config.noise_variances, tile_errors)):
        if len(failed) == len(jobs):
            raise TilesFailedError(
                f"all {len(jobs)} tiles failed at variance {var:g}; first: {failed[0]}"
            )
        for mode in config.modes:
            value = psnr(ref, outputs[mode][vi], valid[vi])
            points[mode].append((var, value))
            rows.append(
                f"{image_name},{transform_label},{config.denoiser_kind},"
                f"{mode},{var:g},{value:.6f},{len(failed)}"
            )

    curves = [
        PsnrCurve(
            mode=mode,
            points=tuple(points[mode]),
            image_name=image_name,
            transform_label=transform_label,
            denoiser_kind=config.denoiser_kind,
            tile_count=len(jobs),
            tile_errors=tile_errors,
        )
        for mode in config.modes
    ]
    csv_text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    return curves, csv_text

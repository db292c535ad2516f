"""Linear interpolation operators for rotation and homography warps.

Each output patch gets a rectangular bilinear-weight matrix: one row per
in-bounds output pixel, one column per pixel of its source footprint.  A
tile keeps only the matrix's nonzeros, at most four bilinear taps per row,
and builds the dense rows on demand.  The pipeline's joint solve works on
these real rows directly.  `pad_full_rank` squares such a matrix with
dummy unit rows into the invertible interpolator of the paper's
directed-graph construction; the tests use it as the reference for the
pipeline's joint solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransformError, PatchGeometryError
from .graphcore import PIVOT_RTOL, require_nonsingular

# No real row has more than ROW_TAPS bilinear taps.  An operator holds at
# most OPERATOR_BYTES per output pixel: ROW_TAPS taps of a weight, a row and
# a column (24 bytes), and its target and ROW_TAPS source coordinates (16 each).
ROW_TAPS = 4
OPERATOR_BYTES = ROW_TAPS * 24 + (1 + ROW_TAPS) * 16


@dataclass(frozen=True)
class Rotation:
    """Anti-clockwise rotation (degrees) about the image center."""

    angle_deg: float

    def __post_init__(self):
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"rotation angle must be finite, got {self.angle_deg}")

    def back_project(self, coords_rc: np.ndarray, image_size) -> np.ndarray:
        """Source (row, col) of each output (row, col); ``coords_rc`` is (..., 2)."""
        h, w = image_size
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        t = math.radians(-self.angle_deg)
        ct, st = math.cos(t), math.sin(t)
        y = coords_rc[..., 0] - cy
        x = coords_rc[..., 1] - cx
        sx = ct * x - st * y + cx
        sy = st * x + ct * y + cy
        return np.stack([sy, sx], axis=-1)

    def label(self) -> str:
        return f"rotation({self.angle_deg:g})"


@dataclass(frozen=True)
class Homography:
    """Projective warp; output pixels back-project through the inverse matrix.

    The matrix is defined up to scale (Hartley and Zisserman, Multiple View
    Geometry, 2nd ed., 2004, section 2.3), and so are both of its checks,
    against `graphcore.PIVOT_RTOL`: a matrix is singular when, divided by
    its largest absolute entry, its determinant is below it in size; and a
    back-projected point vanishes when its homogeneous coordinate w is at
    most that times the sum of the absolute terms that make it.  So s H,
    for s a power of 2 that neither overflows nor underflows an entry, is
    accepted exactly when H is, and gives the same source points bit for
    bit.
    """

    matrix: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("homography entries must be finite")
        if abs(np.linalg.det(m / (np.abs(m).max() or 1.0))) < PIVOT_RTOL:
            raise DegenerateTransformError("homography matrix is singular")
        object.__setattr__(self, "matrix", tuple(map(tuple, m)))

    def back_project(self, coords_rc: np.ndarray, image_size) -> np.ndarray:
        """Source (row, col) of each output (row, col); ``coords_rc`` is (..., 2)."""
        hinv = np.linalg.inv(np.asarray(self.matrix))
        ones = np.ones(coords_rc.shape[:-1])
        pts = np.stack([coords_rc[..., 1], coords_rc[..., 0], ones], axis=-1)
        # a stack (T, n, 2) is one (n, 3) @ (3, 3) product per tile, as for
        # the tile alone; BLAS may round one product over all T * n points
        # differently
        src = pts @ hinv.T
        wcoord = src[..., 2]
        if np.any(np.abs(wcoord) <= PIVOT_RTOL * (np.abs(pts) @ np.abs(hinv[2]))):
            raise DegenerateTransformError("back-projection has a vanishing homogeneous coordinate")
        return np.stack([src[..., 1] / wcoord, src[..., 0] / wcoord], axis=-1)

    def label(self) -> str:
        flat = ";".join(",".join(f"{v:g}" for v in row) for row in self.matrix)
        return f"homography({flat})"


@dataclass(frozen=True)
class InterpolatorOperator:
    """Bilinear taps of a tile's real outputs over its source footprint.

    The tile is a directed graph in which each output pixel has at most
    four in-edges, its bilinear taps.  Tap k gives output pixel
    ``target_coords[tap_row[k]]`` the weight ``tap_weight[k]`` on source
    pixel ``source_coords[tap_col[k]]``; the taps are in tile order, each
    output's in the order of `bilinear_rows`.  The row and column numbers
    are held in the smallest unsigned integer types that number every row
    and column a tile of its size can have.
    """

    source_coords: np.ndarray
    target_coords: np.ndarray
    tap_row: np.ndarray
    tap_col: np.ndarray
    tap_weight: np.ndarray

    @property
    def real_matrix(self) -> np.ndarray:
        """The dense (n, m) rows: row i holds the weights of output pixel
        ``target_coords[i]`` on the source pixels ``source_coords``.

        Built anew, zeros and then one scatter of the taps, on each access.
        """
        theta = np.zeros((len(self.target_coords), len(self.source_coords)))
        theta[self.tap_row, self.tap_col] = self.tap_weight
        return theta


@dataclass(frozen=True)
class PatchJob:
    """One output tile: its geometry and real-row operator."""

    origin: tuple
    size: tuple
    operator: InterpolatorOperator


def bilinear_rows(src_rc: np.ndarray, image_size):
    """Bilinear taps of back-projected points, as arrays.

    Returns ``(inside, row, tap_rc, weight)``.  ``inside`` masks the points
    that fall inside the image, bounds included; the others get no taps.
    The other three list one nonzero tap each: ``row`` numbers its point
    among the inside points, ``tap_rc`` is its source pixel (row, col) and
    ``weight`` its weight.  Zero-weight taps are dropped, so each inside
    point's weights are positive and sum to 1.
    """
    h, w = image_size
    sr, sc = src_rc[:, 0], src_rc[:, 1]
    inside = (sr >= 0.0) & (sr <= h - 1) & (sc >= 0.0) & (sc <= w - 1)
    sr, sc = sr[inside], sc[inside]
    br = np.minimum(np.floor(sr), max(h - 2, 0))
    bc = np.minimum(np.floor(sc), max(w - 2, 0))
    fr, fc = sr - br, sc - bc
    # taps in the order (0, 0), (0, 1), (1, 0), (1, 1)
    wr = np.column_stack([1.0 - fr, 1.0 - fr, fr, fr])
    wc = np.column_stack([1.0 - fc, fc, 1.0 - fc, fc])
    weight = wr * wc
    tap_r = br.astype(int)[:, None] + np.array([0, 0, 1, 1])
    tap_c = bc.astype(int)[:, None] + np.array([0, 1, 0, 1])
    keep = weight > 0.0
    row = np.nonzero(keep)[0]
    return inside, row, np.column_stack([tap_r[keep], tap_c[keep]]), weight[keep]


def pad_full_rank(theta_raw):
    """Append dummy unit rows until the operator is square and invertible.

    A rank-revealing (column-pivoted) QR of the raw matrix identifies
    source columns outside the pivot set; each such column gets one unit
    row, which copies an uncovered input pixel as a fake output.  Returns
    ``(padded, dummy_rows)``, with one ``(row, column)`` pair per dummy row.

    The QR is scipy's, and this is the package's only import of scipy:
    only tests call it (the pipeline never pads a tile), and scipy is a
    dependency of the ``test`` extra alone.
    """
    from scipy import linalg as sla

    theta_raw = np.asarray(theta_raw, dtype=float)
    n_real, m = theta_raw.shape
    if n_real > m:
        raise PatchGeometryError(
            f"more real outputs ({n_real}) than source pixels ({m})"
        )

    if n_real == m:
        padded = theta_raw
        dummies = ()
    else:
        _, r, perm = sla.qr(theta_raw, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        if n_real > 0 and (diag.min() <= PIVOT_RTOL * max(diag.max(), 1.0)):
            raise PatchGeometryError("raw interpolator rows are rank-deficient")
        unpivoted = sorted(perm[n_real:])
        padded = np.vstack(
            [theta_raw]
            + [np.eye(1, m, col) for col in unpivoted]
        )
        dummies = tuple(
            (n_real + i, int(col)) for i, col in enumerate(unpivoted)
        )

    require_nonsingular(padded, PatchGeometryError, "padded interpolator is singular")
    return padded, dummies


# Tiles of one shape are built together, at most this many at a time, which
# bounds the temporaries of the build.
TILE_BATCH = 16


def _build_tiles(transform, origins, size, image_size) -> list:
    """Assemble the operators of same-size tiles in one pass.

    Returns one PatchJob per origin, or None for a tile that back-projects
    fully out of bounds.  The points are back-projected as a (tiles, pixels,
    2) stack, so each tile gets the arithmetic it gets alone.  A tile's
    footprint is the sorted set of source pixels with a nonzero tap, so the
    columns follow the row-major order of the source image; one np.unique
    over (tile, pixel) keys finds every tile's footprint at once.  The
    tiles' taps are views of the batch's tap arrays.
    """
    h, w = image_size
    ph, pw = size
    rr, cc = np.mgrid[0:ph, 0:pw]
    offsets = np.asarray(origins)[:, None, :]
    targets = np.column_stack([rr.ravel(), cc.ravel()]) + offsets
    src = transform.back_project(targets.astype(float), image_size)
    inside, row, tap_rc, weight = bilinear_rows(src.reshape(-1, 2), image_size)
    counts = inside.reshape(len(origins), -1).sum(axis=1)
    tiles = np.arange(len(origins) + 1)
    point_start = np.concatenate([[0], np.cumsum(counts)])
    tap_tile = np.repeat(tiles[:-1], counts)[row]
    keys, col = np.unique(
        (tap_tile * h + tap_rc[:, 0]) * w + tap_rc[:, 1], return_inverse=True
    )
    key_start = np.searchsorted(keys // (h * w), tiles)
    # each tap's row and column within its own tile's matrix: a tile has
    # at most ph pw rows, and at most ROW_TAPS columns per row
    row = (row - point_start[tap_tile]).astype(np.min_scalar_type(ph * pw - 1))
    col = (col - key_start[tap_tile]).astype(np.min_scalar_type(ROW_TAPS * ph * pw - 1))
    tap_start = np.searchsorted(tap_tile, tiles).tolist()
    sources = np.column_stack(np.divmod(keys % (h * w), w))
    target_rc = targets.reshape(-1, 2)[inside]

    jobs = []
    point_start, key_start = point_start.tolist(), key_start.tolist()
    for t, origin in enumerate(origins):
        p0, p1 = point_start[t : t + 2]
        if p0 == p1:
            jobs.append(None)
            continue
        k0, k1 = key_start[t : t + 2]
        taps = slice(*tap_start[t : t + 2])
        op = InterpolatorOperator(
            sources[k0:k1], target_rc[p0:p1], row[taps], col[taps], weight[taps]
        )
        jobs.append(PatchJob(origin=tuple(origin), size=(ph, pw), operator=op))
    return jobs


def build_patch_operator(transform, origin, size, image_size) -> PatchJob:
    """Assemble the interpolation operator for one output tile."""
    (job,) = _build_tiles(transform, [origin], size, image_size)
    if job is None:
        raise PatchGeometryError(f"patch at {origin} back-projects fully out of bounds")
    return job


def tile_spans(length, patch_size):
    """``(start, size)`` of the tiles along a side; the grid is the product of two sides'."""
    return [(s, min(patch_size, length - s)) for s in range(0, length, patch_size)]


def require_tileable(image_size) -> None:
    """Raise PatchGeometryError unless the image has two pixels or more each way."""
    if min(image_size) < 2:
        raise PatchGeometryError("image too small to tile")


def tile_image(image_size, transform, patch_size: int):
    """Non-overlapping tiling of the output domain into patch jobs, row-major.

    Boundary tiles smaller than the patch size are processed as-is; tiles
    whose real-output set is empty are skipped (their pixels stay invalid).
    Tiles of one shape are built in batches of up to TILE_BATCH.  An image
    of one row or one column raises PatchGeometryError (`require_tileable`).
    """
    require_tileable(image_size)
    h, w = image_size
    by_size = {}
    for r0, rows in tile_spans(h, patch_size):
        for c0, cols in tile_spans(w, patch_size):
            by_size.setdefault((rows, cols), []).append((r0, c0))
    jobs = []
    for size, origins in by_size.items():
        for i in range(0, len(origins), TILE_BATCH):
            jobs += _build_tiles(transform, origins[i : i + TILE_BATCH], size, (h, w))
    return sorted((job for job in jobs if job is not None), key=lambda job: job.origin)


def parse_transform(spec: str, angle=None, h=None):
    """Build a transform from CLI-style arguments, each of which it must use."""
    if angle is not None and spec != "rotation":
        raise ValueError(f"an angle applies only to the rotation transform, not {spec!r}")
    if h is not None and spec != "homography":
        raise ValueError(f"a matrix applies only to the homography transform, not {spec!r}")
    if spec == "identity":
        return Rotation(0.0)
    if spec == "rotation":
        if angle is None:
            raise ValueError("rotation transform requires an angle")
        return Rotation(float(angle))
    if spec == "homography":
        if h is None:
            raise ValueError("homography transform requires a matrix")
        if isinstance(h, str):
            rows = [row.split(",") for row in h.split(";")]
            if [len(row) for row in rows] != [3, 3, 3]:
                raise ValueError(f"homography must be 3x3, got {h!r}")
            h = [[float(v) for v in row] for row in rows]
        return Homography(tuple(map(tuple, np.asarray(h, dtype=float))))
    raise ValueError(f"unknown transform {spec!r}")

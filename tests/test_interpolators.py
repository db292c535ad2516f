import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mixedgraph.errors import DegenerateTransformError, PatchGeometryError
from mixedgraph.interpolators import (
    OPERATOR_BYTES,
    ROW_TAPS,
    Homography,
    Rotation,
    bilinear_rows,
    build_patch_operator,
    pad_full_rank,
    parse_transform,
    tile_image,
)

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))


def scalar_warp(transform, image, targets):
    """Independent per-pixel back-project-and-bilinear oracle."""
    h, w = image.shape
    src = transform.back_project(np.asarray(targets, dtype=float), (h, w))
    out = []
    for sr, sc in src:
        if not (0 <= sr <= h - 1 and 0 <= sc <= w - 1):
            out.append(np.nan)
            continue
        r0 = min(int(math.floor(sr)), h - 2)
        c0 = min(int(math.floor(sc)), w - 2)
        fr, fc = sr - r0, sc - c0
        out.append(
            image[r0, c0] * (1 - fr) * (1 - fc)
            + image[r0 + 1, c0] * fr * (1 - fc)
            + image[r0, c0 + 1] * (1 - fr) * fc
            + image[r0 + 1, c0 + 1] * fr * fc
        )
    return np.array(out)


def loop_operator(transform, origin, size, image_size):
    """Per-pixel reference build of a tile's (real rows, footprint, targets)."""
    h, w = image_size
    pixels = [
        (r, c)
        for r in range(origin[0], origin[0] + size[0])
        for c in range(origin[1], origin[1] + size[1])
    ]
    # one batched back-projection: a homography's matrix product rounds
    # differently for a single row
    src = transform.back_project(np.array(pixels, dtype=float), image_size)
    rows, targets = [], []
    for pixel, (sr, sc) in zip(pixels, src):
        if not (0.0 <= sr <= h - 1 and 0.0 <= sc <= w - 1):
            continue
        br, bc = min(math.floor(sr), h - 2), min(math.floor(sc), w - 2)
        fr, fc = sr - br, sc - bc
        taps = {}
        for dr, wr in ((0, 1.0 - fr), (1, fr)):
            for dc, wc in ((0, 1.0 - fc), (1, fc)):
                if wr * wc > 0.0:
                    taps[(br + dr, bc + dc)] = wr * wc
        rows.append(taps)
        targets.append(pixel)
    footprint = sorted({tap for taps in rows for tap in taps})
    col = {tap: j for j, tap in enumerate(footprint)}
    theta = np.zeros((len(rows), len(footprint)))
    for i, taps in enumerate(rows):
        for tap, wgt in taps.items():
            theta[i, col[tap]] = wgt
    return theta, np.array(footprint), np.array(targets)


def apply_real(op, image):
    src = op.source_coords
    return op.real_matrix @ image[src[:, 0], src[:, 1]]


class TestRotationOperator:
    def test_angle_zero_is_identity(self):
        op = build_patch_operator(Rotation(0.0), (4, 4), (6, 6), (32, 32)).operator
        assert len(op.target_coords) == 36
        np.testing.assert_array_equal(op.real_matrix, np.eye(36))
        np.testing.assert_array_equal(op.source_coords, op.target_coords)

    def test_angle_90_is_permutation(self):
        op = build_patch_operator(Rotation(90.0), (0, 0), (9, 9), (9, 9)).operator
        m = op.real_matrix
        assert np.all((np.abs(m) < 1e-12) | (np.abs(m - 1) < 1e-12))
        np.testing.assert_allclose(m.sum(axis=1), 1.0)
        np.testing.assert_allclose(m.sum(axis=0), 1.0)

    def test_bilinear_weights_match_fractional_parts(self):
        tr = Rotation(20.0)
        op = build_patch_operator(tr, (10, 10), (10, 10), (64, 64)).operator
        src = tr.back_project(op.target_coords.astype(float), (64, 64))
        row = 5
        sr, sc = src[row]
        a, b = sr - math.floor(sr), sc - math.floor(sc)
        expected = sorted([(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b])
        got = sorted(op.real_matrix[row][op.real_matrix[row] > 0])
        np.testing.assert_allclose(got, [w for w in expected if w > 0], atol=1e-12)

    def test_out_of_bounds_patch_rejected(self):
        with pytest.raises(PatchGeometryError):
            build_patch_operator(Rotation(45.0), (0, 0), (2, 2), (200, 200))


    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            Rotation(angle)


class TestHomographyOperator:
    def test_identity_matrix(self):
        op = build_patch_operator(Homography(np.eye(3)), (2, 2), (5, 5), (16, 16)).operator
        np.testing.assert_array_equal(op.real_matrix, np.eye(25))

    def test_paper_matrix_against_scalar_oracle(self):
        tr = Homography(PAPER_H)
        rr, cc = np.mgrid[0:40, 0:40]
        plane = (rr + cc).astype(float)  # sampled u+v plane
        op = build_patch_operator(tr, (5, 5), (10, 10), (40, 40)).operator
        got = apply_real(op, plane)
        want = scalar_warp(tr, plane, op.target_coords)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_integer_translation_is_selection(self):
        tr = Homography(((1, 0, 3), (0, 1, 2), (0, 0, 1)))
        op = build_patch_operator(tr, (4, 4), (4, 4), (20, 20)).operator
        m = op.real_matrix
        assert np.all((m == 0.0) | (m == 1.0))
        np.testing.assert_array_equal(m.sum(axis=1), 1.0)

    def test_non_finite_homography_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Homography(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, np.nan)))

    def test_singular_homography_rejected(self):
        with pytest.raises(DegenerateTransformError):
            Homography(((1, 0, 0), (2, 0, 0), (0, 0, 1)))


def warp_or_error(matrix):
    """The taps of every tile of a 16 x 16 image warped by ``matrix``, or its error text."""
    try:
        jobs = tile_image((16, 16), Homography(matrix), 8)
    except DegenerateTransformError as exc:
        return str(exc)
    ops = [job.operator for job in jobs]
    fields = ("source_coords", "target_coords", "tap_row", "tap_col", "tap_weight")
    return [[getattr(op, name).tobytes() for name in fields] for op in ops]


# small dyadic entries make singular matrices and vanishing back-projections
# common; no entry is so small that a scale by 2^-60 would round it
ENTRIES = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0]),
    st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix=st.lists(ENTRIES, min_size=9, max_size=9), k=st.integers(-60, 60))
@example(matrix=[1.0, 0, 0, 0, 1, 0, 0, 0, 1], k=-17)  # about 1e-5
@example(matrix=[1.0, 0, 0, 0, 1, 0, 0, 0, 1], k=664)  # about 1e200
@example(matrix=[1.0, 0, 0, 0, 1, 0, 0.5, 0.5, 1], k=40)  # w vanishes
@example(matrix=[1.0, 0, 0, 0, 1, 0, 0, 0, 2.0**-1000], k=997)  # singular at any scale
def test_homography_is_defined_up_to_scale(matrix, k):
    # s H for s = 2^k is accepted exactly when H is, and gives the same taps bit for bit
    h = np.reshape(matrix, (3, 3))
    assert warp_or_error(np.ldexp(h, k)) == warp_or_error(h)


class TestPadFullRank:
    def test_square_invertible_unchanged(self):
        theta = np.array([[0.5, 0.5], [0.0, 1.0]])
        padded, dummies = pad_full_rank(theta)
        assert not dummies
        np.testing.assert_array_equal(padded, theta)

    def test_single_row_gets_one_dummy(self):
        padded, dummies = pad_full_rank(np.array([[0.5, 0.5]]))
        assert len(dummies) == 1
        assert abs(np.linalg.det(padded)) == pytest.approx(0.5)

    def test_rotation_patch_padding_invertible(self):
        real = build_patch_operator(Rotation(20.0), (200, 200), (10, 10), (512, 512)).operator
        assert real.real_matrix.shape == (100, len(real.source_coords))
        assert len(real.target_coords) == 100
        padded, dummies = pad_full_rank(real.real_matrix)
        assert len(dummies) == len(padded) - 100 > 0
        svals = np.linalg.svd(padded, compute_uv=False)
        assert svals[-1] > 1e-10 * svals[0]

    def test_rank_deficient_rejected(self):
        theta = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(PatchGeometryError):
            pad_full_rank(theta[:2])

    def test_strip_and_repad_preserves_real_rows(self):
        real = build_patch_operator(Rotation(20.0), (100, 100), (10, 10), (256, 256)).operator
        padded, dummies = pad_full_rank(real.real_matrix)
        n = len(real.target_coords)
        np.testing.assert_array_equal(padded[:n], real.real_matrix)
        repadded, redummies = pad_full_rank(padded[:n])
        np.testing.assert_array_equal(repadded, padded)
        assert redummies == dummies


class TestTileImage:
    def test_job_count_512(self):
        jobs = tile_image((512, 512), Rotation(0.0), 10)
        assert len(jobs) == 52 * 52
        sizes = {j.size for j in jobs}
        assert (10, 10) in sizes and (2, 2) in sizes

    def test_identity_footprint_equals_tile(self):
        jobs = tile_image((30, 30), Rotation(0.0), 10)
        for job in jobs:
            op = job.operator
            np.testing.assert_array_equal(op.source_coords, op.target_coords)

    def test_rotation_interior_footprint_exceeds_tile(self):
        jobs = tile_image((128, 128), Rotation(20.0), 10)
        interior = [
            j
            for j in jobs
            if 30 <= j.origin[0] <= 80 and 30 <= j.origin[1] <= 80
        ]
        assert interior
        for job in interior:
            assert len(job.operator.source_coords) > 100

    def test_every_real_pixel_covered_once(self):
        jobs = tile_image((64, 64), Rotation(20.0), 10)
        seen = np.zeros((64, 64), dtype=int)
        for job in jobs:
            tc = job.operator.target_coords
            seen[tc[:, 0], tc[:, 1]] += 1
        assert seen.max() == 1


class TestOperatorInvariants:
    @pytest.mark.parametrize(
        "transform", [Rotation(20.0), Rotation(-7.5), Homography(PAPER_H)]
    )
    def test_partition_of_unity(self, transform):
        op = build_patch_operator(transform, (8, 8), (10, 10), (48, 48)).operator
        const = np.full(op.real_matrix.shape[1], 0.37)
        np.testing.assert_allclose(
            op.real_matrix @ const, 0.37, atol=1e-12
        )

    @pytest.mark.parametrize(
        "transform", [Rotation(20.0), Homography(PAPER_H)]
    )
    def test_linear_precision(self, transform):
        rr, cc = np.mgrid[0:48, 0:48]
        img = 0.27 * rr - 0.13 * cc + 3.1
        op = build_patch_operator(transform, (12, 12), (10, 10), (48, 48)).operator
        src = transform.back_project(op.target_coords.astype(float), (48, 48))
        want = 0.27 * src[:, 0] - 0.13 * src[:, 1] + 3.1
        np.testing.assert_allclose(apply_real(op, img), want, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0, 1, (40, 40))
        transform = Rotation(float(rng.uniform(-40, 40)))
        op = build_patch_operator(transform, (10, 10), (10, 10), (40, 40)).operator
        want = scalar_warp(transform, img, op.target_coords)
        np.testing.assert_allclose(apply_real(op, img), want, atol=1e-12)


class TestTileOperatorOracles:
    """Every tile's real rows against scipy's warp and the per-pixel loop."""

    @pytest.mark.parametrize(
        "transform, size, edge_hits",
        [
            # pixels back-project exactly onto the last row and column
            (Rotation(90.0), 33, True),
            (Homography(PAPER_H), 41, True),
            (Rotation(20.0), 37, False),
        ],
    )
    def test_tiles_match_map_coordinates(self, transform, size, edge_hits):
        img = np.random.default_rng(size).uniform(0.0, 1.0, (size, size))
        seen = np.zeros((size, size), dtype=bool)
        on_edge = 0
        for job in tile_image((size, size), transform, 10):
            op = job.operator
            assert np.all(op.real_matrix >= 0.0)
            np.testing.assert_allclose(op.real_matrix.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            tc = op.target_coords
            src = transform.back_project(tc.astype(float), (size, size))
            want = ndimage.map_coordinates(img, src.T, order=1, mode="nearest")
            np.testing.assert_allclose(apply_real(op, img), want, rtol=0.0, atol=1e-12)
            on_edge += int(np.sum((src == size - 1).any(axis=1)))
            seen[tc[:, 0], tc[:, 1]] = True
        # the tiles cover exactly the pixels that back-project inside
        rr, cc = np.mgrid[0:size, 0:size]
        src = transform.back_project(
            np.column_stack([rr.ravel(), cc.ravel()]).astype(float), (size, size)
        )
        inside = ((src >= 0.0) & (src <= size - 1)).all(axis=1).reshape(size, size)
        np.testing.assert_array_equal(seen, inside)
        assert (on_edge > 0) == edge_hits

    @pytest.mark.parametrize(
        "transform, size",
        [(Rotation(90.0), 33), (Homography(PAPER_H), 41), (Rotation(20.0), 37)],
    )
    def test_tiles_equal_per_pixel_loop(self, transform, size):
        # same arithmetic as the array build, so the results are bit-equal
        for job in tile_image((size, size), transform, 10):
            theta, footprint, targets = loop_operator(
                transform, job.origin, job.size, (size, size)
            )
            op = job.operator
            np.testing.assert_array_equal(op.real_matrix, theta)
            np.testing.assert_array_equal(op.source_coords, footprint)
            np.testing.assert_array_equal(op.target_coords, targets)


MAGNIFY_2X = Homography(((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)))


class TestBatchedTiles:
    """`tile_image` builds tiles in batches; each tile is the one built alone."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        transform=st.one_of(
            st.floats(-180.0, 180.0).map(Rotation),
            st.just(Homography(PAPER_H)),
            st.just(MAGNIFY_2X),
        ),
        h=st.integers(2, 45),
        w=st.integers(2, 45),
        patch=st.integers(2, 12),
    )
    def test_equals_per_tile_build(self, transform, h, w, patch):
        alone = []
        for r0 in range(0, h, patch):
            for c0 in range(0, w, patch):
                size = (min(patch, h - r0), min(patch, w - c0))
                try:
                    alone.append(build_patch_operator(transform, (r0, c0), size, (h, w)))
                except PatchGeometryError:
                    continue
        jobs = tile_image((h, w), transform, patch)
        assert [(j.origin, j.size) for j in jobs] == [(j.origin, j.size) for j in alone]
        for job, want in zip(jobs, alone):
            theta, footprint, targets = loop_operator(transform, job.origin, job.size, (h, w))
            for op in (job.operator, want.operator):
                np.testing.assert_array_equal(op.real_matrix, theta)
                np.testing.assert_array_equal(op.source_coords, footprint)
                np.testing.assert_array_equal(op.target_coords, targets)


MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))


def scattered_operator(transform, origin, size, image_size):
    """One tile's (dense rows, footprint, targets), built as a dense array.

    `bilinear_rows`' taps of the tile's back-projected pixels, numbered by
    their sorted source pixels, scattered into zeros.
    """
    h, w = image_size
    rr, cc = np.mgrid[0 : size[0], 0 : size[1]]
    targets = np.column_stack([rr.ravel(), cc.ravel()]) + np.asarray(origin)
    src = transform.back_project(targets.astype(float), image_size)
    inside, row, tap_rc, weight = bilinear_rows(src, image_size)
    keys, col = np.unique(tap_rc[:, 0] * w + tap_rc[:, 1], return_inverse=True)
    theta = np.zeros((int(inside.sum()), len(keys)))
    theta[row, col] = weight
    return theta, np.column_stack(np.divmod(keys, w)), targets[inside]


def held_bytes(arrays):
    """The bytes of the distinct arrays that ``arrays`` are views of, or are."""
    bases = {}
    for a in arrays:
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


class TestTaps:
    """An operator keeps its taps; `real_matrix` builds the dense rows from them."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        transform=st.one_of(
            st.floats(-180.0, 180.0).map(Rotation),
            st.just(Homography(PAPER_H)),
            st.just(MAGNIFY_4X),
        ),
        h=st.integers(2, 40),
        w=st.integers(2, 40),
        patch=st.integers(2, 12),
    )
    # tiles of 400 pixels have more than 256 source columns
    @example(transform=Rotation(20.0), h=40, w=40, patch=20)
    def test_real_matrix_is_the_scattered_taps(self, transform, h, w, patch):
        jobs = tile_image((h, w), transform, patch)
        for job in jobs:
            op = job.operator
            theta, footprint, targets = scattered_operator(transform, job.origin, job.size, (h, w))
            got = op.real_matrix
            assert got.shape == theta.shape and got.dtype == theta.dtype
            assert got.tobytes() == theta.tobytes()
            np.testing.assert_array_equal(op.source_coords, footprint)
            np.testing.assert_array_equal(op.target_coords, targets)
            # each real row has one to ROW_TAPS positive taps, summing to 1
            per_row = np.bincount(op.tap_row, minlength=len(targets))
            assert per_row.min() >= 1 and per_row.max() <= ROW_TAPS
            assert np.all(op.tap_weight > 0.0)
            sums = np.bincount(op.tap_row, weights=op.tap_weight, minlength=len(targets))
            np.testing.assert_allclose(sums, 1.0, rtol=0.0, atol=1e-12)
        # the memory estimate charges the image's operators OPERATOR_BYTES
        # per pixel: the arrays behind them, shared by a batch's tiles
        ops = [job.operator for job in jobs]
        fields = ("source_coords", "target_coords", "tap_row", "tap_col", "tap_weight")
        assert held_bytes(getattr(op, f) for op in ops for f in fields) <= OPERATOR_BYTES * h * w

    def test_writing_the_dense_rows_leaves_the_operator(self):
        args = Homography(PAPER_H), (8, 8), (10, 10), (48, 48)
        op = build_patch_operator(*args).operator
        want, _, _ = scattered_operator(*args)
        taps = [a.copy() for a in (op.tap_row, op.tap_col, op.tap_weight)]
        dense = op.real_matrix
        dense[...] = 7.0
        assert op.real_matrix.tobytes() == want.tobytes()
        for a, b in zip((op.tap_row, op.tap_col, op.tap_weight), taps):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("transform", [Rotation(20.0), Homography(PAPER_H)])
    def test_taps_are_a_twentieth_of_the_dense_rows(self, transform):
        # criterion 8's image: about 2,400 tiles whose dense rows are
        # about 220 MB
        ops = [job.operator for job in tile_image((512, 512), transform, 10)]
        dense = sum(len(op.target_coords) * len(op.source_coords) * 8 for op in ops)
        assert dense > 200e6
        taps = held_bytes(a for op in ops for a in (op.tap_row, op.tap_col, op.tap_weight))
        assert taps < 0.05 * dense


class TestParseTransform:
    def test_forms(self):
        assert parse_transform("identity").angle_deg == 0.0
        assert parse_transform("rotation", angle=20).angle_deg == 20.0
        h = parse_transform("homography", h="1,0.2,0;0.1,1,0;0,0,1")
        assert h.matrix == PAPER_H

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_transform("rotation")
        with pytest.raises(ValueError):
            parse_transform("spin")
        # an argument the transform would not use
        with pytest.raises(ValueError, match="an angle applies only"):
            parse_transform("identity", angle=0.0)
        with pytest.raises(ValueError, match="a matrix applies only"):
            parse_transform("rotation", angle=20, h=np.eye(3))
        # a matrix string that is not 3 rows of 3 values
        for h in ["1,0;0,1,0;0,0,1", "1,0,0,0;0,1,0;0,0,1", "1,0,0;0,1,0", ""]:
            with pytest.raises(ValueError, match="^homography must be 3x3, got "):
                parse_transform("homography", h=h)

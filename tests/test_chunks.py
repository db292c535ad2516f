"""Chunks of tiles of one offset pattern, solved as one stack, and the memory check.

`_run_patches` groups the tiles by offset pattern (their target
coordinates minus their minimum) into chunks of up to `chunk_tiles` tiles,
and `run_chunk` builds, balances, certifies and solves each chunk's
kernels as one stack, from the pattern's coordinate-only work.  Every tile
of a chunk must get the arrays and the error text that `run_patch` gives
it alone, whichever tiles share its chunk and whichever tile of the
pattern the work was computed from, and no work may outlive its run.
`require_memory` rejects a run whose chunks cannot fit in memory before
anything is allocated; its tests only ever report a smaller machine.
"""

import collections
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedgraph
from mixedgraph import cli, denoisers, interpolators, pipeline
from mixedgraph.denoisers import KINDS, KernelParams
from mixedgraph.errors import TileMemoryError
from mixedgraph.interpolators import Homography, Rotation, tile_image
from mixedgraph.jointsolver import SolverWeights
from mixedgraph.pipeline import (
    STACK_KERNELS,
    ExperimentConfig,
    add_gaussian_noise,
    run_chunk,
    run_experiment,
    run_patch,
    synthetic_texture,
)

from helpers import SIZE, noisy_stack, outcomes, pattern

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))
TRANSFORMS = st.one_of(
    st.just(Rotation(0.0)),
    st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
    st.sampled_from([Homography(PAPER_H), MAGNIFY_4X]),
)
VARIANCES = (0.001, 0.02, 0.05, 0.1, 0.2)
# NLM at the CLI's h^2 fails most tiles' certification; spatial_var 4 puts
# every Gaussian and bilateral filter below the Schur bound's margin, so
# each takes the Cholesky fallback
PARAMS = (
    KernelParams(),
    KernelParams(nlm_h2=0.05, range_var=0.03),
    KernelParams(spatial_var=4.0),
)


def by_pattern(jobs):
    """``{pattern: [job, ...]}`` of the jobs, in the order of first appearance."""
    groups = {}
    for job in jobs:
        groups.setdefault(pattern(job), []).append(job)
    return groups


def has_hole(coords):
    """Whether the coordinates leave a cell of their bounding box empty."""
    span = coords.max(axis=0) - coords.min(axis=0) + 1
    return len(coords) < span[0] * span[1]


def singular_where(poison):
    """np.linalg.solve, raising LinAlgError on any system with right-hand side ``poison``."""
    solve = np.linalg.solve

    def poisoned(a, b):
        rows = np.asarray(b)[..., 0].reshape(-1, np.shape(b)[-2])
        if any(np.array_equal(row, poison) for row in rows):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return poisoned


def per_tile_run(jobs, images, config):
    """The ``(outputs, valid, errors)`` of `_run_patches`, written from each job's `run_patch`.

    A failed (tile, image) and a pixel no job targets are 0 and invalid.
    """
    outputs = {mode: np.zeros(images.shape) for mode in config.modes}
    valid = np.zeros(images.shape, dtype=bool)
    errors = []
    for job in jobs:
        joint, sequential, (tile_errors,) = run_patch(job, images, config)
        rows, cols = job.operator.target_coords.T
        for s, error in enumerate(tile_errors):
            if error is None:
                valid[s, rows, cols] = True
                for mode, x in (("joint", joint), ("sequential", sequential)):
                    if mode in outputs:
                        outputs[mode][s, rows, cols] = x[0, s]
        errors.append(list(tile_errors))
    return outputs, valid, errors


def assert_same_run(got, want):
    """`_run_patches`' ``(outputs, valid, errors)`` equal `per_tile_run`'s, byte for byte."""
    (outputs, valid, errors), (want_outputs, want_valid, want_errors) = got, want
    assert errors.tolist() == want_errors
    assert valid.tobytes() == want_valid.tobytes()
    assert outputs.keys() == want_outputs.keys()
    for mode, stack in outputs.items():
        assert stack.tobytes() == want_outputs[mode].tobytes(), mode


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    transform=TRANSFORMS,
    kind=st.sampled_from(KINDS),
    signals=st.sampled_from([1, 2, 5]),
    mode=st.sampled_from(["joint", "sequential", "both"]),
    kappa=st.sampled_from([0.0, 0.3]),
    params=st.sampled_from(PARAMS),
    singular=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_chunk_matches_its_tiles_alone(
    transform, kind, signals, mode, kappa, params, singular, seed, data
):
    config = ExperimentConfig(
        transform=transform,
        denoiser_kind=kind,
        kernel_params=params,
        weights=SolverWeights(kappa=kappa),
        noise_variances=VARIANCES[:signals],
        mode=mode,
    )
    jobs = tile_image((SIZE, SIZE), transform, config.patch_size)
    # any tiles of one offset pattern, with the work of any tile of it, or none
    group = data.draw(st.sampled_from(sorted(by_pattern(jobs).values(), key=len, reverse=True)))
    size = pipeline.chunk_tiles(len(group[0].operator.target_coords), signals)
    chunk = data.draw(st.permutations(group))[: data.draw(st.integers(1, size))]
    source = data.draw(st.sampled_from(group + [None]))
    work = None if source is None else pipeline._coordinate_work(source.operator, config)
    images = noisy_stack(seed, config.noise_variances)
    with pytest.MonkeyPatch.context() as patch:
        if singular:
            # one signal's system is singular, in the chunk and alone
            op = data.draw(st.sampled_from(chunk)).operator
            y = images[data.draw(st.integers(0, signals - 1))]
            poison = op.real_matrix @ y[op.source_coords[:, 0], op.source_coords[:, 1]]
            patch.setattr(np.linalg, "solve", singular_where(poison))
        got = run_chunk(chunk, images, config, work)
        want = [run_patch(job, images, config) for job in chunk]
    assert outcomes([got]) == outcomes(want)


def test_tiles_of_one_pixel_count_split_by_pattern():
    # 10 x 2 and 2 x 10 edge tiles share a pixel count but not a pattern,
    # so they land in separate chunks; at the CLI's h^2 some NLM filters
    # fail certification and some pass
    config = ExperimentConfig(
        transform=Rotation(0.0), denoiser_kind="nlm", noise_variances=(0.2,)
    )
    jobs = tile_image((SIZE, SIZE), config.transform, config.patch_size)
    edge = {i for i, job in enumerate(jobs) if len(job.operator.target_coords) == 20}
    assert len(edge) == 6 and len({pattern(jobs[i]) for i in edge}) == 2
    chunks = [tiles for _, tiles in pipeline._chunks(jobs, 1) if edge & set(tiles)]
    assert len(chunks) == 2 and set(chunks[0] + chunks[1]) == edge
    assert all(len({pattern(jobs[i]) for i in tiles}) == 1 for tiles in chunks)
    images = noisy_stack(1, config.noise_variances)
    got = [outcomes([run_chunk([jobs[i] for i in tiles], images, config)]) for tiles in chunks]
    assert got == [outcomes([run_patch(jobs[i], images, config) for i in tiles]) for tiles in chunks]
    errors = [error for chunk in got for results in chunk for error, *_ in results]
    assert None in errors and "nlm denoiser failed certification on patch" in errors


def test_nlm_hole_tiles_share_patterns():
    # the property test's cases exist: NLM tiles with holes, and patterns
    # that serve several tiles; each chunk is solved from the work of its
    # pattern's last tile
    config = ExperimentConfig(
        transform=Rotation(30.0),
        denoiser_kind="nlm",
        kernel_params=KernelParams(nlm_h2=0.05),
        noise_variances=(0.02, 0.1),
    )
    jobs = tile_image((SIZE, SIZE), config.transform, 10)
    groups = by_pattern(jobs)
    assert any(has_hole(job.operator.target_coords) for job in jobs)
    assert len(groups) < len(jobs)
    images = noisy_stack(5, config.noise_variances)
    for key, tiles in pipeline._chunks(jobs, len(images)):
        chunk = [jobs[i] for i in tiles]
        work = pipeline._coordinate_work(groups[key][-1].operator, config)
        got = run_chunk(chunk, images, config, work)
        assert outcomes([got]) == outcomes([run_patch(job, images, config) for job in chunk])


@pytest.mark.parametrize("kind", KINDS)
def test_full_chunk_of_rotated_tiles(kind):
    # eight 10 x 10 tiles, each with its own theta_r, so its own P
    config = ExperimentConfig(
        transform=Rotation(20.0), denoiser_kind=kind, kernel_params=KernelParams(nlm_h2=0.05)
    )
    jobs = tile_image((64, 64), config.transform, config.patch_size)
    chunk = [job for job in jobs if len(job.operator.target_coords) == 100][:STACK_KERNELS]
    ps = {(op.real_matrix @ op.real_matrix.T).tobytes() for op in (j.operator for j in chunk)}
    assert len(chunk) == STACK_KERNELS and len(ps) == len(chunk)
    image = add_gaussian_noise(synthetic_texture("texture-a", 64), 0.02, 3).pixels[None]
    got = run_chunk(chunk, image, config)
    assert outcomes([got]) == outcomes([run_patch(job, image, config) for job in chunk])
    assert np.equal(got[2], None).all()


@pytest.mark.parametrize("kind", KINDS)
def test_cache_holds_only_the_chunk_patterns(kind, monkeypatch):
    # each process keeps only its last pattern's coordinate work and hands
    # it to that pattern's chunks; the chunks of one pattern are
    # consecutive, so each pattern's work is done once
    config = ExperimentConfig(transform=Rotation(20.0), denoiser_kind=kind)
    image = add_gaussian_noise(synthetic_texture("texture-a", 64), 0.02, 3).pixels[None]
    computed, patterns, alive = [], [], {}
    last = [None]  # the work of the last chunk, and nothing older
    coordinate_work = denoisers.coordinate_work

    def counting(kind, coords, params):
        computed.append((coords - coords.min(axis=0)).tobytes())
        return coordinate_work(kind, coords, params)

    def checking(chunk, images, config, work):
        keys = {pattern(job) for job in chunk}
        assert len(keys) == 1
        key = keys.pop()
        if patterns:
            assert (work is last[0]) == (key == patterns[-1])
        last[0] = work
        patterns.append(key)
        # an array of the work: the factor, NLM's gather indices or psi
        array = work[0] if isinstance(work[0], np.ndarray) else work[0][0]
        alive.setdefault(key, weakref.ref(array))
        assert all(ref() is None for k, ref in alive.items() if k != key)
        return run_chunk(chunk, images, config, work)

    monkeypatch.setattr(denoisers, "coordinate_work", counting)
    monkeypatch.setattr(pipeline, "run_chunk", checking)
    jobs, *_ = pipeline._run_patches(image, config)
    assert len(patterns) > len(computed)
    assert computed == list(dict.fromkeys(patterns)) == list(by_pattern(jobs))


def test_chunk_with_no_passing_denoiser_is_not_solved(monkeypatch):
    # the image of `joint --texture texture-a --texture-size 128 --transform
    # rotation --angle 20 --denoiser nlm`: at the CLI's h^2 most chunks
    # have every NLM filter failed, and only the others are solved
    config = ExperimentConfig(transform=Rotation(20.0), denoiser_kind="nlm", mode="joint")
    image = synthetic_texture("texture-a", 128).pixels[None]
    solved = []
    solve = np.linalg.solve

    def counting(a, b):
        solved.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    jobs, *got = pipeline._run_patches(image, config)
    monkeypatch.undo()
    chunks = [tiles for _, tiles in pipeline._chunks(jobs, 1)]
    errors = got[-1]
    passing = [tiles for tiles in chunks if any(errors[i, 0] is None for i in tiles)]
    assert 0 < len(passing) < len(chunks)
    assert solved == [len(tiles) for tiles in passing]
    assert_same_run(got, per_tile_run(jobs, image, config))


@pytest.mark.parametrize("workers", [1, 2])
def test_stacks_hold_each_tile_outputs(workers):
    # the images of the CI's 64 px NLM homography experiment at h^2 0.3:
    # some tiles fail on one image and pass on the other, and the
    # homography leaves pixels that no tile targets
    config = ExperimentConfig(
        transform=Homography(PAPER_H),
        denoiser_kind="nlm",
        noise_variances=(0.02, 0.06),
        workers=workers,
    )
    clean = synthetic_texture("texture-b", 64).pixels
    variances = enumerate(config.noise_variances)
    images = np.stack([add_gaussian_noise(clean, var, config.seed ^ vi) for vi, var in variances])
    jobs, *got = pipeline._run_patches(images, config)
    want = per_tile_run(jobs, images, config)
    failed = np.not_equal(want[-1], None)
    assert (failed[:, 0] != failed[:, 1]).any()
    covered = np.zeros(clean.shape, dtype=bool)
    for job in jobs:
        covered[tuple(job.operator.target_coords.T)] = True
    assert not covered.all()
    assert_same_run(got, want)


def test_pool_writes_the_serial_gaussian_csv():
    # each forked child computes the Gaussian denoisers of its own chunks
    config = ExperimentConfig(
        transform=Homography(PAPER_H),
        denoiser_kind="gaussian",
        noise_variances=(0.02, 0.06),
        seed=4,
    )
    img = synthetic_texture("texture-b", 40)
    _, serial = run_experiment(config, img, "texture-b")
    _, pooled = run_experiment(replace(config, workers=2), img, "texture-b")
    assert pooled == serial


FRESH_RUN = """
import json, sys
from mixedgraph.denoisers import KernelParams
from mixedgraph.interpolators import Rotation
from mixedgraph.pipeline import ExperimentConfig, run_experiment, synthetic_texture
kind, spatial_var = json.loads(sys.argv[1])
config = ExperimentConfig(
    transform=Rotation(20.0), denoiser_kind=kind,
    kernel_params=KernelParams(spatial_var=spatial_var), noise_variances=(0.02, 0.06),
)
print(run_experiment(config, synthetic_texture("texture-a", 36), "texture-a")[1], end="")
"""


def test_no_coordinate_work_outlives_its_run():
    # two runs in this process, with the same tiles but other kernel
    # parameters, each write what a new interpreter writes for them alone
    runs = [("gaussian", 0.3), ("gaussian", 2.0), ("bilateral", 0.3), ("bilateral", 2.0)]
    env = dict(os.environ, PYTHONPATH=str(Path(mixedgraph.__file__).parent.parent))
    fresh = [
        subprocess.Popen(
            [sys.executable, "-c", FRESH_RUN, json.dumps(run)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for run in runs
    ]
    img = synthetic_texture("texture-a", 36)
    here = []
    for kind, spatial_var in runs:
        config = ExperimentConfig(
            transform=Rotation(20.0),
            denoiser_kind=kind,
            kernel_params=KernelParams(spatial_var=spatial_var),
            noise_variances=(0.02, 0.06),
        )
        here.append(run_experiment(config, img, "texture-a")[1])
    want = [proc.communicate()[0] for proc in fresh]
    assert all(proc.returncode == 0 for proc in fresh)
    assert here == want
    assert len(set(here)) == len(runs)


def test_chunk_tiles():
    # the fewest tiles whose kernels reach a budget of 8 kernels of 100
    # pixels, or of fewer kernels, 80,000 // n^2, for larger tiles: one
    # tile per chunk once a tile's n x n outweighs that
    assert [pipeline.chunk_tiles(100, v) for v in (1, 2, 3, 5, 9)] == [8, 4, 3, 2, 1]
    assert [pipeline.chunk_tiles(n, 1) for n in (20, 144, 200, 201, 4096)] == [8, 3, 2, 1, 1]
    # 144 pixels: a budget of 3 kernels, reached by 2 tiles of 2
    assert pipeline.chunk_tiles(144, 2) == 2


def test_chunks_fill_the_kernel_budget():
    # up to 100 pixels, every chunk but a pattern's last stacks between
    # STACK_KERNELS and STACK_KERNELS + V - 1 kernels; at V = 1 and 2,
    # which divide STACK_KERNELS, exactly STACK_KERNELS
    for n in range(1, 101):
        for signals in range(1, 2 * STACK_KERNELS + 2):
            kernels = pipeline.chunk_tiles(n, signals) * signals
            assert STACK_KERNELS <= kernels <= STACK_KERNELS + signals - 1
        assert pipeline.chunk_tiles(n, 1) == STACK_KERNELS
        assert pipeline.chunk_tiles(n, 2) == STACK_KERNELS // 2
    jobs = tile_image((64, 64), Rotation(20.0), 10)
    for signals in (1, 2, 3, 5, 7):
        chunks = pipeline._chunks(jobs, signals)
        full = [
            len(tiles) * signals
            for (key, tiles), (after, _) in zip(chunks, chunks[1:])
            if after == key
        ]
        assert full and all(STACK_KERNELS <= k <= STACK_KERNELS + signals - 1 for k in full)


@pytest.mark.parametrize("patch", [10, 12, 15])
@pytest.mark.parametrize("signals", [1, 2, 3, 5, 9])
def test_chunks_group_tiles_of_one_pixel_count(signals, patch):
    jobs = tile_image((64, 64), Rotation(20.0), patch)
    chunks = pipeline._chunks(jobs, signals)
    # the patterns in the order of their first tiles, each one's tiles in
    # index order, cut into runs of `chunk_tiles`; a pattern has one pixel
    # count
    groups = {}
    for i, job in enumerate(jobs):
        groups.setdefault(pattern(job), []).append(i)
    want = []
    for key, tiles in groups.items():
        size = pipeline.chunk_tiles(len(jobs[tiles[0]].operator.target_coords), signals)
        want += [(key, tiles[k : k + size]) for k in range(0, len(tiles), size)]
    assert chunks == want
    assert len(groups) < len(jobs)
    if patch == 15:
        # 225 pixels: every chunk of full tiles is one tile
        full = [tiles for _, tiles in chunks if len(jobs[tiles[0]].operator.target_coords) == 225]
        assert full and all(len(tiles) == 1 for tiles in full)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    transform=TRANSFORMS,
    size=st.integers(2, 64),
    patch=st.integers(2, 16),
    signals=st.integers(1, 9),
)
def test_chunks_never_mix_patterns_or_overfill(transform, size, patch, signals):
    jobs = tile_image((size, size), transform, patch)
    chunks = pipeline._chunks(jobs, signals)
    assert sorted(i for _, tiles in chunks for i in tiles) == list(range(len(jobs)))
    for key, tiles in chunks:
        assert {pattern(jobs[i]) for i in tiles} == {key}
        n = len(jobs[tiles[0]].operator.target_coords)
        assert 1 <= len(tiles) <= pipeline.chunk_tiles(n, signals)
        assert tiles == sorted(tiles)
    # the chunks of one pattern are consecutive
    keys = [key for key, _ in chunks]
    assert sum(k == 0 or key != keys[k - 1] for k, key in enumerate(keys)) == len(set(keys))
    # the memory estimate counts every tile of the grid at its full size:
    # label each pixel with its tile and count the tiles of each size
    tile = np.arange(size) // patch
    pixels = collections.Counter(zip(np.repeat(tile, size), np.tile(tile, size)))
    assert pipeline._tile_counts((size, size), patch) == collections.Counter(pixels.values())


def chunk_bytes(kernels, tiles, n, columns, cached=None):
    """A chunk's n x n stacks of ``kernels``, its tiles' dense rows of
    ``columns`` each, and its pattern's coordinate work of ``cached``
    numbers (n x n by default)."""
    stacks = (pipeline.LIVE_STACKS * kernels + pipeline.CHUNK_ARRAYS) * n
    cached = n * n if cached is None else cached
    return ((stacks + tiles * columns) * n + cached) * 8


def memory(monkeypatch, nbytes):
    """Have os.sysconf report ``nbytes`` of physical memory, rounded up to 4 KiB pages."""
    sizes = {"SC_PHYS_PAGES": -(-nbytes // 4096), "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])


def no_tiling(*args, **kwargs):
    raise AssertionError("tiled an image that cannot fit in memory")


def traced_peak(images, config):
    """The peak bytes tracemalloc sees over `_run_patches`: operators, coordinate work, chunks."""
    tracemalloc.start()
    try:
        pipeline._run_patches(images, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRequireMemory:
    CONFIG = ExperimentConfig(transform=Rotation(20.0))

    def test_estimate(self):
        peak, chunk = pipeline.tile_peak_bytes, chunk_bytes

        def held(pixels):
            """Every tile's operator, held for the whole run."""
            return pipeline.OPERATOR_BYTES * pixels

        # patch 200 on a 256 px image: one tile of n = 40,000 per chunk,
        # whose dense rows have at most the image's 65,536 columns, not 4 n,
        # and whose chunk holds one n x n factor
        config = replace(self.CONFIG, patch_size=200)
        assert peak(config, (1, 256, 256)) == chunk(1, 1, 40_000, 65_536) + held(65_536)
        # a patch larger than the image: one tile, the whole image
        assert peak(config, (1, 30, 20)) == chunk(1, 1, 600, 600) + held(600)
        assert peak(config, (5, 30, 20)) == chunk(5, 1, 600, 600) + held(600)
        # a signal-free kind builds one kernel per tile
        gaussian = replace(config, denoiser_kind="gaussian")
        assert peak(gaussian, (5, 30, 20)) == chunk(1, 1, 600, 600) + held(600)
        # NLM's work is its gather indices and pair list, n (k^2 + w^2) numbers
        nlm = replace(config, denoiser_kind="nlm")
        assert peak(nlm, (1, 30, 20)) == chunk(1, 1, 600, 600, 600 * (3**2 + 9**2)) + held(600)
        # V = 5: two tiles of 5 kernels per chunk; V = 3: three tiles of 3;
        # the 64 px grid's largest tiles have 100 pixels
        assert peak(self.CONFIG, (5, 64, 64)) == chunk(10, 2, 100, 400) + held(64 * 64)
        assert peak(self.CONFIG, (3, 64, 64)) == chunk(9, 3, 100, 400) + held(64 * 64)
        # four tiles, fewer than a chunk holds
        assert peak(self.CONFIG, (1, 20, 20)) == chunk(4, 4, 100, 400) + held(400)

    def test_estimate_sums_the_largest_chunk_per_worker(self):
        def more(config, shape):
            """What ``config.workers`` processes add to the estimate of one."""
            one = replace(config, workers=1)
            return pipeline.tile_peak_bytes(config, shape) - pipeline.tile_peak_bytes(one, shape)

        config = replace(self.CONFIG, workers=3)
        # 36 full tiles at V = 1: chunks of 8, 8, 8, 8 and 4 tiles
        assert more(config, (1, 64, 64)) == 2 * chunk_bytes(8, 8, 100, 400)
        # four tiles may be of four patterns, so each further process may
        # hold a chunk of none of the first chunk's tiles: its n x n arrays
        # and its pattern's work
        assert more(config, (1, 20, 20)) == 2 * chunk_bytes(0, 0, 100, 400)
        # a tile larger than a chunk's stacks: one process per tile; on a
        # 40 x 20 image its dense rows have at most 800 columns
        config = replace(config, patch_size=20)
        assert more(config, (1, 40, 20)) == chunk_bytes(1, 1, 400, 800)
        assert more(config, (1, 60, 60)) == 2 * chunk_bytes(1, 1, 400, 1600)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "kind, signals, size, transform",
        [
            # 10 x 2 and 2 x 10 tiles: one pixel count, two one-tile chunks
            ("bilateral", 1, 12, Rotation(0.0)),
            ("gaussian", 2, 32, Rotation(0.0)),
            ("nlm", 2, 32, Rotation(0.0)),
            ("bilateral", 1, 64, Rotation(20.0)),
            ("bilateral", 2, 64, Homography(PAPER_H)),
        ],
    )
    def test_estimate_bounds_the_chunks_the_workers_hold(
        self, kind, signals, size, transform, workers
    ):
        # the tiles of one pixel count split into partial chunks, one per
        # pattern, and each worker may hold any one chunk at a time
        config = replace(self.CONFIG, transform=transform, denoiser_kind=kind, workers=workers)
        jobs = tile_image((size, size), transform, config.patch_size)
        kernels = 1 if kind in denoisers.SIGNAL_FREE else signals
        held = []
        for _, tiles in pipeline._chunks(jobs, signals):
            n = len(jobs[tiles[0]].operator.target_coords)
            cached = denoisers.coordinate_work_size(kind, n, config.kernel_params)
            columns = min(pipeline.ROW_TAPS * n, size * size)
            held.append(chunk_bytes(kernels * len(tiles), len(tiles), n, columns, cached))
        most = sum(sorted(held, reverse=True)[:workers]) + pipeline.OPERATOR_BYTES * size * size
        assert most <= pipeline.tile_peak_bytes(config, (signals, size, size))

    @pytest.mark.parametrize("patch", [10, 20, 30])
    def test_estimate_bounds_the_measured_peak_within_2_5_times(self, patch):
        # tracemalloc over the whole run: operators, coordinate cache,
        # chunks; the cache holds only the current chunk's patterns, so the
        # estimate charges each chunk its own and stays near the peak
        config = replace(self.CONFIG, patch_size=patch)
        clean = synthetic_texture("texture-a", 120).pixels
        images = add_gaussian_noise(clean, 0.02, 0)[None]
        traced = traced_peak(images, config)
        assert traced <= pipeline.tile_peak_bytes(config, images.shape) <= 2.5 * traced

    @pytest.mark.parametrize("signals", [3, 5])
    def test_estimate_bounds_the_measured_peak_of_a_sweep(self, signals):
        # V kernels per tile: chunks of 3 tiles of 3 kernels or 2 tiles of
        # 5, past the STACK_KERNELS budget
        config = replace(self.CONFIG, patch_size=10, noise_variances=VARIANCES[:signals])
        clean = synthetic_texture("texture-a", 120).pixels
        variances = enumerate(config.noise_variances)
        images = np.stack([add_gaussian_noise(clean, v, i) for i, v in variances])
        assert traced_peak(images, config) <= pipeline.tile_peak_bytes(config, images.shape)

    def test_bound_is_physical_memory(self, monkeypatch):
        config = replace(self.CONFIG, workers=3)
        need = pipeline.tile_peak_bytes(config, (2, 64, 64))
        memory(monkeypatch, need)
        pipeline.require_memory(config, (2, 64, 64))
        memory(monkeypatch, need - 4096)
        with pytest.raises(TileMemoryError, match="tiles of patch size 10 need about"):
            pipeline.require_memory(config, (2, 64, 64))

    def test_rejected_before_tiling(self, monkeypatch):
        image = synthetic_texture("texture-a", 32)
        config = replace(self.CONFIG, noise_variances=(0.02, 0.06))
        memory(monkeypatch, pipeline.tile_peak_bytes(config, (2, 32, 32)) - 4096)
        monkeypatch.setattr(interpolators, "tile_image", no_tiling)
        with pytest.raises(TileMemoryError):
            run_experiment(config, image)
        with pytest.raises(TileMemoryError):
            pipeline.process_image(replace(config, mode="joint"), image)

    def test_unreported_memory_is_not_checked(self, monkeypatch):
        def no_sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", no_sysconf)
        pipeline.require_memory(replace(self.CONFIG, patch_size=200), (1, 256, 256))


@pytest.mark.parametrize(
    "command, flag", [("joint", "--out-image"), ("experiment", "--out-csv")]
)
def test_cli_rejects_an_oversized_tile_first(command, flag, tmp_path, monkeypatch, capsys):
    memory(monkeypatch, 8 << 30)
    monkeypatch.setattr(interpolators, "tile_image", no_tiling)
    out = tmp_path / "out"
    args = [command, "--texture", "texture-a", "--texture-size", "256", "--patch-size", "200"]
    assert cli.main(args + [flag, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # one tile of n = 40,000 per chunk: 2 + 2 arrays of n x n doubles,
    # 47.7 GiB, its dense rows of 65,536 columns, 19.5 GiB, and the chunk's
    # cached n x n factor, 11.9 GiB
    assert captured.err == (
        "texture-a: tiles of patch size 200 need about 79.1 GiB, more than the 8.0 GiB of memory\n"
    )
    assert not out.exists()


def test_nlm_window_wider_than_the_tile_is_charged_the_tile(tmp_path, monkeypatch):
    # a 10 x 10 tile has at most 9,900 pair indices, however wide the window:
    # windows 19 up cover every pair, and window 9999 was charged 74.5 GiB
    memory(monkeypatch, 1 << 30)
    outs = []
    for window in ("31", "9999"):
        outs.append(tmp_path / f"w{window}.csv")
        args = ["experiment", "--texture", "texture-a", "--texture-size", "32"]
        args += ["--transform", "rotation", "--angle", "20", "--variances", "0.02,0.06"]
        args += ["--denoiser", "nlm", "--nlm-h2", "0.05", "--nlm-window", window]
        assert cli.main(args + ["--out-csv", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

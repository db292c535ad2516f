"""Chunks of equal-size tiles, solved as one stack, and the memory check.

`_run_patches` groups the tiles by pixel count n into chunks of up to
`chunk_tiles` tiles, and `run_chunk` builds, balances,
certifies and solves each chunk's kernels as one stack.  Every tile of a
chunk must get the arrays and the error text that `run_patch` gives it
alone, whichever tiles share its chunk.  `require_memory` rejects a run
whose chunks cannot fit in memory before anything is allocated; its tests
only ever report a smaller machine.
"""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

PAPER_H = ((1.0, 0.2, 0.0), (0.1, 1.0, 0.0), (0.0, 0.0, 1.0))
MAGNIFY_4X = Homography(((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0)))
SIZE = 32
VARIANCES = (0.001, 0.02, 0.05, 0.1, 0.2)
# NLM at the CLI's h^2 fails most tiles' certification; spatial_var 4 puts
# every Gaussian and bilateral filter below the Schur bound's margin, so
# each takes the Cholesky fallback
PARAMS = (
    KernelParams(),
    KernelParams(nlm_h2=0.05, range_var=0.03),
    KernelParams(spatial_var=4.0),
)


def noisy_stack(seed, variances):
    clean = np.random.default_rng(seed).uniform(0.0, 1.0, (SIZE, SIZE))
    return np.stack([add_gaussian_noise(clean, v, seed ^ i) for i, v in enumerate(variances)])


def outcomes(per_tile):
    return [
        [
            (res.error, *(None if a is None else np.asarray(a).tobytes() for a in (res.joint, res.sequential)))
            for res in results
        ]
        for results in per_tile
    ]


def pattern(job):
    tc = job.operator.target_coords
    return (tc - tc.min(axis=0)).tobytes()


def singular_where(poison):
    """np.linalg.solve, raising LinAlgError on any system with right-hand side ``poison``."""
    solve = np.linalg.solve

    def poisoned(a, b):
        rows = np.asarray(b)[..., 0].reshape(-1, np.shape(b)[-2])
        if any(np.array_equal(row, poison) for row in rows):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return poisoned


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    transform=st.one_of(
        st.just(Rotation(0.0)),
        st.floats(-45.0, 45.0, allow_nan=False).map(Rotation),
        st.sampled_from([Homography(PAPER_H), MAGNIFY_4X]),
    ),
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
    by_count = {}
    for job in jobs:
        by_count.setdefault(len(job.operator.target_coords), []).append(job)
    # any tiles of one pixel count, whatever their offset patterns
    group = data.draw(st.sampled_from(sorted(by_count.values(), key=len, reverse=True)))
    size = pipeline.chunk_tiles(len(group[0].operator.target_coords), signals)
    chunk = data.draw(st.permutations(group))[: data.draw(st.integers(1, size))]
    images = noisy_stack(seed, config.noise_variances)
    with pytest.MonkeyPatch.context() as patch:
        if singular:
            # one signal's system is singular, in the chunk and alone
            op = data.draw(st.sampled_from(chunk)).operator
            y = images[data.draw(st.integers(0, signals - 1))]
            poison = op.real_matrix @ y[op.source_coords[:, 0], op.source_coords[:, 1]]
            patch.setattr(np.linalg, "solve", singular_where(poison))
        got = run_chunk(chunk, images, config, {})
        want = [run_patch(job, images, config) for job in chunk]
    assert outcomes(got) == outcomes(want)


def test_chunk_mixes_patterns_and_failures():
    # 10 x 2 and 2 x 10 edge tiles share a pixel count but not a pattern;
    # at the CLI's h^2 some NLM filters fail certification and some pass
    config = ExperimentConfig(
        transform=Rotation(0.0), denoiser_kind="nlm", noise_variances=(0.2,)
    )
    jobs = tile_image((SIZE, SIZE), config.transform, config.patch_size)
    chunk = [job for job in jobs if len(job.operator.target_coords) == 20]
    assert len(chunk) == 6 and len({pattern(job) for job in chunk}) == 2
    images = noisy_stack(1, config.noise_variances)
    got = outcomes(run_chunk(chunk, images, config, {}))
    assert got == outcomes([run_patch(job, images, config) for job in chunk])
    errors = [error for results in got for error, *_ in results]
    assert None in errors and "nlm denoiser failed certification on patch" in errors


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
    got = run_chunk(chunk, image, config, {})
    assert outcomes(got) == outcomes([run_patch(job, image, config) for job in chunk])
    assert not any(res.failed for results in got for res in results)


@pytest.mark.parametrize("kind", KINDS)
def test_cache_holds_only_the_chunk_patterns(kind, monkeypatch):
    # before each chunk the cache drops the patterns the chunk does not
    # have; the chunks of one pattern are consecutive, so each pattern's
    # coordinate work is still done once
    config = ExperimentConfig(transform=Rotation(20.0), denoiser_kind=kind)
    image = add_gaussian_noise(synthetic_texture("texture-a", 64), 0.02, 3).pixels[None]
    computed, after = [], []
    coordinate_work = denoisers.coordinate_work

    def counting(kind, coords, params):
        computed.append((coords - coords.min(axis=0)).tobytes())
        return coordinate_work(kind, coords, params)

    def checking(chunk, images, config, cache):
        results = run_chunk(chunk, images, config, cache)
        after.append((set(cache), {pattern(job) for job in chunk}))
        return results

    monkeypatch.setattr(denoisers, "coordinate_work", counting)
    monkeypatch.setattr(pipeline, "run_chunk", checking)
    jobs, _ = pipeline._run_patches(image, config)
    assert len(after) > 1 and all(cached == chunk for cached, chunk in after)
    assert sorted(computed) == sorted({pattern(job) for job in jobs})
    assert len(computed) < len(jobs)


def test_chunk_tiles():
    # up to 8 kernels of 100 pixels, and no more doubles than that for
    # larger tiles: one tile per chunk once a tile's n x n outweighs them
    assert [pipeline.chunk_tiles(100, v) for v in (1, 2, 3, 5, 9)] == [8, 4, 2, 1, 1]
    assert [pipeline.chunk_tiles(n, 1) for n in (20, 144, 200, 201, 4096)] == [8, 3, 2, 1, 1]
    assert pipeline.chunk_tiles(144, 2) == 1


@pytest.mark.parametrize("patch", [10, 12, 15])
@pytest.mark.parametrize("signals", [1, 2, 3, 5, 9])
def test_chunks_group_tiles_of_one_pixel_count(signals, patch):
    jobs = tile_image((64, 64), Rotation(20.0), patch)
    patterns = [pattern(job) for job in jobs]
    chunks = pipeline._chunks(jobs, signals, patterns)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(len(jobs)))
    by_count = {}
    for chunk in chunks:
        assert len({len(jobs[i].operator.target_coords) for i in chunk}) == 1
        by_count.setdefault(len(jobs[chunk[0]].operator.target_coords), []).append(chunk)
    # the pixel counts in the order of their first tiles, each one's chunks
    # consecutive: its tiles sorted by pattern, then by index, cut into runs
    # of `chunk_tiles`
    counts = [len(job.operator.target_coords) for job in jobs]
    assert list(by_count) == list(dict.fromkeys(counts))
    assert chunks == [chunk for runs in by_count.values() for chunk in runs]
    for count, runs in by_count.items():
        size = pipeline.chunk_tiles(count, signals)
        tiles = sorted((i for i, c in enumerate(counts) if c == count), key=lambda i: (patterns[i], i))
        assert runs == [tiles[k : k + size] for k in range(0, len(tiles), size)]
    # so the chunks of one pattern are consecutive
    order = [patterns[i] for chunk in chunks for i in chunk]
    starts = [p for k, p in enumerate(order) if k == 0 or p != order[k - 1]]
    assert len(starts) == len(set(patterns))
    if patch == 15:
        # 225 pixels: every chunk of full tiles is one tile
        assert all(len(chunk) == 1 for chunk in by_count[225])


def chunk_bytes(kernels, tiles, n, columns, cached=None):
    """A chunk's n x n stacks of ``kernels``, its tiles' dense rows of
    ``columns`` each, and one cache entry per tile of ``cached`` numbers
    (n x n by default)."""
    stacks = (pipeline.LIVE_STACKS * kernels + pipeline.CHUNK_ARRAYS) * n
    cached = n * n if cached is None else cached
    return ((stacks + tiles * columns) * n + tiles * cached) * 8


def memory(monkeypatch, nbytes):
    """Have os.sysconf report ``nbytes`` of physical memory, rounded up to 4 KiB pages."""
    sizes = {"SC_PHYS_PAGES": -(-nbytes // 4096), "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])


def no_tiling(*args, **kwargs):
    raise AssertionError("tiled an image that cannot fit in memory")


class TestRequireMemory:
    CONFIG = ExperimentConfig(transform=Rotation(20.0))

    def test_estimate(self):
        peak, chunk = pipeline.tile_peak_bytes, chunk_bytes

        def held(pixels):
            """Every tile's operator, held for the whole run."""
            return pipeline.OPERATOR_BYTES * pixels

        # patch 200 on a 256 px image: one tile of n = 40,000 per chunk,
        # whose dense rows have at most the image's 65,536 columns, not 4 n,
        # and whose chunk caches one n x n factor
        config = replace(self.CONFIG, patch_size=200)
        assert peak(config, (1, 256, 256)) == chunk(1, 1, 40_000, 65_536) + held(65_536)
        # a patch larger than the image: one tile, the whole image
        assert peak(config, (1, 30, 20)) == chunk(1, 1, 600, 600) + held(600)
        assert peak(config, (5, 30, 20)) == chunk(5, 1, 600, 600) + held(600)
        # a signal-free kind builds one kernel per tile
        gaussian = replace(config, denoiser_kind="gaussian")
        assert peak(gaussian, (5, 30, 20)) == chunk(1, 1, 600, 600) + held(600)
        # NLM caches its gather indices and pair list, n (k^2 + w^2) numbers
        nlm = replace(config, denoiser_kind="nlm")
        assert peak(nlm, (1, 30, 20)) == chunk(1, 1, 600, 600, 600 * (3**2 + 9**2)) + held(600)
        # V = 5: one tile of 5 kernels per chunk; V = 3: two tiles of 3; the
        # 64 px grid's largest tiles have 100 pixels
        assert peak(self.CONFIG, (5, 64, 64)) == chunk(5, 1, 100, 400) + held(64 * 64)
        assert peak(self.CONFIG, (3, 64, 64)) == chunk(6, 2, 100, 400) + held(64 * 64)
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
        # four tiles make one chunk, held by one process
        assert more(config, (1, 20, 20)) == 0
        # a tile larger than a chunk's stacks: one process per tile; on a
        # 40 x 20 image its dense rows have at most 800 columns
        config = replace(config, patch_size=20)
        assert more(config, (1, 40, 20)) == chunk_bytes(1, 1, 400, 800)
        assert more(config, (1, 60, 60)) == 2 * chunk_bytes(1, 1, 400, 1600)

    @pytest.mark.parametrize("patch", [10, 20, 30])
    def test_estimate_is_within_2_5_times_the_measured_peak(self, patch):
        # the cache holds only the current chunk's patterns, so the
        # estimate charges each chunk its own and stays near the peak
        config = replace(self.CONFIG, patch_size=patch)
        clean = synthetic_texture("texture-a", 120).pixels
        images = add_gaussian_noise(clean, 0.02, 0)[None]
        tracemalloc.start()
        try:
            pipeline._run_patches(images, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pipeline.tile_peak_bytes(config, images.shape) <= 2.5 * peak

    @pytest.mark.parametrize("patch", [20, 30])
    def test_estimate_bounds_the_measured_peak(self, patch):
        # tracemalloc over the whole run: operators, coordinate cache, chunks
        config = replace(self.CONFIG, patch_size=patch)
        clean = synthetic_texture("texture-a", 120).pixels
        images = add_gaussian_noise(clean, 0.02, 0)[None]
        tracemalloc.start()
        try:
            pipeline._run_patches(images, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= pipeline.tile_peak_bytes(config, images.shape)

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
            pipeline.process_image(config, image, "joint")

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

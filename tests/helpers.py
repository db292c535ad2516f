"""Helpers shared by the tile-path tests."""

import numpy as np

from mixedgraph.errors import outcome_text
from mixedgraph.pipeline import add_gaussian_noise

SIZE = 32


def noisy_stack(seed, variances):
    """One random SIZE x SIZE image with noise of each variance, stacked (V, SIZE, SIZE)."""
    clean = np.random.default_rng(seed).uniform(0.0, 1.0, (SIZE, SIZE))
    return np.stack([add_gaussian_noise(clean, v, seed ^ i) for i, v in enumerate(variances)])


def outcome(error, *arrays):
    """A (tile, image)'s error and the bytes of its joint and sequential outputs.

    ``arrays`` are its joint and sequential outputs, None for a mode that
    was not run; a failed (tile, image) has none.
    """
    as_bytes = [None if a is None or error is not None else a.tobytes() for a in arrays]
    return error, *as_bytes


def error_texts(code, detail, kind):
    """The `outcome_text` of each entry of an outcome grid, None for OK, as nested lists."""
    if code.ndim == 0:
        return outcome_text(code, detail, kind)
    return [error_texts(c, d, kind) for c, d in zip(code, detail)]


def outcomes(results, kind):
    """`outcome` of every (tile, image) of a sequence of `run_chunk` results, one list per tile.

    ``kind`` is the results' denoiser kind, which a certification error names.
    """
    per_tile = []
    for joint, sequential, code, detail in results:
        for i, tile_errors in enumerate(error_texts(code, detail, kind)):
            per_tile.append([
                outcome(error, *(None if x is None else x[i, s] for x in (joint, sequential)))
                for s, error in enumerate(tile_errors)
            ])
    return per_tile


def pattern(job):
    """A job's offset pattern: its target coordinates minus their minimum, as bytes."""
    tc = job.operator.target_coords
    return (tc - tc.min(axis=0)).tobytes()

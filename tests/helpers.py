"""Helpers shared by the tile-path tests."""

import numpy as np

from mixedgraph.pipeline import add_gaussian_noise

SIZE = 32


def noisy_stack(seed, variances):
    """One random SIZE x SIZE image with noise of each variance, stacked (V, SIZE, SIZE)."""
    clean = np.random.default_rng(seed).uniform(0.0, 1.0, (SIZE, SIZE))
    return np.stack([add_gaussian_noise(clean, v, seed ^ i) for i, v in enumerate(variances)])


def outcome(res):
    """A PatchResult's error and the bytes of its joint and sequential outputs."""
    as_bytes = [None if a is None else np.asarray(a).tobytes() for a in (res.joint, res.sequential)]
    return res.error, *as_bytes


def outcomes(per_tile):
    """`outcome` of every result of a list of per-tile result lists."""
    return [[outcome(res) for res in results] for results in per_tile]


def pattern(job):
    """A job's offset pattern: its target coordinates minus their minimum, as bytes."""
    tc = job.operator.target_coords
    return (tc - tc.min(axis=0)).tobytes()

"""Seeded, splittable random streams.

Every randomized operation takes a stream built from a 64-bit master seed
plus an integer path.  The path identifies the consumer (word index, group
index, ...), so results depend only on (seed, path) and never on the order
in which consumers run.
"""

from __future__ import annotations

import numpy as np

Rng = np.random.Generator


def stream(seed: int, *path: int) -> Rng:
    """Derive an independent generator for `path` under `seed`.

    Stream-assignment rule: the generator is seeded with
    SeedSequence(seed, spawn_key=path).  Two distinct paths give
    statistically independent streams; the same (seed, path) always gives
    the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def as_rng(rng: Rng | int) -> Rng:
    """Accept either a ready generator or a bare integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng))

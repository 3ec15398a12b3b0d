"""Deterministic random-stream derivation.

Every randomized operation takes an integer seed and derives independent
sub-streams by counter, so any trial (or chunk of trials) is reproducible in
isolation.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_MC_CHUNK = 4096


def derive_rng(*key: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by an integer key path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def seed_key(seed) -> tuple[int, ...]:
    """Normalize a seed (int, or tuple of ints for sub-streams) to a key."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _draw_blocks(rng: np.random.Generator, m: int, n: int, cols) -> list[np.ndarray]:
    """rng.integers(0, 2^n, size=(m, c)).T for each c in turn, as (c, m) uint32.

    For a fresh generator and 1 <= n <= 32, numpy's integers takes each value
    as the top n bits of the next 32-bit half of random_raw, low half first:
    Lemire's method never rejects a power-of-two range.  So one random_raw
    block, viewed as uint32 and shifted right by 32 - n in place, holds the
    blocks' (m, c) draws back to back, and each block is returned as the
    transposed view of its (m, c) slice: row j is column j of the draws,
    strided, and no draw is copied.
    """
    if not 1 <= n <= 32:
        raise ValueError(f"n must be in [1, 32], got {n}")
    raw = rng.bit_generator.random_raw(-(-m * sum(cols) // 2)).astype("<u8", copy=False)
    words = raw.view("<u4")
    words >>= 32 - n
    return [words[a:a + m * c].reshape(m, c).T
            for a, c in zip(accumulate((m * c for c in cols), initial=0), cols)]


def mc_chunks(trials: int, seed):
    """The Monte Carlo chunks of ``trials`` draws, as (rng, m) pairs.

    Chunk c holds m <= _MC_CHUNK trials drawn from the sub-stream (seed, c);
    the m's sum to ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    key = seed_key(seed)
    return (
        (derive_rng(*key, c), min(_MC_CHUNK, trials - start))
        for c, start in enumerate(range(0, trials, _MC_CHUNK))
    )

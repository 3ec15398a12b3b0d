"""Deterministic random-stream derivation.

Every randomized operation takes an integer seed and derives independent
sub-streams by counter, so any trial (or chunk of trials) is reproducible in
isolation.
"""

from __future__ import annotations

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

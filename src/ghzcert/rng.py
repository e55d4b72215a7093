"""Random streams keyed by what they are for.

Two schemes, both reproducible whatever order the work is done in:

- :func:`round_words`: indexed draws, the protocol simulator's per-round and
  per-block ones, come from one counter-based Philox4x64 stream keyed by
  (seed, purpose) and indexed by the round or block (Salmon et al., SC'11).
  Counter j yields item j's four 64-bit words, so any range of items is drawn
  by advancing the counter to its first item.
- :func:`rng_for`: one Generator per (seed, purpose), for draws made once per
  call: the hold-out and replay's selections, each drawn as one vector.
"""

from __future__ import annotations

import numpy as np

TAG_HOLDOUT = 1
TAG_ROUND = 2
TAG_BLOCK = 4
TAG_SELECT = 5
TAG_SCORE = 6
TAG_SHUFFLE = 7


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """Independent generator for one (seed, purpose) pair."""
    return np.random.default_rng((int(seed), 0, int(tag)))


def round_words(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    """uint64 (count, 4): the Philox words of items start .. start + count - 1.

    The key is two words of ``SeedSequence((seed, tag))``, so a negative seed
    raises ValueError as in :func:`rng_for`; item j's words are the block at
    counter j, the same whichever range they are drawn in.
    """
    key = np.random.SeedSequence((int(seed), int(tag))).generate_state(2, np.uint64)
    stream = np.random.Philox(key=key).advance(int(start))
    return stream.random_raw(4 * int(count)).reshape(-1, 4)

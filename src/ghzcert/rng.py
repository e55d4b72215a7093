"""Random streams keyed by what they are for.

Two schemes, both reproducible whatever order the work is done in:

- :func:`round_words`: the protocol simulator's per-round draws come from one
  counter-based Philox4x64 stream keyed by (seed, purpose) and indexed by the
  round (Salmon et al., SC'11). Counter j yields round j's four 64-bit words,
  so any range of rounds is drawn by advancing the counter to its first round.
- :func:`rng_for`: one Generator per (seed, index, purpose), for draws made
  once per call or once per block: the hold-out, the block source's flags and
  replay's selections, each drawn as one vector in order.
"""

from __future__ import annotations

import numpy as np

TAG_HOLDOUT = 1
TAG_ROUND = 2
TAG_BLOCK = 4
TAG_SELECT = 5
TAG_SCORE = 6
TAG_SHUFFLE = 7


def rng_for(seed: int, index: int, tag: int) -> np.random.Generator:
    """Independent generator for one (seed, index, purpose) triple."""
    return np.random.default_rng((int(seed), int(index), int(tag)))


def round_words(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    """uint64 (count, 4): the Philox words of rounds start .. start + count - 1.

    The key is two words of ``SeedSequence((seed, tag))``, so a negative seed
    raises ValueError as in :func:`rng_for`; round j's words are the block at
    counter j, the same whichever range they are drawn in.
    """
    key = np.random.SeedSequence((int(seed), int(tag))).generate_state(2, np.uint64)
    stream = np.random.Philox(key=key).advance(int(start))
    return stream.random_raw(4 * int(count)).reshape(-1, 4)

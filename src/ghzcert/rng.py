"""Counter-style random streams keyed by (seed, index, purpose).

Every random decision in the protocol pipeline draws from its own generator,
seeded by what the decision is for; rounds can therefore be generated in any
order or in parallel and still reproduce bit-identically. Replay keys one
generator per (seed, purpose) per call and draws one vector in round order.
"""

from __future__ import annotations

import numpy as np

TAG_HOLDOUT = 1
TAG_INPUT = 2
TAG_OUTCOME = 3
TAG_BLOCK = 4
TAG_SELECT = 5
TAG_SCORE = 6
TAG_SHUFFLE = 7


def rng_for(seed: int, index: int, tag: int) -> np.random.Generator:
    """Independent generator for one (seed, index, purpose) triple."""
    return np.random.default_rng((int(seed), int(index), int(tag)))

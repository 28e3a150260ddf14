"""Named substreams off a single 64-bit seed, an integer in [0, 2**64).

Every source of randomness in the package draws from `substream(seed, name)`
so that any command rerun with the same seed reproduces bit-identical output.
"""

import hashlib

import numpy as np

from .schema import is_int

SEED_RULE = "an integer in [0, 2**64)"


def is_seed(value) -> bool:
    """Whether ``value`` is a seed: an integer in [0, 2**64), as ``SEED_RULE`` says."""
    return is_int(value) and 0 <= value < 2**64


def substream(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator for (seed, name).

    The stream name is hashed into the seed sequence, so distinct names give
    statistically independent streams and the mapping is stable across runs
    and platforms. A value that is not a seed raises ValueError.
    """
    if not is_seed(seed):
        raise ValueError(f"seed must be {SEED_RULE}, got {seed!r}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))

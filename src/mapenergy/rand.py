"""Deterministic random streams.

Every sampling entry point takes an integer seed and builds its stream
through :func:`make_rng`, so equal seeds give bit-identical samples.  The
counter-based Philox generator keeps substreams independent.  A seed is
an integer in [0, 2^64), one word of the Philox key; anything else is a
GeometryError, not a silently truncated or wrapped key.
"""

import numpy as np

from .manifolds import GeometryError, is_integer


def _key_word(value, what):
    """`value` as an int; GeometryError unless an integer in [0, 2^64)."""
    if not (is_integer(value) and 0 <= value < 2**64):
        raise GeometryError(f"a {what} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def make_rng(seed):
    """Counter-based generator for the given integer seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(_key_word(seed, "seed"))))


def spawn(seed, index):
    """Independent substream `index` of the stream with the given seed.

    The index becomes the second word of the 128-bit Philox key, so
    substreams never overlap the base stream (index 0 is the base).
    """
    key = np.array([_key_word(seed, "seed"), _key_word(index, "substream index")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

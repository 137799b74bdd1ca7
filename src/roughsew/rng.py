"""Deterministic named random streams.

Every stochastic routine in the package draws from a Philox generator keyed by
(master seed, hashed purpose tags).  Draws are made in one vectorized call
with a fixed member-major layout, so a given seed reproduces the identical
ensemble regardless of chunking or thread schedule, and distinct purposes
(e.g. Brownian increments vs. jump sizes) never share a stream.
"""
from __future__ import annotations

import hashlib

import numpy as np


def _tag_int(tag) -> int:
    digest = hashlib.blake2s(repr(tag).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def stream(seed: int, *tags) -> np.random.Generator:
    """A Generator keyed by the master seed and a tuple of purpose tags."""
    entropy = (int(seed),) + tuple(_tag_int(t) for t in tags)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


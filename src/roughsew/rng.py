"""Deterministic named random streams.

Every stochastic routine in the package draws from a Philox generator keyed by
(master seed, hashed purpose tags), and distinct purposes (e.g. Brownian
increments vs. jump sizes) never share a stream.

A stream is one sequence of draws, so splitting a draw into consecutive
calls leaves it unchanged.  Whether a split into member blocks is also a
block of the ensemble depends on the stream's layout:

- chunkable: the member-major draws, which run member by member.  The
  Brownian increments (N, n, d) drawn in member blocks of any sizes stack to
  the one (N, n, d) draw bit for bit (`paths._brownian_blocks` relies on
  it).  The compound-Poisson jump draws (counts, then the flat times, then
  the flat sizes, each member-major) split the same way draw by draw; a
  member block of the whole simulation would still need every count before
  the first time.
- not chunkable: the step-major Levy-area stream of `ito_lift_brownian`
  (d >= 2), which draws every member's substeps for step k before step
  k + 1, so a member block would see other members' draws.
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


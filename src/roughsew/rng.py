"""Deterministic named random streams.

Every stochastic routine in the package draws from a Philox generator keyed by
(master seed, hashed purpose tags), and distinct purposes (e.g. Brownian
increments vs. jump sizes) never share a stream.

A stream is one sequence of draws, so splitting a draw into consecutive
calls leaves it unchanged.  Whether a split into member blocks is also a
block of the ensemble depends on the stream's layout:

- chunkable: the member-major draws, which run member by member.  The
  Brownian increments (N, n, d) drawn in member blocks of any sizes stack to
  the one (N, n, d) draw bit for bit (`paths._brownian_blocks` and the
  chunks of `paths._brownian_values` rely on it).  The compound-Poisson jump draws (counts, then the flat times, then
  the flat sizes, each member-major) are drawn once for the whole ensemble
  (`paths._jump_draws`), and a member block takes its members' slice of
  each, so member i's jumps are the same at every block size
  (`paths._mixed_blocks` relies on it).
- not chunkable: the step-major Levy-area stream of `ito_lift_brownian`
  (d >= 2), which draws every member's substeps for step k before step
  k + 1, so a member block would see other members' draws; and the
  Brownian-bridge stream of `paths._mixed_blocks`, keyed by the block (its
  member range), which draws one value per member and jump time of the
  block's merged grid, so its draws change with the block's members.
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


"""Time grids, partitions, p-variation, and superadditive controls.

All analysis in this package happens on finite grids: a path is its values at
grid points, a left limit at t is the value at the previous grid point, and
suprema over partitions are suprema over sub-grids.  Jump times are expected
to be grid members (the simulators guarantee this), so refining a grid never
moves a jump.

A control w on grid index pairs is its row function: w(s, t) returns the row
w(s, s+1..t), shape (t - s,), a prefix of w(s, t') for t <= t'.  The rows of
`time_control`, `pvar_control` and superadditive tables are nondecreasing.
A row may be a view of cached data; callers do not write to it.  The
control's value over [s, t] is the row's last entry (0 on the diagonal), and
the left-open w(s, t-), the control of the window that stops at the
previous grid point, is the entry before the last: what partition machinery
that needs controls "continuous from the inside" reads.  Midpoint
refinement reads rows.  `_pvar_dp`, the package's one p-variation DP, reads
a table column per end point, so every seminorm, control and Picard window
(which grows column by column) feeds it columns as it builds them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isnan, nan
from operator import add
from typing import Callable

import numpy as np

#: two grid times closer than this are considered the same instant
TIME_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """A strictly increasing grid t_0 = 0 < t_1 < ... < t_n = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.isfinite(t).all():
            raise ValueError("grid times must be finite")
        if abs(t[0]) > TIME_TOL:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def terminal(self) -> float:
        return float(self.times[-1])

    def steps(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass(frozen=True)
class Partition:
    """A partition of the window [t_s, t_e]: grid indices s = i_0 < ... < i_k = e."""

    grid: TimeGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size < 2:
            raise ValueError("partition needs at least two indices")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("partition indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] > self.grid.n_steps:
            raise ValueError("partition indices outside the grid")
        object.__setattr__(self, "indices", idx)


def make_uniform_grid(T: float, n: int) -> TimeGrid:
    """Uniform grid with n steps on [0, T]."""
    if n < 1 or T <= 0:
        raise ValueError("need n >= 1 and T > 0")
    return TimeGrid(np.linspace(0.0, float(T), n + 1))


def full_partition(grid: TimeGrid) -> Partition:
    return Partition(grid, np.arange(grid.n_steps + 1, dtype=np.int64))


def insert_times(grid: TimeGrid, extra: np.ndarray) -> TimeGrid:
    """Grid with additional interior times merged in (TIME_TOL collapse).

    Extra times within TIME_TOL of an endpoint are dropped (the endpoints
    never move).  The rest are merged with the grid's times in sorted order,
    and a time is kept when it lies more than TIME_TOL after the last time
    kept, so of two times within TIME_TOL the earlier stays, base point or
    not: inserting 0.5 - 5e-13 into [0, .25, .5, .75, 1] replaces 0.5.
    """
    extra = np.asarray(extra, dtype=float)
    extra = extra[(extra > TIME_TOL) & (extra < grid.terminal - TIME_TOL)]
    if extra.size == 0:
        return grid
    merged = np.sort(np.concatenate([grid.times, extra]))
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > TIME_TOL:
            keep.append(x)
    out = np.array(keep)
    out[0] = 0.0
    out[-1] = grid.terminal
    return TimeGrid(out)


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array, as `np.unique` returns
    them, from one sort and an adjacent-difference mask (`np.unique` imports
    `numpy.ma` on its first call, which costs more than the arrays here)."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _pvar_dp(columns):
    """Yield best[j] = max over partitions of [0, j] of the summed powers[u, v]
    for j = 1, 2, ..., one per column powers[:j, j] fed in, a list of floats
    >= 0 or NaN: best[j] is the max over i < j of best[i] + powers[i, j].

    Each column is read once, as it arrives, so a caller can build a table
    column by column and stop where it likes.  Plain floats, as a numpy call
    per column costs more than its additions up to a few hundred points.  A
    NaN cell or best makes every later value NaN, as in `np.max`.
    """
    best = [0.0]
    for column in columns:
        # `max` skips a NaN that is not first; a NaN cell makes the sum NaN
        top = nan if isnan(best[-1] + sum(column)) else max(map(add, best, column))
        best.append(top)
        yield top


def _powers(dist: np.ndarray, p: float) -> np.ndarray:
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got p={p}")
    powers = np.abs(np.asarray(dist, dtype=float))
    powers **= p
    return powers


def p_variation(dist: np.ndarray, p: float) -> float:
    """Exact p-variation of a two-parameter magnitude table over all its points.

    dist[i, j] holds |increment over [t_i, t_j]|; the result is

        sup over partitions P of the grid of (sum over [u,v] in P |dist|^p)^(1/p),

    the rooted right-end value of the DP (0 on a one-point table).  The
    p-variation over [s, t] is that of the table dist[s:t+1, s:t+1].
    """
    powers = _powers(dist, p)
    *_, best = 0.0, *_pvar_dp(powers[:u, u].tolist() for u in range(1, powers.shape[0]))
    return best ** (1.0 / p)


# ---------------------------------------------------------------------------
# superadditive controls
# ---------------------------------------------------------------------------


def time_control(grid: TimeGrid) -> Callable[[int, int], np.ndarray]:
    times = grid.times
    return lambda s, t: times[s + 1 : t + 1] - times[s]


def pvar_control(dist: np.ndarray, p: float) -> Callable[[int, int], np.ndarray]:
    """The control (p-variation of `dist` over [s, t])^p as its row function,
    one cached DP per start s.

    The p-th power of a p-variation is superadditive, which is what the
    partition machinery needs.  The DP over [s, t] is a prefix of the DP over
    any longer window, so the row of start s is rebuilt only when a longer t
    is asked for.  A t past the table's last column stops there, so the row
    is short, as the time control's rows are.
    """
    powers = _powers(dist, p)
    last = powers.shape[1] - 1
    rows: dict[int, np.ndarray] = {}

    def row(s: int, t: int) -> np.ndarray:
        t = min(t, last)
        best = rows.get(s)
        if best is None or best.size < t - s:
            columns = (powers[s:u, u].tolist() for u in range(s + 1, t + 1))
            rows[s] = best = np.fromiter(_pvar_dp(columns), float, t - s)
        return best[: t - s]

    return row


def _halving_point(w: Callable[[int, int], np.ndarray], a: int, b: int) -> int:
    """Midpoint used by `alternating_midpoints`: the first u in (a, b] with
    w(a, u) >= w(a, b-) / 2, read off the one row w(a, a+1..b).

    The threshold references the mass of the window *open at the right end*,
    w(a, b-); with that choice both children satisfy the exact halving bound
    in the left-open evaluation:

        w(a, d-)  <  w(a, b-) / 2   (minimality of the first hit)
        w(d, b-) <=  w(a, b-) / 2   (superadditivity, since w(a, d) >= half).

    A closed-endpoint threshold admits counterexamples when the control has
    an atom exactly at b, so this form is what makes the per-level halving
    certificate exact on grids.  The first hit is defined for any row; the
    bounds above need a superadditive control.
    """
    if b <= a:
        return a
    row = w(a, b)
    mass = row[-2] if row.size > 1 else 0.0
    if mass <= 0.0:
        return a
    hit = row >= 0.5 * mass
    return a + 1 + int(np.argmax(hit)) if hit.any() else b  # no hit only for NaN


def alternating_midpoints(
    ws: list[Callable[[int, int], np.ndarray]], s: int, t: int, depth: int
) -> list[np.ndarray]:
    """Nested partitions refined by cycling through the given controls.

    Level 0 is {s, t}.  Level h keeps every level-(h-1) point and inserts the
    halving point of control ws[(h-1) % N] into every interval, so after every
    N levels each control's left-open mass over any level interval has halved:

        w_j(d_i, d_{i+1}-) <= 2^(-floor(h / N)) * w_j(s, t-).

    Returns one sorted, duplicate-free index array per level (degenerate
    insertions collapse, so level h has at most 2^h + 1 points).  The window
    must lie on the controls' grid: 0 <= s <= t, and the first control's
    row w(s, t) (the row level 1 reads) must hold all t - s entries.
    """
    if not ws:
        raise ValueError("need at least one control")
    if not 0 <= s <= t or ws[0](s, t).size < t - s:
        raise ValueError(
            f"alternating_midpoints needs 0 <= s <= t on the controls' grid, got s={s}, t={t}"
        )
    levels = [np.array([s, t], dtype=np.int64)]
    for h in range(1, depth + 1):
        w = ws[(h - 1) % len(ws)]
        pts = levels[-1].tolist()
        new_pts = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            new_pts.append(_halving_point(w, a, b))
            new_pts.append(b)
        levels.append(_unique(np.asarray(new_pts, dtype=np.int64)))
    return levels

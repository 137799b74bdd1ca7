"""Time grids, partitions, p-variation, and superadditive controls.

All analysis in this package happens on finite grids: a path is its values at
grid points, a left limit at t is the value at the previous grid point, and
suprema over partitions are suprema over sub-grids.  Jump times are expected
to be grid members (the simulators guarantee this), so refining a grid never
moves a jump.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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

    def index_of(self, time: float) -> int:
        """Index of a grid point equal to `time` (within TIME_TOL)."""
        i = int(np.searchsorted(self.times, time))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.times.size and abs(self.times[j] - time) <= TIME_TOL:
                return j
        raise ValueError(f"{time!r} is not a grid point")


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

    @property
    def mesh(self) -> float:
        t = self.grid.times[self.indices]
        return float(np.max(np.diff(t)))

    def pairs(self):
        idx = self.indices
        return zip(idx[:-1], idx[1:])


def make_uniform_grid(T: float, n: int) -> TimeGrid:
    """Uniform grid with n steps on [0, T]."""
    if n < 1 or T <= 0:
        raise ValueError("need n >= 1 and T > 0")
    return TimeGrid(np.linspace(0.0, float(T), n + 1))


def full_partition(grid: TimeGrid, s: int = 0, t: int | None = None) -> Partition:
    t = grid.n_steps if t is None else t
    return Partition(grid, np.arange(s, t + 1, dtype=np.int64))


def insert_times(grid: TimeGrid, extra: np.ndarray) -> TimeGrid:
    """Grid with additional interior times merged in (TIME_TOL collapse).

    Times within TIME_TOL of an existing point collapse onto it; times within
    TIME_TOL of the endpoints are dropped (the endpoints never move).
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


def increment_table(values: np.ndarray) -> np.ndarray:
    """|x_j - x_i| for a single path.

    values: (n+1,) or (n+1, d); returns the symmetric (n+1, n+1) table of
    increment magnitudes (Euclidean norm across components).  This is the
    ensemble table builder of `norms` at N = 1, mirrored below the diagonal.
    """
    from .norms import lq_table  # norms builds on this module

    upper = lq_table(np.asarray(values, dtype=float)[None], 2.0)
    return upper + upper.T


def _pvar_dp(powers: np.ndarray) -> np.ndarray:
    """best[j] = max over partitions of [0, j] of the summed powers[u, v].

    The O(m^2) dynamic program over end points: the best value reaching j is
    the best value reaching any i < j plus powers[i, j].
    """
    m = powers.shape[0] - 1
    best = np.empty(m + 1)
    best[0] = 0.0
    for j in range(1, m + 1):
        best[j] = np.max(best[:j] + powers[:j, j])
    return best


def p_variation(dist: np.ndarray, p: float, s: int = 0, t: int | None = None) -> float:
    """Exact p-variation of a two-parameter magnitude table over [s, t].

    dist[i, j] holds |increment over [t_i, t_j]|; the result is

        sup over partitions P of [s, t] of (sum over [u,v] in P |dist|^p)^(1/p)

    computed by the dynamic program `_pvar_dp` on |dist|^p.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    t = dist.shape[0] - 1 if t is None else t
    if t <= s:
        return 0.0
    powers = np.abs(np.asarray(dist, dtype=float)[s : t + 1, s : t + 1]) ** p
    return float(_pvar_dp(powers)[-1]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# superadditive controls
# ---------------------------------------------------------------------------


@dataclass
class ControlFn:
    """A control w(s, t) on grid index pairs: superadditive, zero on the diagonal.

    `left(s, t)` evaluates the left-limit version w(s, t-): the control of the
    window that stops at the previous grid point (0 when the window is empty).
    All partition machinery that needs controls "continuous from the inside"
    uses `left`.
    """

    grid: TimeGrid
    fn: Callable[[int, int], float]
    name: str = "control"

    def __call__(self, s: int, t: int) -> float:
        if t <= s:
            return 0.0
        return float(self.fn(int(s), int(t)))

    def left(self, s: int, t: int) -> float:
        """w(s, t-) = w evaluated at the previous grid point (0 when none)."""
        if t - 1 <= s:
            return 0.0 if t <= s else self(s, s)
        return self(s, t - 1)


def time_control(grid: TimeGrid) -> ControlFn:
    times = grid.times
    return ControlFn(grid, lambda s, t: times[t] - times[s], name="time")


def control_from_table(grid: TimeGrid, table: np.ndarray, name: str = "table") -> ControlFn:
    tab = np.asarray(table, dtype=float)
    if tab.shape != (grid.n_steps + 1, grid.n_steps + 1):
        raise ValueError("table shape does not match the grid")
    return ControlFn(grid, lambda s, t: tab[s, t], name=name)


def pvar_control(grid: TimeGrid, dist: np.ndarray, p: float, name: str = "pvar") -> ControlFn:
    """w(s, t) = (p-variation of `dist` over [s, t])^p, lazily cached by row.

    The p-th power of a p-variation is superadditive, which is what the
    partition machinery needs.
    """
    powers = np.abs(np.asarray(dist, dtype=float)) ** p
    rows: dict[int, np.ndarray] = {}

    def row(s: int) -> np.ndarray:
        got = rows.get(s)
        if got is None:
            rows[s] = got = _pvar_dp(powers[s:, s:])
        return got

    return ControlFn(grid, lambda s, t: row(s)[t - s], name=name)


def power_product_control(w1: ControlFn, a: float, w2: ControlFn, b: float) -> ControlFn:
    """w1^a * w2^b, a control whenever a + b >= 1 (and each exponent >= 0)."""
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    return ControlFn(
        w1.grid,
        lambda s, t: (w1(s, t) ** a) * (w2(s, t) ** b),
        name=f"{w1.name}^{a}*{w2.name}^{b}",
    )


def _halving_point(w: ControlFn, a: int, b: int) -> int:
    """Midpoint used by `alternating_midpoints`.

    The threshold references the mass of the window *open at the right end*,
    w(a, b-); with that choice both children satisfy the exact halving bound
    in the left-open evaluation:

        w(a, d-)  <  w(a, b-) / 2   (minimality of the scan)
        w(d, b-) <=  w(a, b-) / 2   (superadditivity, since w(a, d) >= half).

    A closed-endpoint threshold admits counterexamples when the control has
    an atom exactly at b, so this form is what makes the per-level halving
    certificate exact on grids.
    """
    if b <= a:
        return a
    mass = w.left(a, b)
    if mass <= 0.0:
        return a
    target = 0.5 * mass
    for u in range(a + 1, b + 1):
        if w(a, u) >= target:
            return u
    return b  # unreachable: w(a, b-1) = mass >= target


def alternating_midpoints(
    ws: list[ControlFn], s: int, t: int, depth: int
) -> list[np.ndarray]:
    """Nested partitions refined by cycling through the given controls.

    Level 0 is {s, t}.  Level h keeps every level-(h-1) point and inserts the
    halving point of control ws[(h-1) % N] into every interval, so after every
    N levels each control's left-open mass over any level interval has halved:

        w_j(d_i, d_{i+1}-) <= 2^(-floor(h / N)) * w_j(s, t-).

    Returns one sorted, duplicate-free index array per level (degenerate
    insertions collapse, so level h has at most 2^h + 1 points).
    """
    if not ws:
        raise ValueError("need at least one control")
    if t < s:
        raise ValueError("empty window")
    levels = [np.array([s, t], dtype=np.int64)]
    pts = [s, t]
    for h in range(1, depth + 1):
        w = ws[(h - 1) % len(ws)]
        new_pts = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            new_pts.append(_halving_point(w, a, b))
            new_pts.append(b)
        pts = new_pts
        levels.append(np.unique(np.asarray(pts, dtype=np.int64)))
    return levels

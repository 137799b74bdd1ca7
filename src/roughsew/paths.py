"""Sample paths, martingales, and rough-path lifts with jumps.

Paths are ensembles: `values` has shape (N, n+1, d) on a shared grid.  Jump
times are grid members; `jump_indices` lists them and `left_values`, shape
(N, J, d), stores the state immediately before each jump (for
piecewise-constant paths this is the value at the previous grid point, bit
for bit).  A martingale always carries its bracket.

The Brownian driver is standard: unit volatility, drawn on the uniform grid
of n steps, with bracket I t.  The smooth drivers are sampled on that grid
too; the mixed driver's jump times come in by a Brownian bridge
(`_bridged`).

A lift stores its second level on each grid step, XX_{t_k, t_{k+1}}, plus the
jumps Delta XX of the second level itself.  That fixes every window: on first
use the lift derives the prefix XX_{0, t_k} from the steps by Chen's identity
and then reconstructs any window XX_{s,t} in O(1); see `conventions` for the
index layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conventions import outer_increment
from .grids import TIME_TOL, TimeGrid, _unique, insert_times, make_uniform_grid
from .rng import stream

__all__ = [
    "SamplePath",
    "MartingalePath",
    "RoughLift",
    "simulate_brownian",
    "ito_lift_brownian",
    "simulate_compound_poisson",
    "forward_lift_jump_path",
    "smooth_lift",
    "smooth_path_registry",
    "simulate_mixed",
]


@dataclass
class SamplePath:
    """An ensemble of cadlag paths sampled on a shared grid."""

    grid: TimeGrid
    values: np.ndarray  # (N, n+1, d)
    jump_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    left_values: np.ndarray | None = None  # (N, J, d), state just before each jump

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[1] != self.grid.n_steps + 1:
            raise ValueError("values must have shape (N, n+1, d)")
        self.values = v
        self.jump_indices = np.asarray(self.jump_indices, dtype=np.int64)
        if self.jump_indices.size and (
            self.jump_indices.min() < 1 or self.jump_indices.max() > self.grid.n_steps
        ):
            raise ValueError("jump indices must lie in 1..n")
        if self.left_values is None and self.jump_indices.size:
            self.left_values = v[:, self.jump_indices - 1, :].copy()
        if self.left_values is not None:
            left = np.asarray(self.left_values, dtype=float)
            want = (v.shape[0], self.jump_indices.size, v.shape[2])
            if left.shape != want:
                raise ValueError(
                    f"left_values must have shape (N, J, d) = {want}, got {left.shape}"
                )
            self.left_values = left

    @property
    def n_members(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)

    def jump_sizes(self) -> np.ndarray:
        """Delta X at each declared jump index, shape (N, J, d)."""
        if not self.jump_indices.size:
            return np.zeros((self.n_members, 0, self.dim))
        return self.values[:, self.jump_indices, :] - self.left_values


@dataclass
class MartingalePath(SamplePath):
    """A path ensemble together with its predictable bracket.

    bracket: (Nb, n+1, d, d) with Nb in {1, N}; [M]_t sampled at grid points.
    Deterministic brackets (e.g. I t for Brownian motion) use Nb = 1.
    """

    bracket: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        b = np.asarray(self.bracket, dtype=float)
        if b.ndim != 4 or b.shape[1] != self.grid.n_steps + 1:
            raise ValueError("bracket must have shape (Nb, n+1, d, d)")
        self.bracket = b

    def bracket_increments(self) -> np.ndarray:
        return np.diff(self.bracket, axis=1)


@dataclass
class RoughLift:
    """A rough-path lift: first level `path`, per-step second level, and its jumps.

    step_second[:, k] = XX_{t_k, t_{k+1}}, shape (Nx, n, d, d), Nx in {1, N},
    is the one stored second-level array.  jump_second[:, j] = Delta XX at
    path.jump_indices[j], shape (Nx, J, d, d) (the jump of the second level
    itself; zero for forward lifts of pure-jump paths, and the default).
    `second_prefix` is derived from the steps by Chen on first use and read
    from the arrays as they were then, so do not change a lift's arrays, or
    its path's, in place once the lift is built: build a new lift instead.
    """

    path: SamplePath
    step_second: np.ndarray
    jump_second: np.ndarray | None = None

    def __post_init__(self):
        ss = np.asarray(self.step_second, dtype=float)
        d, n_jumps = self.path.dim, self.path.jump_indices.size
        if ss.ndim != 4 or ss.shape[1:] != (self.path.grid.n_steps, d, d):
            raise ValueError("step_second must have shape (Nx, n, d, d)")
        self.step_second = ss
        if self.jump_second is None:
            self.jump_second = np.zeros((ss.shape[0], n_jumps, d, d))
        else:
            js = np.asarray(self.jump_second, dtype=float)
            if js.shape != (ss.shape[0], n_jumps, d, d):
                raise ValueError(
                    f"jump_second must have shape (Nx, J, d, d) = "
                    f"{(ss.shape[0], n_jumps, d, d)}, got {js.shape}"
                )
            self.jump_second = js

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def dim(self) -> int:
        return self.path.dim

    @cached_property
    def second_prefix(self) -> np.ndarray:
        """XX_{0, t_k} by Chen, shape (N, n+1, d, d); built on first use.

        One running sum over [0, step_0, cross_0, step_1, cross_1, ...] along
        the time axis, where cross_k = outer(X_{t_k} - X_0, dX_k); every
        second entry is a prefix.  The sum runs in order, so reconstructing a
        step from the prefix returns the step bit for bit whenever no
        rounding intervenes.
        """
        x = self.path.values
        cross = outer_increment(x[:, :-1, :] - x[:, :1, :], np.diff(x, axis=1))
        steps = self.step_second
        nx, n = max(steps.shape[0], cross.shape[0]), steps.shape[1]
        terms = np.zeros((nx, 2 * n + 1) + steps.shape[2:])
        terms[:, 1::2] = steps
        terms[:, 2::2] = cross
        np.cumsum(terms, axis=1, out=terms)
        return np.ascontiguousarray(terms[:, ::2])

    def second(self, s, t) -> np.ndarray:
        """XX_{s,t} via Chen from the prefix, shape (N, d, d).

        Both ends may also be index arrays or slices of one length k: the
        windows then run along a new axis, (N, k, d, d), and entry k equals
        the scalar window bit for bit.
        """
        x, pre = self.path.values, self.second_prefix
        x_s, x_t = x[:, s], x[:, t]
        x_0 = x[:, 0] if x_s.ndim == 2 else x[:, :1]
        return pre[:, t] - pre[:, s] - outer_increment(x_s - x_0, x_t - x_s)


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------


def simulate_brownian(
    T: float, n: int, seed: int, n_members: int = 1, dim: int = 1
) -> MartingalePath:
    """Standard Brownian ensemble W on the uniform grid of n steps on [0, T].

    The bracket I t is stored analytically with a broadcast member axis.
    Increments are drawn in one member-major call from the stream
    (seed, "brownian"): the one-block case of `_brownian_blocks`.
    """
    return next(_brownian_blocks(max(n_members, 1), T, n, seed, n_members, dim))


def _brownian_blocks(rows, T, n, seed, n_members=1, dim=1):
    """The ensemble of `simulate_brownian` as consecutive blocks of `rows`
    members (the last may be shorter), each a MartingalePath on the full grid.

    Every block continues the one member-major draw of the stream
    (seed, "brownian", dim, n_members), so the blocks stacked in order equal
    the whole ensemble bit for bit (see `rng`).
    """
    grid = make_uniform_grid(T, n)
    rng = stream(seed, "brownian", dim, n_members)
    sqrt_dt = np.sqrt(grid.steps())[None, :, None]
    bracket = _brownian_bracket(dim, grid.times)
    for lo in range(0, max(n_members, 1), rows):
        yield MartingalePath(
            grid=grid,
            values=_brownian_values(rng, min(rows, n_members - lo), dim, sqrt_dt),
            bracket=bracket,
        )


def _brownian_bracket(dim, times) -> np.ndarray:
    """[W]_t = I t at `times`, shape (1, n+1, d, d)."""
    return np.eye(dim)[None, None, :, :] * times[None, :, None, None]


#: draws per chunk of `_brownian_values`: a (rows, n, d) float64 buffer of
#: 256 KB, reused for every chunk of a call
_DRAW_CELLS = 2**15


def _brownian_values(rng, n_members, dim, sqrt_dt) -> np.ndarray:
    """The next `n_members` rows of the draw as values (N, n+1, d), built in
    place: consecutive member chunks of about `_DRAW_CELLS` draws, each drawn
    into one reused buffer, scaled by sqrt(dt) there and `cumsum`med straight
    into the output, so no (N, n, d) increment array is held.  The chunks
    continue the one member-major draw (see `rng`)."""
    n = sqrt_dt.shape[1]
    values = np.empty((n_members, n + 1, dim))
    values[:, 0] = 0.0
    rows = max(1, _DRAW_CELLS // (n * dim))
    buf = np.empty((min(rows, n_members), n, dim))
    for lo in range(0, n_members, rows):
        dw = rng.standard_normal(out=buf[: min(rows, n_members - lo)])
        dw *= sqrt_dt
        np.cumsum(dw, axis=1, out=values[lo : lo + dw.shape[0], 1:])
    return values


#: Brownian-bridge sub-increments per step of the simulated Levy area
_LEVY_SUBSTEPS = 8


def ito_lift_brownian(bm: MartingalePath, seed: int = 0) -> RoughLift:
    """Ito lift of a Brownian ensemble.

    The symmetric part of each step is the exact Ito identity
    (dB (x) dB - [B]_step) / 2; for dim >= 2 the antisymmetric part (the Levy
    area) is simulated from `_LEVY_SUBSTEPS` Brownian-bridge sub-increments
    per step, which carries an O(1/_LEVY_SUBSTEPS) distributional bias and
    needs one bracket shared by all members.  In one dimension the
    lift is exact: XX_step = (dB^2 - d[B]) / 2.
    """
    grid = bm.grid
    db = bm.increments()
    bracket_step = bm.bracket_increments()
    # in place, so no temporary as large as the lift is made
    sym_part = outer_increment(db, db)
    sym_part -= bracket_step
    sym_part *= 0.5
    d, m = bm.dim, _LEVY_SUBSTEPS
    n_members, n = db.shape[0], db.shape[1]
    if d == 1:
        del db
        step_second = sym_part
    else:
        if bracket_step.shape[0] != 1:
            raise ValueError("the Levy area needs one bracket shared by all members")
        rng = stream(seed, "levy-area", d, m, n_members)
        area = np.zeros((n_members, n, d, d))
        # per-step bridge: xi_i ~ N(0, [B]_step / m), then eta_i = xi_i + (dB - sum xi)/m
        chol = np.linalg.cholesky(bracket_step[0] / m)
        for k in range(n):
            xi = rng.standard_normal((n_members, m, d))
            xi = np.einsum("ij,nmj->nmi", chol[k], xi)
            eta = xi + (db[:, k, None, :] - xi.sum(axis=1, keepdims=True)) / m
            run = np.cumsum(eta, axis=1)
            raw = np.einsum(
                "nmj,nmk->njk", np.concatenate([np.zeros((n_members, 1, d)), run[:, :-1]], axis=1), eta
            )
            area[:, k] = 0.5 * (raw - np.swapaxes(raw, -1, -2))
        step_second = sym_part + area
    return RoughLift(path=bm, step_second=step_second)


# ---------------------------------------------------------------------------
# compound Poisson
# ---------------------------------------------------------------------------

@dataclass
class CompoundPoissonResult:
    """Pure-jump path X and its compensated martingale M."""

    path: SamplePath
    martingale: MartingalePath


def simulate_compound_poisson(
    T: float,
    rate: float,
    n: int,
    seed: int,
    n_members: int = 1,
    jump_params: tuple = (0.0, 1.0),
    align_jumps: bool = True,
) -> CompoundPoissonResult:
    """Compound Poisson ensemble with intensity `rate` on [0, T] and Gaussian
    jump sizes N(mu, sigma^2), jump_params = (mu, sigma).

    align_jumps=True (default): every member's jump times are merged into the
    base grid exactly, so jumps sit on grid points and left limits are exact
    previous-grid-point values.  Intended for structural tests at small N.

    align_jumps=False: paths are sampled at the base grid only (jumps interior
    to a step show up in that step's increment); the quadratic variation is
    still exact at grid points because it is accumulated from the true jump
    times.  Intended for large-N Monte Carlo.

    The compensated martingale is M_t = X_t - rate * mu * t with bracket
    [M]_t = sum of (Delta X_u)^2 over actual jump times u <= t.
    """
    counts, flat_times, flat_sizes = _jump_draws(T, rate, seed, n_members, jump_params)
    base = make_uniform_grid(T, n)
    grid = insert_times(base, flat_times) if align_jumps else base
    drift = rate * float(jump_params[0])
    return _jump_arrays(grid, counts, flat_times, flat_sizes, drift, align_jumps)


def _jump_draws(T, rate, seed, n_members, jump_params):
    """Every member's jumps as (counts (N,), flat times, flat sizes), the flat
    arrays member-major and time-sorted within a member, from one draw of the
    stream (seed, "compound-poisson", n_members) for the whole ensemble.

    With offsets [0, cumsum(counts)], members lo..hi-1 own the flat slice
    offsets[lo]:offsets[hi], so a member block takes its jumps from this one
    draw and member i's jump times and sizes keep their bits at every block
    size (see `rng`).
    """
    rng = stream(seed, "compound-poisson", n_members)
    counts = rng.poisson(rate * T, size=n_members)
    total = int(counts.sum())
    # keep jump times clear of t = 0 so a jump index is always >= 1
    flat_times = np.clip(rng.uniform(0.0, T, size=total), 1e-9 * T, T)
    mu, sigma = jump_params
    flat_sizes = mu + sigma * rng.standard_normal(total)
    order = np.lexsort((flat_times, np.repeat(np.arange(n_members), counts)))
    return counts, flat_times[order], flat_sizes[order]


def _jump_arrays(grid, counts, flat_times, flat_sizes, drift, align_jumps=True):
    """The compound-Poisson path of the draws of `_jump_draws` on `grid`, and
    its martingale compensated by `drift` * t (see `simulate_compound_poisson`).

    With align_jumps the grid holds every jump time (up to TIME_TOL) and each
    jump's grid point is a declared jump index; without, the grid is any grid
    and jumps show up in the increment of the step they fall in.
    """
    n_members, total = counts.size, flat_times.size
    member_of = np.repeat(np.arange(n_members), counts)
    times = grid.times
    # a jump at u counts at t_k once u < t_k + TIME_TOL; col is the first such k
    col = np.searchsorted(times + TIME_TOL, flat_times, side="right")
    seen = np.bincount(member_of * times.size + col, minlength=n_members * times.size)
    seen = seen.reshape(n_members, times.size)
    np.cumsum(seen, axis=1, out=seen)  # jumps so far
    # running sums of each member's sizes and squared sizes, in time order:
    # sums[:, i] = [0, s_1, s_1 + s_2, ...]
    rank = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    sums = np.zeros((2, n_members, int(counts.max(initial=0)) + 1))
    sums[:, member_of, rank + 1] = flat_sizes, flat_sizes**2
    np.cumsum(sums, axis=2, out=sums)
    values = np.take_along_axis(sums[0], seen, axis=1)
    qv = np.take_along_axis(sums[1], seen, axis=1)
    del seen  # an (N, n+1) table: free it before the martingale's arrays

    jump_indices = _unique(col) if align_jumps else np.array([], dtype=np.int64)
    path = SamplePath(grid=grid, values=values[:, :, None], jump_indices=jump_indices)

    martingale = _compensated(path, drift, qv[:, :, None, None])
    return CompoundPoissonResult(path=path, martingale=martingale)


def _compensated(path: SamplePath, drift: float, bracket: np.ndarray) -> MartingalePath:
    """M = X - drift * t with the given bracket; at a jump time tau the left
    limit is X_{tau-} - drift * tau, the compensator being continuous."""
    comp = drift * path.grid.times
    jumps = path.jump_indices
    return MartingalePath(
        grid=path.grid,
        values=path.values - comp[None, :, None],
        jump_indices=jumps,
        left_values=path.left_values - comp[jumps][None, :, None] if jumps.size else None,
        bracket=bracket,
    )


def forward_lift_jump_path(path: SamplePath) -> RoughLift:
    """Forward (Ito-type) lift of a pure-jump path:

        XX_{s,t} = sum_{s < u <= t} dX_{s, u-} (x) Delta X_u,   Delta XX = 0.

    Requires the path to be constant between its declared jump indices (exact
    equality; the compound-Poisson simulator in aligned mode guarantees it).
    Per-step second levels are then identically zero and the whole prefix is
    carried by the Chen cross terms, which keeps the pure-jump bracket
    identity exact in floating point.
    """
    undeclared = np.any(path.increments() != 0.0, axis=(0, 2))  # moves in any member
    undeclared[path.jump_indices - 1] = False
    if undeclared.any():
        raise ValueError("path moves on a step with no declared jump")
    step_second = np.zeros(
        (path.n_members, path.grid.n_steps, path.dim, path.dim)
    )
    return RoughLift(path=path, step_second=step_second)


# ---------------------------------------------------------------------------
# smooth drivers
# ---------------------------------------------------------------------------


def _sine_cosine_window(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact XX_{s,t} for X_u = (sin u, cos u), shape (len(s), 2, 2)."""
    sin_s, cos_s, sin_t, cos_t = np.sin(s), np.cos(s), np.sin(t), np.cos(t)
    i_sin = cos_s - cos_t                       # int sin u du
    i_cos = sin_t - sin_s                       # int cos u du
    i_sin2 = 0.5 * (t - s) - 0.25 * (np.sin(2 * t) - np.sin(2 * s))
    i_cos2 = 0.5 * (t - s) + 0.25 * (np.sin(2 * t) - np.sin(2 * s))
    i_sincos = 0.5 * (sin_t**2 - sin_s**2)
    out = np.empty(s.shape + (2, 2))
    out[..., 0, 0] = i_sincos - sin_s * i_cos
    out[..., 0, 1] = -i_sin2 + sin_s * i_sin
    out[..., 1, 0] = i_cos2 - cos_s * i_cos
    out[..., 1, 1] = -i_sincos + cos_s * i_sin
    return out


def smooth_path_registry() -> dict:
    """Built-in smooth drivers: id -> (dim, path function of a time array)."""
    return {
        "linear": (1, lambda t: t[:, None]),
        "polynomial": (1, lambda t: (t**2)[:, None]),
        "sine_cosine_pair": (2, lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1)),
    }


def smooth_lift(path_id: str, T: float, n: int) -> RoughLift:
    """Canonical geometric lift of a registered smooth driver on the uniform
    grid of n steps on [0, T].

    One-dimensional entries use the exact identity XX_step = (dX)^2 / 2; the
    sine/cosine pair uses hand-derived closed-form window integrals (checked
    against quadrature in the tests).
    """
    reg = smooth_path_registry()
    if path_id not in reg:
        raise ValueError(f"unknown smooth driver {path_id!r}")
    dim, fn = reg[path_id]
    grid = make_uniform_grid(T, n)
    values = fn(grid.times)[None, :, :]
    if dim == 1:
        dstep = np.diff(values, axis=1)
        step_second = 0.5 * outer_increment(dstep, dstep)
    else:
        step_second = _sine_cosine_window(grid.times[:-1], grid.times[1:])[None]
    path = SamplePath(grid=grid, values=values)
    return RoughLift(path=path, step_second=step_second)


# ---------------------------------------------------------------------------
# mixed driver: Brownian + compound Poisson (one-dimensional)
# ---------------------------------------------------------------------------


@dataclass
class MixedResult:
    path: SamplePath
    martingale: MartingalePath
    lift: RoughLift


def simulate_mixed(
    T: float,
    n: int,
    seed: int,
    n_members: int = 1,
    rate: float = 2.0,
    jump_params: tuple = (0.0, 0.5),
) -> MixedResult:
    """X = B + J with J compound Poisson, on the base grid with every
    member's jump times merged in, assembled by `_mixed`: the one-block case
    of `_mixed_blocks`.

    B on the base grid is `simulate_brownian(T, n, seed, n_members)` bit for
    bit; at the inserted jump times it is a Brownian bridge between
    the base points.  The jumps are `simulate_compound_poisson`'s.
    """
    return next(_mixed_blocks(max(n_members, 1), T, n, seed, n_members, rate, jump_params))


def _mixed_blocks(rows, T, n, seed, n_members=1, rate=2.0, jump_params=(0.0, 0.5)):
    """The ensemble of `simulate_mixed` as consecutive blocks of `rows`
    members (the last may be shorter), each a MixedResult on the base grid
    with its own members' jump times merged in.

    Member i's jump times and sizes come from the one draw `_jump_draws`, and
    its base-grid Brownian values from the one member-major draw of
    `_brownian_blocks`, so both keep their bits at every block size.  Only
    the Brownian values at the inserted jump times depend on the block: they
    are bridged (`_bridged`) from the stream (seed, "brownian-bridge",
    n_members, lo, hi) of the block's members lo..hi-1.
    """
    base = make_uniform_grid(T, n)
    counts, times, sizes = _jump_draws(T, rate, seed, n_members, jump_params)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    drift = rate * float(jump_params[0])
    blocks = _brownian_blocks(rows, T, n, seed, n_members)
    for lo, bm in zip(range(0, max(n_members, 1), rows), blocks):
        hi = lo + bm.n_members
        mine = slice(offsets[lo], offsets[hi])
        grid = insert_times(base, times[mine])
        jump = _jump_arrays(grid, counts[lo:hi], times[mine], sizes[mine], drift)
        bridge = stream(seed, "brownian-bridge", n_members, lo, hi)
        yield _mixed(_bridged(bm, grid, bridge), jump, drift)


def _bridged(bm: MartingalePath, grid: TimeGrid, rng) -> MartingalePath:
    """The one-dimensional Brownian block `bm` = W on `grid`, which holds
    bm's grid points up to the TIME_TOL collapse of `insert_times`, and more.

    A base point keeps its value, also where `insert_times` replaced it by a
    time less than TIME_TOL before it (the value lands on that time).  The
    times between two base points are filled in left to right by the
    Brownian bridge to the next base point: from (s, B_s) towards (t, B_t),
    B_u = B_s + (u - s) / (t - s) (B_t - B_s) + sqrt((u - s)(t - u) / (t - s)) Z,
    with Z from `rng`, one (members, inserted times) member-major draw.
    """
    times = grid.times
    # the grid index of each base point: the last grid time at or before it
    at = np.searchsorted(times, bm.grid.times, side="right") - 1
    values = np.empty((bm.n_members, times.size))
    values[:, at] = bm.values[..., 0]
    inserted = np.ones(times.size, dtype=bool)
    inserted[at] = False
    new = np.flatnonzero(inserted)
    z = rng.standard_normal((bm.n_members, new.size))
    run = np.searchsorted(at, new)  # inserted times between base points run - 1, run
    right, rank = at[run], new - at[run - 1]  # rank 1 for the first time of a run
    for r in range(1, int(rank.max(initial=0)) + 1):
        pick = np.flatnonzero(rank == r)
        u, t = new[pick], right[pick]
        s_time, u_time, t_time = times[u - 1], times[u], times[t]
        frac = (u_time - s_time) / (t_time - s_time)
        sd = np.sqrt((u_time - s_time) * (t_time - u_time) / (t_time - s_time))
        b_s = values[:, u - 1]
        values[:, u] = b_s + frac * (values[:, t] - b_s) + sd * z[:, pick]
    return MartingalePath(grid=grid, values=values[:, :, None], bracket=_brownian_bracket(1, times))


def _mixed(bm: MartingalePath, jump: CompoundPoissonResult, drift: float) -> MixedResult:
    """The mixed driver X = B + J of a one-dimensional Brownian path `bm` and a
    compound-Poisson `jump` on one grid, which holds J's jump times:

    - path: B + J; at a jump the left limit is B_t + J_{t-}, which is where
      a left limit differs from the previous grid point for a diffusing path;
    - lift steps: `ito_lift_brownian`'s plus the cross term dB_step (x) dJ_step
      (dB_step (x) Delta J on a step ending in a jump); Delta XX = 0;
    - martingale: X compensated by `drift` * t (`_compensated`), with bracket
      [J] + [B] from the two paths.
    """
    jp, grid = jump.path, jump.path.grid
    jumps = jp.jump_indices
    left = bm.values[:, jumps] + jp.left_values if jumps.size else None
    path = SamplePath(
        grid=grid, values=bm.values + jp.values, jump_indices=jumps, left_values=left
    )
    step_second = ito_lift_brownian(bm).step_second + outer_increment(
        bm.increments(), jp.increments()
    )
    lift = RoughLift(path=path, step_second=step_second)
    mart = _compensated(path, drift, jump.martingale.bracket + bm.bracket)
    return MixedResult(path=path, martingale=mart, lift=lift)

"""The stochastic-sewing engine.

A germ assigns to every grid window [t_s, t_t] an ensemble of values
Xi_{s,t}; its Riemann sums over a partition P, clipped at time t, are

    Xi^P_t = sum over [u,v] in P of Xi_{u ^ t, v ^ t}.

On a finite grid the sewn limit is the full-grid Riemann sum, so every
integral of the package (Ito, Young, rough) is a full-grid sum of one of the
germs built here.  A germ evaluates whole index arrays, so `riemann_path` is
one germ call per partition plus a running sum; the full-grid path
(`step_path`) is one germ call on the step views.  A germ also acts member by
member: row i of its values depends only on row i of its member-axis context
arrays, so it can be evaluated on any block of members.  `convergence_rate`
walks a sequence of nested partitions produced by alternating midpoints of the
supplied controls (time plus p-variation controls of the germ's inputs by
default), measures the uniform-in-time empirical L^2 distance to the limit at
every level, and fits the observed geometric decay.  The walk is
block-major: it builds every level's partition once, then takes the members
in blocks of about `_BLOCK_CELLS` member-steps, and for each block builds its
sewn limit and runs every level on it, one germ call per block and level.  So
it holds its inputs, one block's arrays and the (levels, N) sups, never a
whole-ensemble path.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .grids import (
    Partition,
    TimeGrid,
    alternating_midpoints,
    pvar_control,
    time_control,
)
from .norms import lq_norm, lq_table

# member-steps per block of the refinement walk: for a scalar germ the
# block's full-grid path, germ values and gap buffer are (rows, n+1) float64
# arrays of 256 KB each, so a level's work on one block stays in L2
_BLOCK_CELLS = 2**15

__all__ = [
    "Germ",
    "RateReport",
    "riemann_sum",
    "riemann_path",
    "step_path",
    "convergence_rate",
    "log2_fit",
    "increment_germ",
    "ito_germ",
    "rough_germ",
    "qv_germ",
]


@dataclass
class Germ:
    """A two-parameter ensemble process Xi_{s,t} driven by named context arrays.

    `fn(ctx, s, t)` takes scalar grid indices, equal-shape index arrays, or
    the step views `(slice(0, n), slice(1, n + 1))`; for arrays of shape (m,)
    it returns the m windows [s_j, t_j] along axis 1, (N, m, ...), and for
    the step views the n steps [t_k, t_{k+1}], (N, n, ...).  Basic slices
    read the context as views, so a germ written with `c[key][:, s]` serves
    all three without gathering a copy.  It must read only ctx entries at
    indices <= t (adaptedness): the same germ built on context arrays cut
    after index t gives the same value on every window ending at or before t.
    Context arrays are member-major: (N, n+1, ...), or (1, n+1, ...) for an
    input shared by every member.  A germ acts member by member: row i of its
    values depends only on row i of its member-axis context arrays, so the
    germ on the context rows [lo:hi] (shared inputs unchanged) gives the rows
    [lo:hi] of its values, which is how the refinement walk evaluates it;
    the walk reads N off the largest leading axis of the (., n+1, ...) arrays.
    `control_keys` names the inputs whose p-variation should control the
    default partition refinement.
    """

    fn: Callable[[dict, Any, Any], np.ndarray]
    context: dict
    control_keys: tuple = ()

    def __call__(self, s, t) -> np.ndarray:
        return self.fn(self.context, s, t)


def riemann_sum(germ: Germ, partition: Partition) -> np.ndarray:
    """Sum of the germ over the partition's intervals, shape (N, ...)."""
    return riemann_path(germ, partition)[:, -1]


def riemann_path(germ: Germ, partition: Partition) -> np.ndarray:
    """Clipped sums Xi^P_t for every grid t in [partition start, end].

    Returns (N, n_window+1, ...) with entry j the clipped sum at grid index
    start + j.  Inside an interval [u, v] the clipped sum is the running total
    of the earlier intervals plus Xi_{u, t}; one germ call covers every t.
    """
    u, t, k, ends = _windows(partition.indices)
    return _clipped_path(germ(u, t), k, ends)


def _windows(idx: np.ndarray):
    """The germ windows [u, t] of the clipped sums over the partition `idx`.

    For every grid t in (idx[0], idx[-1]]: u, the start of the interval
    [idx[k], idx[k+1]] holding t; t; that k; and `ends`, the positions of the
    interior partition points among the t.
    """
    start = idx[0]
    t = np.arange(start + 1, idx[-1] + 1)
    k = np.searchsorted(idx, t) - 1
    return idx[k], t, k, idx[1:-1] - start - 1


def _clipped_path(vals: np.ndarray, k: np.ndarray, ends: np.ndarray, out=None) -> np.ndarray:
    """Clipped sums from the germ values on `_windows`: the running total of
    the earlier intervals, summed from zero in interval order, plus vals;
    written into `out` if given."""
    acc = _running_sum(vals[:, ends])
    if out is None:
        out = np.empty((vals.shape[0], vals.shape[1] + 1) + vals.shape[2:])
    out[:, 0] = 0.0
    np.add(acc[:, k], vals, out=out[:, 1:])
    return out


def step_path(germ: Germ, grid: TimeGrid) -> np.ndarray:
    """The full-grid Riemann path, i.e. the sewn limit on a finite grid.

    One germ call on the step views gives every step [t_k, t_{k+1}]; their
    running sum from zero is the (N, n+1, ...) path.  Equal to
    `riemann_path(germ, full_partition(grid))`.
    """
    n = grid.n_steps
    return _running_sum(germ(slice(0, n), slice(1, n + 1)))


def _running_sum(steps: np.ndarray) -> np.ndarray:
    """Cumulative sums of (N, n, ...) step values along axis 1, led by zero."""
    out = np.empty((steps.shape[0], steps.shape[1] + 1) + steps.shape[2:])
    out[:, 0] = 0.0
    np.cumsum(steps, axis=1, out=out[:, 1:])
    return out


def _sup_magnitude(diff: np.ndarray) -> np.ndarray:
    """sup_t |diff_t| per member of an (N, T, ...) array, Frobenius magnitudes.

    The square root is taken after the sup: it is correctly rounded and
    monotone, so sqrt(max) is max(sqrt) bit for bit, at one root per member.
    """
    flat = diff.reshape(diff.shape[0], diff.shape[1], -1)
    return np.sqrt(np.einsum("ntk,ntk->nt", flat, flat).max(axis=1))


def default_controls(germ: Germ, grid: TimeGrid) -> list[Callable[[int, int], np.ndarray]]:
    """Time control plus a 2-variation control per declared germ input.

    Input controls are built from the ensemble L^2 increment table so the
    partitions are deterministic and shared by all members.  Controls are
    row functions (see `grids`).  Each input array gets one control, built
    once, but the list holds it once per control key: `ito_germ(b, b)`
    gives [time, w_b, w_b], so the midpoint walk cycles w_b twice.  Its
    first two entries are the list of `qv_germ(b)`, whose one control key
    is b.
    """
    controls = [time_control(grid)]
    by_array: dict[int, Callable[[int, int], np.ndarray]] = {}
    for key in germ.control_keys:
        arr = germ.context[key]
        if arr.ndim >= 2 and arr.shape[1] == grid.n_steps + 1:
            if id(arr) not in by_array:
                by_array[id(arr)] = pvar_control(lq_table(arr, 2.0), 2.0)
            controls.append(by_array[id(arr)])
    return controls


def _member_count(ctx: dict, n_steps: int) -> int:
    """N: the largest leading axis of the germ's (., n+1, ...) context arrays
    (1 if every input is shared)."""
    return max(
        (val.shape[0] for val in ctx.values()
         if isinstance(val, np.ndarray) and val.ndim >= 2 and val.shape[1] == n_steps + 1),
        default=1,
    )


def _member_rows(ctx: dict, n_members: int, lo: int, hi: int) -> dict:
    """The germ context of members lo..hi-1: arrays whose leading axis is the
    member count are cut to their rows [lo:hi]; broadcast (1, ...) arrays and
    scalars pass through unchanged."""
    return {
        key: val[lo:hi] if isinstance(val, np.ndarray) and val.ndim and val.shape[0] == n_members
        else val
        for key, val in ctx.items()
    }


@dataclass
class RateReport:
    """Observed geometric decay of refinement error: distances ~ C 2^(slope*h)."""

    levels: np.ndarray
    distances: np.ndarray
    slope: float


def convergence_rate(
    germ: Germ,
    grid: TimeGrid,
    controls: list[Callable[[int, int], np.ndarray]] | None = None,
    depth: int = 8,
) -> RateReport:
    """Distance-to-limit per refinement level and the fitted log2 slope.

    The levels are the alternating midpoints of the controls (default ones
    if None).  The distance is the L^2 norm over members of the sup over
    time of the gap to the full-grid path.  The walk is block-major: every
    level's windows are built once; then for each block of about
    `_BLOCK_CELLS` member-steps (N from `_member_count`) the germ gives the
    block's full-grid path and, once per level, its clipped path, which one
    reused buffer turns into the gap in place, and the block's per-member
    sups go into a (levels, N) array.  So the walk holds its inputs, one
    block's arrays and the sups, never a whole-ensemble path.
    Each level's (N,) sups are reduced by `lq_norm` after the last block, so
    every distance equals the whole-ensemble one bit for bit.  The slope is
    fitted by `log2_fit`.
    """
    controls = controls if controls is not None else default_controls(germ, grid)
    n = grid.n_steps
    walks = [_windows(lv) for lv in alternating_midpoints(controls, 0, n, depth)]
    n_members = _member_count(germ.context, n)
    rows = max(1, _BLOCK_CELLS // (n + 1))
    sups = np.empty((len(walks), n_members))
    for lo in range(0, n_members, rows):
        hi = min(lo + rows, n_members)
        block = replace(germ, context=_member_rows(germ.context, n_members, lo, hi))
        full = step_path(block, grid)
        gap = np.empty_like(full)
        for sup, (u, t, k, ends) in zip(sups, walks):
            _clipped_path(block(u, t), k, ends, out=gap)
            np.subtract(full, gap, out=gap)
            sup[lo:hi] = _sup_magnitude(gap)
    distances = np.array([lq_norm(sup, 2.0) for sup in sups])
    levels = np.arange(depth + 1)
    slope, _ = log2_fit(levels, distances)
    return RateReport(levels, distances, slope)


def log2_fit(x, errors) -> tuple[float, float]:
    """Least-squares line log2(error) ~ slope * x + intercept.

    Exact zeros are excluded (germs whose sums telescope); if every error is
    zero both numbers are -inf, the sentinel for "converged identically".  A
    single nonzero error gives slope 0.  Any non-finite error (a NaN level, a
    diverged member) makes both NaN, so no rate gate can pass on it.
    """
    x = np.asarray(x, dtype=float)
    e = np.asarray(errors, dtype=float)
    if not np.all(np.isfinite(e)):
        return float("nan"), float("nan")
    pos = e > 0
    if not np.any(pos):
        return float("-inf"), float("-inf")
    y = np.log2(e[pos])
    slope, intercept = np.polyfit(x[pos], y, 1) if y.size > 1 else (0.0, y[0])
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# germ builders
# ---------------------------------------------------------------------------


def _scalar(values, what: str, axis: str = "n+1") -> np.ndarray:
    """The (N, n+1) view of a scalar germ input given as (N, n+1), (N, n+1, 1)
    or (N, n+1, 1, 1); any other shape is refused, not cut to a component.
    `axis` names the second axis in the refusal, e.g. "J" for per-jump input."""
    a = np.asarray(values, dtype=float)
    if a.ndim < 2 or a.ndim > 4 or any(k != 1 for k in a.shape[2:]):
        raise ValueError(
            f"{what} must be scalar, (N, {axis}), (N, {axis}, 1) or (N, {axis}, 1, 1); "
            f"got {a.shape}"
        )
    # a 2-d input stays the same object: `default_controls` shares a control
    # per input array by identity
    return a if a.ndim == 2 else a.reshape(a.shape[:2])


def increment_germ(values: np.ndarray) -> Germ:
    """Additive germ Xi_{s,t} = dX_{s,t}; its sums are partition-independent."""
    ctx = {"x": np.asarray(values, dtype=float)}
    return Germ(lambda c, s, t: c["x"][:, t] - c["x"][:, s], ctx, ("x",))


def ito_germ(integrand: np.ndarray, integrator: np.ndarray) -> Germ:
    """Left-point germ Xi_{s,t} = Y_s dM_{s,t}, scalar integrand and integrator.

    The integrator may be a martingale or a finite-variation path such as a
    bracket (N, n+1, 1, 1), for which the sums are Stieltjes (Young) sums.
    """
    ctx = {"y": _scalar(integrand, "integrand"), "m": _scalar(integrator, "integrator")}
    return Germ(lambda c, s, t: c["y"][:, s] * (c["m"][:, t] - c["m"][:, s]), ctx, ("y", "m"))


def rough_germ(
    y: np.ndarray,
    yp: np.ndarray,
    x_values: np.ndarray,
    second_prefix: np.ndarray,
) -> Germ:
    """One-dimensional controlled-integrand germ Y_s dX_{s,t} + Y'_s XX_{s,t}.

    The second level is reconstructed from its prefix inside the germ (Chen),
    which reads the prefix at s and t only, so the germ stays adapted.  The
    context keeps X - X_0 ("x0") next to X for the Chen cross term.
    """
    ctx = {
        "y": _scalar(y, "y"),
        "yp": _scalar(yp, "yp"),
        "x": _scalar(x_values, "x_values"),
        "xx0": _scalar(second_prefix, "second_prefix"),
    }
    ctx["x0"] = ctx["x"] - ctx["x"][:, :1]

    def fn(c, s, t):
        dx = c["x"][:, t] - c["x"][:, s]
        xx = c["xx0"][:, t] - c["xx0"][:, s] - c["x0"][:, s] * dx
        return c["y"][:, s] * dx + c["yp"][:, s] * xx

    return Germ(fn, ctx, ("y", "x"))


def qv_germ(values: np.ndarray, bracket: np.ndarray | None = None) -> Germ:
    """Quadratic-variation germ (dM_{s,t})^2, optionally bracket-compensated."""
    ctx = {"m": _scalar(values, "values")}
    if bracket is not None:
        ctx["b"] = _scalar(bracket, "bracket")

    def fn(c, s, t):
        val = (c["m"][:, t] - c["m"][:, s]) ** 2
        if "b" in c:
            val = val - (c["b"][:, t] - c["b"][:, s])
        return val

    return Germ(fn, ctx, ("m",))

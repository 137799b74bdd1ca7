"""Germ-scheme solver for equations driven jointly by a martingale and a lift:

    dY = b(Y) dt + sigma(Y_-) dM + f(Y) dX,

with the second-order (Milstein/Gubinelli) correction  Df(Y) f(Y) : XX  on
every step.  Driver jumps are reinserted explicitly: a grid step that ends at
a declared jump time splits into a continuous sub-step, which moves the state
to its left limit, followed by a jump event applied at that left limit.  The
solution's jump structure

    Delta Y = sigma(Y_-) Delta M + f(Y_-) Delta X + Df f (Y_-) Delta XX

therefore holds by construction.  State is scalar; the rough driver may have
any dimension (f is then a tuple of coefficient functions, one per driver
direction).

Both solvers run on one event path, `build_event_schedule`: per-event
increments plus, for every event, the row of the state array
[Y_{t_0..t_n} | Y_{tau_1-}..Y_{tau_J-}] it lands on, so grid values and left
limits at the J jump times are written the same way.  The layout is
time-major, as the scheme is a recursion in time: increments are (E, N, ...)
with event e in the contiguous block [e], and the state is (n+1+J, N), so one
event reads and writes whole contiguous rows.  Each solver call builds its
schedule and drops it when it returns.  Two modes: `solve` runs the
one-step scheme event by event; `picard_solve` iterates the integral map
Phi(Y) = y0 + int b dt + int sigma(Y_-) dM + int f(Y) dX on windows where a
grid-proxy control is small, which mirrors the contraction argument that
produces the solution in the first place; `_plan_windows` plans them,
reducing the drivers' L^q tables along their diagonals, so one reduction
serves many short windows.  Cross-agreement of the two modes is itself one
of the package's checks.

Both modes evaluate the scheme's germ through one kernel per solver call,
`_germ_kernel`, built from the coefficient set and the schedule before the
loop: `solve` calls it once per event on (N,) rows, writing straight into
the event's state row, and Picard once per iteration that has germ rows
left, on the rows of a window's (E_w, N) arrays that the iteration can
change.  Each call evaluates every coefficient once and works in place in
reused scratch rows, so an event costs a fixed handful of numpy calls
whatever the coefficients are.

A solution is the controlled pair (Y, f(Y)), but the solvers return Y only;
a caller that needs the Gubinelli derivative Y' = f(Y) evaluates the rough
coefficients on the values (as `stability_experiment` does).
"""
from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .calculus import SmoothFn, _Affine, _Constant
from .conventions import outer_increment
from .grids import TimeGrid, _pvar_dp, _unique, p_variation
from .norms import (
    _PAIR_CELL_BUDGET,
    _column_pairs,
    _lq_cells,
    _moment_table,
    _pair_seminorm,
    lq_norm,
    rough_path_distance,
    second_level_seminorm,  # noqa: F401  (perfbench/tracer.py REQUIRED_BINDINGS)
    two_param_seminorm,  # noqa: F401  (perfbench/tracer.py REQUIRED_BINDINGS)
    vp_lq_seminorm,
)
from .paths import MartingalePath, RoughLift

__all__ = [
    "CoefficientSet",
    "RSDEProblem",
    "RSDEResult",
    "StabilityReport",
    "build_event_schedule",
    "EventSchedule",
    "solve",
    "picard_solve",
    "stability_experiment",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients (b, sigma, f); any of them may be None (absent term).

    f may be a single SmoothFn (1-d driver) or a tuple with one entry per
    driver direction.  The scheme needs f in C^3 with exact first derivatives
    for the second-order term; b and sigma only ever enter at first order.
    """

    b: SmoothFn | None = None
    sigma: SmoothFn | None = None
    f: SmoothFn | tuple[SmoothFn, ...] | None = None

    def f_components(self) -> tuple[SmoothFn, ...]:
        if self.f is None:
            return ()
        if isinstance(self.f, SmoothFn):
            return (self.f,)
        return tuple(self.f)


def _f_stack(fs, y):
    return np.stack([fn.f(y) for fn in fs], axis=-1)


# ---------------------------------------------------------------------------
# event schedule
# ---------------------------------------------------------------------------


@dataclass
class EventSchedule:
    """Per-event increments of the driver bundle, and where each event lands.

    Every grid step contributes one continuous event; a step ending at a
    declared jump time contributes a second, zero-duration jump event whose
    increments are the true jumps (Delta M, Delta X, Delta XX).  Continuous
    events on jump steps carry the left-limit increments, with the second
    level split by Chen at the jump:  XX_cont = XX_step - dX_cont (x) dX_jump
    - Delta XX.

    The arrays are time-major and C-contiguous: event e's increments are the
    contiguous blocks dm[e] (Nm,), dx[e] (Nx, d) and xx[e] (Nx, d, d), with
    Nm, Nx in {1, N}.  The solvers keep one time-major state array (n+1+J, N)
    with rows

        [Y_{t_0} .. Y_{t_n} | Y_{tau_1-} .. Y_{tau_J-}],

    grid values first, then the left limits at `jump_indices`; event e writes
    its result to row dest[e].  A continuous event lands on its step's right
    grid point, or on the left-limit row n + 1 + j when the step ends at the
    j-th jump; that step's jump event then lands on the grid point.

    The germ kernel (`_germ_kernel`) reads these arrays through views with
    the event axis first, one per direction of dx and per pair of xx: an
    index gives `solve` an event's rows, a slice gives Picard a window's.
    """

    dt: np.ndarray  # (E,)
    dm: np.ndarray  # (E, Nm)
    dx: np.ndarray  # (E, Nx, d)
    xx: np.ndarray  # (E, Nx, d, d)
    dest: np.ndarray  # (E,) state row the event lands on
    event_start: np.ndarray  # (n+1,) first event of step k; event_start[n] = E
    jump_indices: np.ndarray  # union of declared driver jumps


def _check_same_grid(a: TimeGrid, b: TimeGrid):
    if a.n_steps != b.n_steps or np.any(a.times != b.times):
        raise ValueError("driver grids are not aligned")


def _time_major(a: np.ndarray) -> np.ndarray:
    """(N, n, ...) -> (n, N, ...) view, time axis first."""
    return np.moveaxis(a, 1, 0)


def build_event_schedule(lift: RoughLift, mart: MartingalePath | None = None) -> EventSchedule:
    """The time-major event arrays of (lift, mart); see `EventSchedule`.

    Without jumps the per-step arrays are the event arrays: a lift whose
    memory is already time-major (step k's members contiguous) is used
    without a copy, a member-major one is copied once.
    """
    grid = lift.grid
    n = grid.n_steps
    path = lift.path
    dts = grid.steps()
    dxs, xxs = _time_major(path.increments()), _time_major(lift.step_second)
    if mart is not None:
        if mart.dim != 1:
            raise ValueError("the solvers handle one-dimensional martingales")
        _check_same_grid(grid, mart.grid)
        mv = mart.values[..., 0]
        dms = _time_major(np.diff(mv, axis=1))
        m_jumps = mart.jump_indices
    else:
        dms = np.zeros((n, 1))
        m_jumps = np.array([], dtype=np.int64)
    jumps = _unique(np.concatenate([path.jump_indices, m_jumps]))

    # step k owns events event_start[k] (continuous) and, when k + 1 is a
    # jump, event_start[k] + 1 (the jump)
    ks = np.arange(n + 1, dtype=np.int64)
    event_start = ks + np.searchsorted(jumps, ks, side="right")
    cont = event_start[:-1]
    jump_event = event_start[jumps - 1] + 1
    n_events = int(event_start[-1])
    dest = np.empty(n_events, dtype=np.int64)
    dest[cont] = ks[1:]
    dest[jump_event - 1] = n + 1 + np.arange(jumps.size)
    dest[jump_event] = jumps
    if not jumps.size:  # one event per step: the step arrays themselves
        dms, dxs, xxs = (np.ascontiguousarray(a) for a in (dms, dxs, xxs))
        return EventSchedule(dts, dms, dxs, xxs, dest, event_start, jumps)

    def spread(steps):
        """Per-step rows (axis 0) at their continuous events, zeros elsewhere."""
        out = np.zeros((n_events,) + steps.shape[1:])
        out[cont] = steps
        return out

    dt, dm, dx, xx = spread(dts), spread(dms), spread(dxs), spread(xxs)
    if path.jump_indices.size:
        ix = path.jump_indices
        ev = jump_event[np.searchsorted(jumps, ix)]
        x, xl = path.values, path.left_values
        dx_cont, dx_jump = xl - x[:, ix - 1], x[:, ix] - xl
        xx_cont = lift.step_second[:, ix - 1] - outer_increment(dx_cont, dx_jump) - lift.jump_second
        dx[ev - 1], dx[ev] = _time_major(dx_cont), _time_major(dx_jump)
        xx[ev - 1], xx[ev] = _time_major(xx_cont), _time_major(lift.jump_second)
    if m_jumps.size:
        ev = jump_event[np.searchsorted(jumps, m_jumps)]
        ml = mart.left_values[..., 0]
        dm[ev - 1] = (ml - mv[:, m_jumps - 1]).T
        dm[ev] = (mv[:, m_jumps] - ml).T
    return EventSchedule(dt, dm, dx, xx, dest, event_start, jumps)


# ---------------------------------------------------------------------------
# germ kernel
# ---------------------------------------------------------------------------


def _germ_kernel(coeffs: CoefficientSet, fs, sched: EventSchedule):
    """The scheme's germ for `coeffs`, whose rough components are `fs`, on
    the events of `sched`, built once per solver call.
    germ(base, y, out, scratch, ev, zero_starts) writes

        base + b(y) dt + sigma(y) dm + sum_i f_i(y) dx_i
             + sum_j sum_i (Df_i(y) f_j(y)) XX_ji

    for the events `ev` into `out`: `solve` passes one event index and its
    state row as base, Picard a window's slice, its (E_w, N) iterate and
    base 0.0.  Terms are added left to right and absent ones skipped, so a
    sigma-only step is plain Euler-Maruyama bitwise.  Each direction sum (i;
    then j outer, i inner) runs in `scratch` (`_germ_scratch`) before it is
    added.  Every coefficient is evaluated once, a registry derivative that
    is a constant enters as its scalar, the registry's linear f is written
    into its own scratch row as a * y, then += c (the two operations of
    a * y + c), and the rest runs in place.  With `zero_starts` each
    direction sum starts from 0.0, which turns a leading -0.0 into +0.0
    (see `solve`).
    """
    b = None if coeffs.b is None else coeffs.b.f
    sigma = None if coeffs.sigma is None else coeffs.sigma.f
    d = len(fs)
    f = [fn.f for fn in fs]
    df = [fn.df for fn in fs]
    slope = [fn.df.value if isinstance(fn.df, _Constant) else None for fn in fs]
    affine = [(fn.f.a, fn.f.c) if isinstance(fn.f, _Affine) else None for fn in fs]
    dt, dm = sched.dt[:, None], sched.dm
    dx = [sched.dx[..., i] for i in range(d)]
    xx = [sched.xx[..., j, i] for j in range(d) for i in range(d)]
    pairs = [(j, i) for j in range(d) for i in range(d)]  # xx's order
    # f and df values of the current call, released when it ends
    blank = [None] * d
    fv, dfv = list(blank), list(slope)
    mul, add = np.multiply, np.add

    def germ(base, y, out, scratch, ev, zero_starts):
        acc, term, rows = scratch
        if b is not None:
            mul(b(y), dt[ev], out=acc)
            base = add(base, acc, out=out)
        if sigma is not None:
            mul(sigma(y), dm[ev], out=acc)
            base = add(base, acc, out=out)
        if d:
            for i in range(d):
                if affine[i] is None:
                    fv[i] = f[i](y)
                else:
                    fv[i] = mul(affine[i][0], y, out=rows[i])
                    fv[i] += affine[i][1]
                if slope[i] is None:
                    dfv[i] = df[i](y)
            mul(fv[0], dx[0][ev], out=acc)
            if zero_starts:
                acc += 0.0
            for i in range(1, d):
                acc += mul(fv[i], dx[i][ev], out=term)
            base = add(base, acc, out=out)
            mul(dfv[0], fv[0], out=acc)
            acc *= xx[0][ev]
            if zero_starts:
                acc += 0.0
            for k in range(1, d * d):
                j, i = pairs[k]
                mul(dfv[i], fv[j], out=term)
                term *= xx[k][ev]
                acc += term
            base = add(base, acc, out=out)
            fv[:], dfv[:] = blank, slope
        if base is not out:  # no term at all
            out[...] = base

    return germ


def _germ_scratch(fs, shape):
    """The kernel's reused rows: a sum's accumulator, its next term when
    the rough driver has several directions, and one value row per linear
    registry component (None for the others)."""
    acc = np.empty(shape)
    rows = [np.empty(shape) if isinstance(fn.f, _Affine) else None for fn in fs]
    return acc, np.empty(shape) if len(fs) > 1 else None, rows


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


@dataclass
class RSDEResult:
    """Solution ensemble with solver diagnostics.

    values: (N, n+1); left_values (N, J) holds the computed left limits Y_{t-}
    at `jump_indices` (NaN where a partial-range solve never visited the
    jump).  Both are member-major views (transposes) of the solver's
    time-major state (n+1+J, N), so a member's path is strided in memory.
    The package's seminorms give the same numbers on either layout; a caller
    whose own reductions over members must sum as on C-order memory takes
    `np.ascontiguousarray(values)` first.  The Gubinelli derivative Y' = f(Y)
    is not stored: a caller that needs it evaluates the rough coefficients on
    `values`.
    """

    grid: TimeGrid
    values: np.ndarray
    jump_indices: np.ndarray
    left_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _prologue(coeffs: CoefficientSet, y0, lift: RoughLift, mart, start: int):
    """Schedule, rough components and a time-major state array (n+1+J, N)
    (see `EventSchedule`) holding y0 on grid rows 0..start and NaN in every
    left-limit row."""
    sched = build_event_schedule(lift, mart)
    fs = coeffs.f_components()
    if fs and len(fs) != lift.dim:
        raise ValueError("one rough coefficient per driver direction required")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n_members = int(
        np.broadcast_shapes(y0.shape, (sched.dm.shape[1],), (sched.dx.shape[1],))[0]
    )
    n = lift.grid.n_steps
    state = np.empty((n + 1 + sched.jump_indices.size, n_members))
    state[: start + 1] = np.broadcast_to(y0, (n_members,))
    state[n + 1 :] = np.nan
    return sched, fs, state


def _epilogue(lift, sched, state, start, stop, diagnostics) -> RSDEResult:
    """Split the state into member-major views of the values and left
    limits; flag diverged members."""
    n = lift.grid.n_steps
    values = state[: n + 1].T
    diagnostics["n_events"] = int(sched.event_start[stop] - sched.event_start[start])
    bad = ~np.isfinite(state[stop])
    if bad.any():
        warnings.warn(f"{int(bad.sum())} member(s) diverged (NaN/overflow)")
        diagnostics["diverged"] = bad
    return RSDEResult(
        grid=lift.grid,
        values=values,
        jump_indices=sched.jump_indices,
        left_values=state[n + 1 :].T,
        diagnostics=diagnostics,
    )


def solve(
    coeffs: CoefficientSet,
    y0,
    lift: RoughLift,
    mart: MartingalePath | None = None,
    start: int = 0,
    stop: int | None = None,
) -> RSDEResult:
    """Run the one-step scheme event by event over grid steps [start, stop).

    Restarting from a recorded state reproduces the full run bitwise on the
    common range (the scheme is a plain recursion in the same increments).
    Members that blow up are flagged in diagnostics rather than raising.

    Each event is one `_germ_kernel` call from the last state row into the
    event's destination row.  Its rough sums skip the 0.0 start of a plain
    sum 0.0 + t_1 + ...: dropping it changes a bit only where the sum and the
    partial state it is added to are both -0.0, and a partial state is -0.0
    only where the row it starts from is.  So the first event keeps the
    starts when the start row holds a -0.0; after that event no row does (a
    sum that starts from 0.0 is never -0.0).
    """
    n = lift.grid.n_steps
    stop = n if stop is None else stop
    if not (0 <= start < stop <= n):
        raise ValueError("need 0 <= start < stop <= n")
    sched, fs, state = _prologue(coeffs, y0, lift, mart, start)
    germ = _germ_kernel(coeffs, fs, sched)
    scratch = _germ_scratch(fs, state.shape[1:])
    e0, e1 = int(sched.event_start[start]), int(sched.event_start[stop])
    y = state[start]
    zero_starts = bool(np.any(np.signbit(y) & (y == 0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        for e, row in enumerate(sched.dest[e0:e1].tolist(), e0):
            out = state[row]
            germ(y, y, out, scratch, e, zero_starts)
            y, zero_starts = out, False
    state[stop + 1 : n + 1] = state[stop]
    return _epilogue(lift, sched, state, start, stop, {})


#: the grid-proxy control a planned Picard window stays at or below
_WINDOW_THRESHOLD = 0.25

#: the longest lag `_plan_windows` reduces along a table's diagonals: the
#: windows of a `jump_mix` block are at most 11 steps long, so all their
#: cells come from diagonals; longer lags are read by long windows only,
#: whose columns are long enough to be reduced one by one
_PLAN_LAGS = 16


def _plan_windows(lift, mart, p, q) -> list[tuple[int, int]]:
    """Greedy split of [0, n] into maximal windows [s, t] whose grid-proxy
    smallness over [s, u],

        (t_u - t_s) + ||X||_{p,q}^p + ||XX||_{p/2,q}^{p/2} + ||[M]||_{p/2,q/2}^{p/2},

    stays at or below the threshold for every u <= t.  Powered seminorms, so
    each term scales like a control in the window.  A window from s grows one
    grid point u at a time: each L^q table gains its column ||dY_{i,u}||,
    i = s..u-1, and each powered seminorm one `grids._pvar_dp` step.  The
    window ends before the first u over the threshold (NaN counts as over);
    a single step over it is its own window.

    Each table's cells of lag l = j - i <= `_PLAN_LAGS` are reduced along
    its diagonals: the cells (i, i+l) of one lag come from one slice of
    starts i per `_lq_cells` call, a chunk of `norms._PAIR_CELL_BUDGET`
    member-cells, reduced ahead from the first window that reads the lag, so
    one call serves the columns of many short windows.  The cells of a
    longer lag, read by long windows only, come from one slice of the column
    per grid point.  No diagonal or column cell is reduced twice, and each
    is `lq_norm` of its increment bit for bit, so every cell the DP reads is
    the cell of the column-by-column planner
    (`tests/oracles.plan_windows_by_columns`).
    """
    n = lift.grid.n_steps
    times, x = lift.grid.times, lift.path.values
    step = max(1, _PAIR_CELL_BUDGET // x.shape[0])
    # (increments dY_{i,j} of index slices i and j, a table's q, its p)
    tables = [
        (lambda i, j: x[:, j] - x[:, i], q, p),
        (lift.second, q, p / 2.0),
    ]
    if mart is not None:
        br = mart.bracket[..., 0, 0]
        tables.append((lambda i, j: br[:, j] - br[:, i], q / 2.0, p / 2.0))

    def diagonal_columns(increments, r, pw):
        """columns(s) yields the table's columns over [s, u], u = s+1, s+2, ...,
        as lists of powered cells."""
        # band[l, i] is the powered cell (i, i+l), reduced for the end points
        # i + l < reach[l]; the cells of one column lie on a strided line of
        # the flat band, (i, u) at l (n + 1) + i = u + l n
        band = np.full((min(n, _PLAN_LAGS) + 1, n + 1), np.nan)
        flat = band.reshape(-1)
        reach = list(range(band.shape[0]))

        def powered(i, j):
            return _lq_cells(increments(i, j), r) ** pw

        def columns(s):
            for u in range(s + 1, n + 1):
                lags = min(u - s, _PLAN_LAGS)
                if min(reach[1 : lags + 1]) <= u:
                    for lag in range(1, lags + 1):
                        if reach[lag] <= u:  # the lag's next chunk
                            a = max(reach[lag] - lag, s)
                            b = min(n + 1 - lag, a + step)
                            band[lag, a:b] = powered(slice(a, b), slice(a + lag, b + lag))
                            reach[lag] = b + lag
                column = flat[u + lags * n : u : -n].tolist()
                if u - s > lags:
                    column[:0] = powered(slice(s, u - lags), slice(u, u + 1)).tolist()
                yield column

        return columns

    readers = [diagonal_columns(*table) for table in tables]
    out: list[tuple[int, int]] = []
    s = 0
    while s < n:
        seminorms = [_pvar_dp(columns(s)) for columns in readers]
        t = n
        for u, *terms in zip(range(s + 1, n + 1), *seminorms):
            if not sum(terms, times[u] - times[s]) <= _WINDOW_THRESHOLD:
                t = max(s + 1, u - 1)
                break
        out.append((s, t))
        s = t
    return out


def picard_solve(
    coeffs: CoefficientSet,
    y0,
    lift: RoughLift,
    mart: MartingalePath | None = None,
    p: float = 2.0,
    q: float = 4.0,
    *,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> RSDEResult:
    """Fixed-point mode: iterate Phi(Y) = y_s + sum of event germs of the
    previous iterate on each window, windows planned by `_plan_windows` where
    the grid-proxy control of the drivers is small.  The scheme is
    triangular, so after k iterations the iterate's first k + 1 rows are
    final: iteration k + 1 takes the germs from row k on only and restarts
    their running sum from the kept partial sum, bit for bit the sum over
    every germ.  After E_w iterations (the window's event count) no germ row
    is left and the iterate is final: the next iteration would find an
    update of exactly 0.0, so with tol > 0 its full distance 0.0 is recorded
    without running it.  The iterate, germ, sum and scratch buffers are
    allocated once per call, for the window with the most events.

    Successive iterates are compared in the empirical V^p L^q seminorm at the
    window's grid points plus the L^q norm of the update at the window's end,
    over the members whose iterate ends the window finite; iteration stops
    below `tol` or once no member is finite (hitting `max_iter` warns and
    keeps the last iterate).  The seminorm reduces all cells of an update at
    once over the window's grid-point pairs, which are built once per window
    when its first full distance is taken (the cells change every
    iteration), each cell `lq_norm` of its increment bit for bit
    (`norms._pair_seminorm`).  The end term is taken first, from
    the update's last row: while it is at or above `tol` the distance cannot
    fall below it, so the update is not gathered, the seminorm is skipped
    and the iteration goes on.
    Diagnostics record window boundaries, iteration counts and one distance
    entry per iteration: the end term where it was at or above `tol` (a
    lower bound of the distance, which the warning at max_iter reports as
    "at least"), the full distance otherwise; a window that stops below
    `tol` ends on a full distance.  They also record the event count and
    diverged members as in `solve`.  p or q below 1 and max_iter below 1 are
    refused before planning.
    """
    if p < 1 or q < 1:
        raise ValueError(f"picard_solve needs p >= 1 and q >= 1, got p={p}, q={q}")
    if max_iter < 1:
        raise ValueError(f"picard_solve needs max_iter >= 1, got max_iter={max_iter}")
    sched, fs, state = _prologue(coeffs, y0, lift, mart, 0)
    germ = _germ_kernel(coeffs, fs, sched)
    n = lift.grid.n_steps
    windows = _plan_windows(lift, mart, p, q)
    iters_per_window: list[int] = []
    distance_history: list[list[float]] = []
    # one set of buffers for every window, which takes their first rows: the
    # iterate, time-major (E_w + 1, N) like the state and updated in place
    # once its germs are taken, the germs (E_w, N), their running sums and
    # the kernel's scratch
    bounds = sched.event_start[[s for s, _ in windows] + [n]].tolist()
    n_rows = max(b - a for a, b in zip(bounds, bounds[1:]))
    iterate = np.empty((n_rows + 1, state.shape[1]))
    germ_rows, sum_rows = np.empty_like(iterate[1:]), np.empty_like(iterate[1:])
    acc, term, rows = _germ_scratch(fs, germ_rows.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        for (s, t), e0, e1 in zip(windows, bounds, bounds[1:]):
            n_ev = e1 - e0
            dest_w = sched.dest[e0:e1]
            # positions (in the event path) of the window's grid points, the
            # last of them the window's end, row n_ev
            grid_slots = np.concatenate([[0], np.flatnonzero(dest_w <= n) + 1])
            last = grid_slots.size - 1
            pairs = None  # the grid-point pairs of a full distance, built once
            y_start = state[s]
            cur, germs, sums = iterate[: n_ev + 1], germ_rows[:n_ev], sum_rows[:n_ev]
            cur[...] = y_start
            dists: list[float] = []
            for k in range(max_iter):
                if k < n_ev:
                    # the scheme is triangular: after k iterations rows 0..k
                    # of the iterate are final, and so are germs 0..k-1 and
                    # their running sums, so only germs k.. are taken again
                    # (keeping every 0.0 start, as a sum from zeros) and
                    # their sum restarts from sums[k - 1], bit for bit a sum
                    # from germ 0
                    scratch = (acc[k:n_ev], None if term is None else term[k:n_ev],
                               [None if r is None else r[k:n_ev] for r in rows])
                    germ(0.0, cur[k:-1], germs[k:], scratch, slice(e0 + k, e1), True)
                elif 0.0 < tol:
                    # no germ row is left: the update is exactly 0.0 at every
                    # grid point of a live member (the iterate is y_s plus a
                    # running sum, which carries a non-finite entry to the
                    # window's end, so a live member's grid points are
                    # finite), a full distance of 0.0, below tol
                    dists.append(0.0)
                    break
                change = cur[grid_slots]  # the previous iterate's grid points
                if 0 < k < n_ev:
                    germs[k] += sums[k - 1]
                np.cumsum(germs[k:], axis=0, out=sums[k:])
                np.add(sums[k:], y_start, out=cur[k + 1 :])
                np.subtract(cur[grid_slots], change, out=change)
                live = np.isfinite(cur[-1])  # others stay non-finite, get flagged
                if not live.any():
                    dists.append(float("nan"))
                    break
                end = lq_norm(change[-1][live], q)
                # the distance is seminorm + end with seminorm >= 0 (or NaN),
                # so it cannot fall below tol while the end term does not
                bounded = end >= tol
                if bounded:
                    dists.append(end)
                    continue
                diff = change.T[live]  # (N_live, G)
                if pairs is None:
                    pairs = _column_pairs(last + 1)
                dist = _pair_seminorm(
                    lambda i, j: diff[:, j] - diff[:, i], diff.shape[0], last, p, q, pairs
                ) + end
                dists.append(dist)
                if dist < tol:
                    break
            else:
                warnings.warn(
                    f"Picard iteration hit max_iter={max_iter} on window [{s}, {t}] "
                    f"(last update {'at least ' if bounded else ''}{dists[-1]:.3e}); "
                    "keeping the last iterate"
                )
            iters_per_window.append(len(dists))
            distance_history.append(dists)
            state[dest_w] = cur[1:]

    diagnostics = {
        "windows": windows,
        "iterations": iters_per_window,
        "distances": distance_history,
    }
    return _epilogue(lift, sched, state, 0, n, diagnostics)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass
class RSDEProblem:
    """A solvable data bundle (initial ensemble, rough driver, martingale)."""

    y0: np.ndarray | float
    lift: RoughLift
    mart: MartingalePath | None = None


@dataclass
class StabilityReport:
    lhs: float
    rhs: float
    ratio: float
    lhs_parts: dict
    rhs_parts: dict


def _remainder_table(ya, dya, xa, yb, dyb, xb):
    """The table |E[R_{i,j} - Rt_{i,j}]| over grid points i < j (upper
    triangle; the rest is not read), with R_{i,j} = dY_{i,j} - Y'_i . dX_{i,j}
    of each solution against its own driver: values (N, m), derivatives
    (N, m, d) and driver values (Nx, m, d), Nx in {1, N}.  The mean is linear,
    so in difference form

        E[R_{i,j} - Rt_{i,j}] = (m_j - m_i) - (D_ij - D_ii) - (F_ij - F_ii)

    with m = E[Y - Yt], D_ij = E[(Y' - Yt')_i . X_j] and
    F_ij = E[Yt'_i . (X - Xt)_j]: one member contraction per table, not a
    pair cell per (i, j).  A driver shared by the members (Nx = 1) leaves the
    expectation, E[a_i . b_j] = E[a_i] . b_j, so its contraction is the
    member means, then one m x m product: O(N m + m^2) work, not O(N m^2).
    Those means add the members' rows in member order, with no copy (a
    members-last copy, for a pairwise sum, raised `stability_base`'s peak
    RSS).  A driver with N rows keeps the member `einsum`.  Neither uses BLAS
    (a threaded product leaves a worker spinning after it returns), and both
    run on C-order copies, so the sums run in one order whatever the inputs'
    layout; at most two m x m arrays are live.  A NaN member gives NaN
    entries."""
    ya, dya, xa, yb, dyb, xb = map(np.ascontiguousarray, (ya, dya, xa, yb, dyb, xb))

    def contraction(a, b):
        """E[a_i . b_j] - E[a_i . b_i], b shared by the members or one per member."""
        if b.shape[0] == 1:
            tab = np.einsum("id,jd->ij", np.mean(a, axis=0), b[0])
        else:
            tab = np.einsum("nid,njd->ij", a, b)
            tab /= a.shape[0]
        tab -= tab.diagonal().copy()[:, None]
        return tab

    # a time-major copy: numpy sums a contiguous member axis pairwise
    means = np.mean(np.ascontiguousarray((ya - yb).T), axis=1)
    table = means[None, :] - means[:, None]
    table -= contraction(dya - dyb, xa)
    table -= contraction(dyb, xa - xb)
    return np.abs(table, out=table)


def stability_experiment(
    coeffs: CoefficientSet,
    base: RSDEProblem,
    perts: Sequence[tuple[RSDEProblem, np.ndarray | None]],
    p: float = 2.0,
    q: float = 4.0,
) -> tuple[RSDEResult, list[StabilityReport]]:
    """Solve the base data bundle once and each perturbed one, and compare
    solution distance to data distance, one report per pair in `perts`:

        LHS = ||Y - Yt||_{p,q} + ||Y' - Yt'||_{p,q} + ||E.(R - Rt)||_{p/2}
        RHS = ||y0 - y0t||_{L^q} + ||[M - Mt]||_{p/2,q/2}^{1/2} + dist_p(X, Xt)

    Each pair is (perturbed problem, bracket path of the martingale
    difference, shape (Nb, n+1)); the bracket is None when the martingale is
    unperturbed.  The first levels are the p-variation of
    `norms._moment_table` at q = 4 with one component and N >= 2 (within
    ~1e-14 of the pair-cell seminorm), else pair-cell seminorms, as the lift
    distance is; a perturbation that keeps a finite base lift object (a y0
    or martingale perturbation) is at lift distance 0.0 with no table.  The
    remainder term is the (p/2)-variation of the table of
    |E[R_{i,j} - Rt_{i,j}]|, R_{i,j} = dY_{i,j} - Y'_i . dX_{i,j} against each
    solution's own driver, which `_remainder_table` builds from member means
    in difference form, a shared driver entering after the means.  Identical
    data reports ratio 0 by convention; a NaN member makes the remainder and
    the ratio NaN.  Returns the base problem's `solve` result next to the
    reports.  p, q >= 2 is checked before any solve."""
    if not (p >= 2 and q >= 2):
        raise ValueError(f"stability_experiment needs p/2 and q/2 >= 1, got p={p}, q={q}")
    fs = coeffs.f_components()

    def solution(sol: RSDEResult, prob: RSDEProblem):
        # one C-order copy, which the seminorms and remainder table below
        # read; Y' = f(Y), zero without a rough coefficient
        y = np.ascontiguousarray(sol.values)
        return y, _f_stack(fs, y) if fs else np.zeros(y.shape + (prob.lift.dim,))

    def first_level(diff):
        # q = 4 on one component: the p-variation of the member-moment table
        if q == 4.0 and diff.shape[0] >= 2 and diff[0, 0].size == 1:
            return p_variation(_moment_table(diff.reshape(diff.shape[:2]))[0], p)
        return vp_lq_seminorm(diff, p, q)

    base_sol = solve(coeffs, base.y0, base.lift, base.mart)
    ya, dya = solution(base_sol, base)
    y0a = np.atleast_1d(np.asarray(base.y0, dtype=float))
    reports = []
    for pert, mdiff_bracket in perts:
        # the perturbed result goes as soon as its values are copied
        yb, dyb = solution(solve(coeffs, pert.y0, pert.lift, pert.mart), pert)
        l_sol = first_level(ya - yb)
        l_der = first_level(dya - dyb)
        table = _remainder_table(ya, dya, base.lift.path.values, yb, dyb, pert.lift.path.values)
        l_rem = p_variation(table, p / 2.0)
        lhs = l_sol + l_der + l_rem

        y0b = np.atleast_1d(np.asarray(pert.y0, dtype=float))
        r_init = lq_norm(y0a - y0b, q)
        r_mart = 0.0
        if mdiff_bracket is not None:
            r_mart = vp_lq_seminorm(mdiff_bracket, p / 2.0, q / 2.0) ** 0.5
        r_lift = rough_path_distance(base.lift, pert.lift, p, q)
        rhs = r_init + r_mart + r_lift

        ratio = 0.0 if lhs == 0.0 else float("inf") if rhs == 0.0 else lhs / rhs
        lhs_parts = {"solution": l_sol, "derivative": l_der, "remainder": l_rem}
        rhs_parts = {"initial": r_init, "martingale": r_mart, "lift": r_lift}
        reports.append(StabilityReport(lhs, rhs, ratio, lhs_parts, rhs_parts))
    return base_sol, reports

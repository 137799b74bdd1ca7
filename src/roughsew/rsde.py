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

Two modes: `solve` runs the one-step scheme event by event; `picard_solve`
iterates the integral map Phi(Y) = y0 + int b dt + int sigma(Y_-) dM
+ int f(Y) dX on windows where a grid-proxy control is small, which mirrors
the contraction argument that produces the solution in the first place.
Cross-agreement of the two modes is itself one of the package's checks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .calculus import SmoothFn
from .grids import TimeGrid
from .norms import (
    _magnitude_table,
    lq_norm,
    rough_path_distance,
    second_level_seminorm,
    two_param_seminorm,
    vp_lq_seminorm,
)
from .paths import MartingalePath, RoughLift, SamplePath

__all__ = [
    "CoefficientSet",
    "RSDEProblem",
    "RSDEResult",
    "StabilityReport",
    "step",
    "build_event_schedule",
    "EventSchedule",
    "window_control",
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

    def __post_init__(self):
        for fn in self.f_components():
            if not fn.bounded:
                warnings.warn(
                    f"rough coefficient {fn.name!r} is unbounded; fine for "
                    "closed-form checks, outside the guaranteed well-posed regime"
                )

    def f_components(self) -> tuple[SmoothFn, ...]:
        if self.f is None:
            return ()
        if isinstance(self.f, SmoothFn):
            return (self.f,)
        return tuple(self.f)


def _f_stack(fs, y):
    return np.stack([fn.f(y) for fn in fs], axis=-1)


def _df_stack(fs, y):
    return np.stack([fn.df(y) for fn in fs], axis=-1)


def step(y, coeffs: CoefficientSet, dt, dm=0.0, dx=None, xx=None):
    """One germ step:

        y + b(y) dt + sigma(y) dm + f(y) . dx + (Df f)(y) : XX

    accumulated left to right, so absent terms are skipped entirely and the
    sigma-only case reproduces a plain Euler-Maruyama update bitwise.
    """
    y = np.asarray(y, dtype=float)
    out = y
    if coeffs.b is not None:
        out = out + coeffs.b.f(y) * dt
    if coeffs.sigma is not None:
        out = out + coeffs.sigma.f(y) * dm
    fs = coeffs.f_components()
    if fs:
        dx = np.asarray(dx, dtype=float)
        fv = _f_stack(fs, y)
        out = out + np.einsum("...i,...i->...", fv, dx)
        if xx is not None:
            dfv = _df_stack(fs, y)
            # second index of XX is the integration direction
            out = out + np.einsum("...i,...j,...ji->...", dfv, fv, np.asarray(xx, dtype=float))
    return out


def _germ_increments(y, coeffs: CoefficientSet, dt, dm, dx, xx):
    """The step's increment (no +y), vectorized over an event axis."""
    out = np.zeros(np.broadcast_shapes(np.shape(y), np.shape(dm)))
    if coeffs.b is not None:
        out = out + coeffs.b.f(y) * dt
    if coeffs.sigma is not None:
        out = out + coeffs.sigma.f(y) * dm
    fs = coeffs.f_components()
    if fs:
        fv = _f_stack(fs, y)
        out = out + np.einsum("...i,...i->...", fv, dx)
        dfv = _df_stack(fs, y)
        out = out + np.einsum("...i,...j,...ji->...", dfv, fv, xx)
    return out


# ---------------------------------------------------------------------------
# event schedule
# ---------------------------------------------------------------------------


@dataclass
class EventSchedule:
    """Per-event increments of the driver bundle.

    Every grid step contributes one continuous event; a step ending at a
    declared jump time contributes a second, zero-duration jump event whose
    increments are the true jumps (Delta M, Delta X, Delta XX).  Continuous
    events on jump steps carry the left-limit increments, with the second
    level split by Chen at the jump:  XX_cont = XX_step - dX_cont (x) dX_jump
    - Delta XX.
    """

    grid: TimeGrid
    dt: np.ndarray  # (E,)
    dm: np.ndarray  # (Nm, E)
    dx: np.ndarray  # (Nx, E, d)
    xx: np.ndarray  # (Nx, E, d, d)
    lands_on_grid: np.ndarray  # (E,) bool: event ends at grid point `grid_index`
    grid_index: np.ndarray  # (E,) right grid index of the owning step
    event_start: np.ndarray  # (n+1,) first event of step k; event_start[n] = E
    jump_indices: np.ndarray  # union of declared driver jumps

    @property
    def n_events(self) -> int:
        return self.dt.size


def _check_same_grid(a: TimeGrid, b: TimeGrid):
    if a.n_steps != b.n_steps or np.any(a.times != b.times):
        raise ValueError("driver grids are not aligned")


def build_event_schedule(lift: RoughLift, mart: MartingalePath | None = None) -> EventSchedule:
    grid = lift.grid
    n = grid.n_steps
    d = lift.dim
    x = lift.path.values
    dxs = lift.path.increments()
    xxs = lift.step_seconds()
    dts = grid.steps()
    if mart is not None:
        _check_same_grid(grid, mart.grid)
        mv = mart.values[..., 0]
        dms = np.diff(mv, axis=1)
        m_jumps = mart.jump_indices
    else:
        mv = None
        dms = np.zeros((1, n))
        m_jumps = np.array([], dtype=np.int64)

    x_jumps = lift.path.jump_indices
    all_jumps = np.union1d(x_jumps, m_jumps).astype(np.int64)
    if not all_jumps.size:
        return EventSchedule(
            grid=grid,
            dt=dts,
            dm=dms,
            dx=dxs,
            xx=xxs,
            lands_on_grid=np.ones(n, dtype=bool),
            grid_index=np.arange(1, n + 1, dtype=np.int64),
            event_start=np.arange(n + 1, dtype=np.int64),
            jump_indices=all_jumps,
        )

    nx, nm = x.shape[0], dms.shape[0]
    jset = {int(j) for j in all_jumps}
    dt_l, dm_l, dx_l, xx_l, lands_l, gidx_l = [], [], [], [], [], []
    event_start = np.zeros(n + 1, dtype=np.int64)
    for k in range(n):
        event_start[k] = len(dt_l)
        j = k + 1
        if j not in jset:
            dt_l.append(dts[k])
            dm_l.append(dms[:, k])
            dx_l.append(dxs[:, k])
            xx_l.append(xxs[:, k])
            lands_l.append(True)
            gidx_l.append(j)
            continue
        # continuous sub-step to the left limit
        px = np.searchsorted(x_jumps, j)
        if px < x_jumps.size and x_jumps[px] == j:
            xl = lift.path.left_values[:, px, :]
            dx_cont = xl - x[:, k, :]
            dx_jump = x[:, j, :] - xl
            dxx_jump = lift.jump_second[:, px]
            xx_cont = (
                xxs[:, k]
                - np.einsum("nj,nk->njk", dx_cont, dx_jump)
                - dxx_jump
            )
        else:
            dx_cont = dxs[:, k]
            dx_jump = np.zeros((nx, d))
            dxx_jump = np.zeros((nx, d, d))
            xx_cont = xxs[:, k]
        pm = np.searchsorted(m_jumps, j)
        if mv is not None and pm < m_jumps.size and m_jumps[pm] == j:
            ml = mart.left_values[:, pm, 0]
            dm_cont = ml - mv[:, k]
            dm_jump = mv[:, j] - ml
        else:
            dm_cont = dms[:, k]
            dm_jump = np.zeros(nm)
        dt_l.append(dts[k])
        dm_l.append(dm_cont)
        dx_l.append(dx_cont)
        xx_l.append(xx_cont)
        lands_l.append(False)
        gidx_l.append(j)
        # the jump event, applied at the left limit
        dt_l.append(0.0)
        dm_l.append(dm_jump)
        dx_l.append(dx_jump)
        xx_l.append(dxx_jump)
        lands_l.append(True)
        gidx_l.append(j)
    event_start[n] = len(dt_l)
    return EventSchedule(
        grid=grid,
        dt=np.asarray(dt_l, dtype=float),
        dm=np.stack(dm_l, axis=1),
        dx=np.stack(dx_l, axis=1),
        xx=np.stack(xx_l, axis=1),
        lands_on_grid=np.asarray(lands_l, dtype=bool),
        grid_index=np.asarray(gidx_l, dtype=np.int64),
        event_start=event_start,
        jump_indices=all_jumps,
    )


# ---------------------------------------------------------------------------
# direct solver
# ---------------------------------------------------------------------------


@dataclass
class RSDEResult:
    """Solution ensemble with its Gubinelli derivative and solver diagnostics.

    values: (N, n+1); derivative Y' = f(Y): (N, n+1, d); left_values holds the
    computed left limits Y_{t-} at `jump_indices` (NaN where a partial-range
    solve never visited the jump).
    """

    grid: TimeGrid
    values: np.ndarray
    derivative: np.ndarray
    jump_indices: np.ndarray
    left_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]

    def solution_path(self) -> SamplePath:
        left = self.left_values[..., None] if self.left_values.size else None
        return SamplePath(
            grid=self.grid,
            values=self.values[..., None],
            jump_indices=self.jump_indices,
            left_values=left,
        )


def _derivative_of(coeffs: CoefficientSet, values: np.ndarray, d: int) -> np.ndarray:
    fs = coeffs.f_components()
    if not fs:
        return np.zeros(values.shape + (d,))
    return _f_stack(fs, values)


def solve(
    coeffs: CoefficientSet,
    y0,
    lift: RoughLift,
    mart: MartingalePath | None = None,
    start: int = 0,
    stop: int | None = None,
    schedule: EventSchedule | None = None,
) -> RSDEResult:
    """Run the one-step scheme event by event over grid steps [start, stop).

    Restarting from a recorded state reproduces the full run bitwise on the
    common range (the scheme is a plain recursion in the same increments).
    Members that blow up are flagged in diagnostics rather than raising.
    """
    sched = schedule if schedule is not None else build_event_schedule(lift, mart)
    grid = lift.grid
    n = grid.n_steps
    stop = n if stop is None else stop
    if not (0 <= start < stop <= n):
        raise ValueError("need 0 <= start < stop <= n")
    fs = coeffs.f_components()
    if fs and len(fs) != lift.dim:
        raise ValueError("one rough coefficient per driver direction required")

    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n_members = int(
        np.broadcast_shapes(
            y0.shape, (sched.dm.shape[0],), (sched.dx.shape[0],)
        )[0]
    )
    values = np.empty((n_members, n + 1))
    values[:, : start + 1] = np.broadcast_to(y0, (n_members,))[:, None]
    jumps = sched.jump_indices
    left_values = np.full((n_members, jumps.size), np.nan)

    y = values[:, start]
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(sched.event_start[start], sched.event_start[stop]):
            y = step(y, coeffs, sched.dt[e], sched.dm[:, e], sched.dx[:, e], sched.xx[:, e])
            gi = sched.grid_index[e]
            if sched.lands_on_grid[e]:
                values[:, gi] = y
            else:
                left_values[:, np.searchsorted(jumps, gi)] = y
    if stop < n:
        values[:, stop + 1 :] = values[:, stop : stop + 1]

    diagnostics = {"n_steps": stop - start, "n_events": int(sched.event_start[stop] - sched.event_start[start])}
    bad = ~np.isfinite(values[:, stop])
    if bad.any():
        warnings.warn(f"{int(bad.sum())} member(s) diverged (NaN/overflow)")
        diagnostics["diverged"] = bad
    return RSDEResult(
        grid=grid,
        values=values,
        derivative=_derivative_of(coeffs, values, lift.dim),
        jump_indices=jumps,
        left_values=left_values,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Picard mode
# ---------------------------------------------------------------------------


def window_control(
    lift: RoughLift,
    mart: MartingalePath | None,
    p: float,
    q: float,
    s: int,
    t: int,
) -> float:
    """Grid-proxy smallness of [s, t]:

        (t - s) + ||[M]||_{p/2,q/2}^{p/2} + ||X||_{p,q}^p + ||XX||_{p/2,q}^{p/2}.

    Powered seminorms, so each term scales like a control in the window.
    """
    grid = lift.grid
    out = float(grid.times[t] - grid.times[s])
    out += vp_lq_seminorm(lift.path.values, p, q, s=s, t=t) ** p
    out += second_level_seminorm(lift, p, q, s=s, t=t) ** (p / 2.0)
    if mart is not None and mart.bracket is not None:
        out += vp_lq_seminorm(mart.bracket[..., 0, 0], p / 2.0, q / 2.0, s=s, t=t) ** (p / 2.0)
    return out


def _plan_windows(lift, mart, p, q, threshold) -> list[tuple[int, int]]:
    """Greedy split of [0, n] into maximal windows with control <= threshold.

    Uses doubling plus bisection so each window costs O(log) control
    evaluations.  A single step over threshold still becomes its own window.
    """
    n = lift.grid.n_steps
    out: list[tuple[int, int]] = []
    s = 0
    while s < n:
        t = s + 1
        if t == n or window_control(lift, mart, p, q, s, t) > threshold:
            out.append((s, t))
            s = t
            continue
        good = t
        while good < n:
            cand = min(n, s + 2 * (good - s))
            if window_control(lift, mart, p, q, s, cand) <= threshold:
                good = cand
                if cand == n:
                    break
            else:
                # bisect between good (fine) and cand (over)
                lo, hi = good, cand
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if window_control(lift, mart, p, q, s, mid) <= threshold:
                        lo = mid
                    else:
                        hi = mid
                good = lo
                break
        out.append((s, good))
        s = good
    return out


def picard_solve(
    coeffs: CoefficientSet,
    y0,
    lift: RoughLift,
    mart: MartingalePath | None = None,
    p: float = 2.0,
    q: float = 4.0,
    window_threshold: float = 0.25,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> RSDEResult:
    """Fixed-point mode: iterate Phi(Y) = y_s + sum of event germs of the
    previous iterate on each window, windows sized by `window_control`.

    Successive iterates are compared in the empirical V^p L^q seminorm at the
    window's grid points; iteration stops below `tol` (hitting `max_iter`
    warns and keeps the last iterate).  Diagnostics record window boundaries,
    iteration counts, successive distances, and contraction ratios.
    """
    sched = build_event_schedule(lift, mart)
    grid = lift.grid
    n = grid.n_steps
    fs = coeffs.f_components()
    if fs and len(fs) != lift.dim:
        raise ValueError("one rough coefficient per driver direction required")

    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n_members = int(
        np.broadcast_shapes(y0.shape, (sched.dm.shape[0],), (sched.dx.shape[0],))[0]
    )
    values = np.empty((n_members, n + 1))
    values[:, 0] = y0
    jumps = sched.jump_indices
    left_values = np.full((n_members, jumps.size), np.nan)

    windows = _plan_windows(lift, mart, p, q, window_threshold)
    iters_per_window: list[int] = []
    distance_history: list[list[float]] = []

    y_start = values[:, 0]
    for (s, t) in windows:
        e0, e1 = int(sched.event_start[s]), int(sched.event_start[t])
        dt_w = sched.dt[e0:e1]
        dm_w = sched.dm[:, e0:e1]
        dx_w = sched.dx[:, e0:e1]
        xx_w = sched.xx[:, e0:e1]
        lands_w = sched.lands_on_grid[e0:e1]
        gidx_w = sched.grid_index[e0:e1]
        n_ev = e1 - e0
        # positions (in the event path) of the window's grid points
        grid_slots = np.concatenate([[0], np.flatnonzero(lands_w) + 1])

        cur = np.broadcast_to(y_start[:, None], (n_members, n_ev + 1)).copy()
        dists: list[float] = []
        converged = False
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                germs = _germ_increments(cur[:, :-1], coeffs, dt_w, dm_w, dx_w, xx_w)
                new = np.empty_like(cur)
                new[:, 0] = y_start
                np.cumsum(germs, axis=1, out=new[:, 1:])
                new[:, 1:] += y_start[:, None]
                diff = new[:, grid_slots] - cur[:, grid_slots]
                dist = vp_lq_seminorm(diff, p, q) + lq_norm(diff[:, -1], q)
                dists.append(float(dist))
                cur = new
                if dist < tol:
                    converged = True
                    break
        if not converged:
            warnings.warn(
                f"Picard iteration hit max_iter={max_iter} on window [{s}, {t}] "
                f"(last update {dists[-1]:.3e}); keeping the last iterate"
            )
        iters_per_window.append(len(dists))
        distance_history.append(dists)

        values[:, s : t + 1] = cur[:, grid_slots]
        off_grid = np.flatnonzero(~lands_w) + 1
        for pos in off_grid:
            left_values[:, np.searchsorted(jumps, gidx_w[pos - 1])] = cur[:, pos]
        y_start = cur[:, -1]

    ratios = [
        [b / a for a, b in zip(d, d[1:]) if a > 0] for d in distance_history
    ]
    return RSDEResult(
        grid=grid,
        values=values,
        derivative=_derivative_of(coeffs, values, lift.dim),
        jump_indices=jumps,
        left_values=left_values,
        diagnostics={
            "windows": windows,
            "iterations": iters_per_window,
            "distances": distance_history,
            "contraction_ratios": ratios,
        },
    )


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


def _remainder_mean_table(res: RSDEResult, lift: RoughLift, res2: RSDEResult, lift2: RoughLift):
    """Table of |E[R_{u,v} - Rtilde_{u,v}]| for the two solutions' remainders,
    each taken against its own driver."""

    def remainder_row(r: RSDEResult, x: np.ndarray, u: int) -> np.ndarray:
        dy = r.values[:, u + 1 :] - r.values[:, u : u + 1]
        dx = x[:, u + 1 :, :] - x[:, u : u + 1, :]
        return dy - np.einsum("nd,ntd->nt", r.derivative[:, u], dx)

    def mean_row(u: int) -> np.ndarray:
        diff = remainder_row(res, lift.path.values, u) - remainder_row(res2, lift2.path.values, u)
        return np.mean(diff, axis=0)[None]

    # one "member" (the ensemble mean) and q = 1: the builder returns |mean|
    return _magnitude_table(mean_row, res.values.shape[1], 1.0)


def stability_experiment(
    coeffs: CoefficientSet,
    base: RSDEProblem,
    pert: RSDEProblem,
    p: float = 2.0,
    q: float = 4.0,
    mdiff_bracket: np.ndarray | None = None,
) -> StabilityReport:
    """Solve both data bundles and compare solution distance to data distance.

        LHS = ||Y - Yt||_{p,q} + ||Y' - Yt'||_{p,q} + ||E.(R - Rt)||_{p/2}
        RHS = ||y0 - y0t||_{L^q} + ||[M - Mt]||_{p/2,q/2}^{1/2} + dist_p(X, Xt)

    `mdiff_bracket` is the bracket path of the martingale difference, shape
    (Nb, n+1); omit it when the martingale is unperturbed.  Identical data
    reports ratio 0 by convention.
    """
    ra = solve(coeffs, base.y0, base.lift, base.mart)
    rb = solve(coeffs, pert.y0, pert.lift, pert.mart)

    dv = ra.values - rb.values
    l_sol = vp_lq_seminorm(dv, p, q)
    l_der = vp_lq_seminorm(ra.derivative - rb.derivative, p, q)
    l_rem = two_param_seminorm(
        _remainder_mean_table(ra, base.lift, rb, pert.lift), p / 2.0
    )
    lhs = l_sol + l_der + l_rem

    y0a = np.atleast_1d(np.asarray(base.y0, dtype=float))
    y0b = np.atleast_1d(np.asarray(pert.y0, dtype=float))
    r_init = lq_norm(y0a - y0b, q)
    r_mart = (
        vp_lq_seminorm(mdiff_bracket, p / 2.0, q / 2.0) ** 0.5
        if mdiff_bracket is not None
        else 0.0
    )
    r_lift = rough_path_distance(base.lift, pert.lift, p, q)
    rhs = r_init + r_mart + r_lift

    if lhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = float("inf")
    else:
        ratio = lhs / rhs
    return StabilityReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        lhs_parts={"solution": l_sol, "derivative": l_der, "remainder": l_rem},
        rhs_parts={"initial": r_init, "martingale": r_mart, "lift": r_lift},
    )

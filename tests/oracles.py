"""Independent reference computations used by the test suite.

Everything in this module is deliberately written from first principles with
plain Python loops / numpy and without importing the package under test, so
the tests compare two genuinely different routes to the same number.  An
oracle that keeps a replaced route through the package's own layers takes the
module it runs on as an argument instead.
"""
from __future__ import annotations

import itertools
import warnings

import numpy as np


def brute_force_p_variation(dist, p):
    """p-variation of a two-parameter magnitude table by exhaustive enumeration.

    Parameters
    ----------
    dist : (n, n) array
        dist[i, j] = |increment over [t_i, t_j]| for i < j.
    p : float
        Variation exponent, p >= 1.

    Returns
    -------
    float
        sup over all partitions of (sum |increment|^p)^(1/p).

    Enumerates every subset of interior points; only usable for small n
    (the tests keep n <= 10).  Sums are accumulated left to right, and the
    per-window powers are taken with the same vectorized numpy operation the
    dynamic program applies to its table (numpy's array power and Python's
    scalar pow can disagree by one ulp), so agreement is checked bit for bit
    on the one thing the oracle is independent about: the optimisation over
    partitions.
    """
    n = dist.shape[0]
    if n < 2:
        return 0.0
    powers = np.abs(np.asarray(dist, dtype=float)) ** p
    interior = list(range(1, n - 1))
    best = 0.0
    for r in range(len(interior) + 1):
        for combo in itertools.combinations(interior, r):
            pts = [0, *combo, n - 1]
            total = 0.0
            for a, b in zip(pts[:-1], pts[1:]):
                total = total + float(powers[a, b])
            if total > best:
                best = total
    return best ** (1.0 / p)


def quadrature_second_level(x_fn, s, t, nsub=40_000):
    """Midpoint quadrature for the second level int_s^t (X_u - X_s) (x) dX_u.

    x_fn maps an array of times to path values of shape (len(times), d).
    Returns a (d, d) array; entry (j, k) integrates component j of X - X_s
    against dX^k.  The integrand is sampled at subinterval midpoints, which
    makes the Stieltjes sum second-order accurate -- tight enough to check
    hand-derived smooth lifts to ~1e-9.
    """
    u = np.linspace(s, t, nsub + 1)
    vals = np.atleast_2d(x_fn(u))
    if vals.shape[0] != nsub + 1:
        vals = vals.T
    mids = np.atleast_2d(x_fn(0.5 * (u[:-1] + u[1:])))
    if mids.shape[0] != nsub:
        mids = mids.T
    delta = mids - vals[0]
    dx = np.diff(vals, axis=0)
    # midpoint sum: sum_i delta[i] (x) dx[i]
    return np.einsum("ij,ik->jk", delta, dx)


def euler_maruyama_reference(y0, drift, diffusion, dt, dm):
    """Textbook Euler-Maruyama on a fixed grid, vectorized over members.

    y0 : (N,) initial values
    drift, diffusion : callables on (N,) arrays
    dt : (n,) step sizes
    dm : (N, n) martingale increments

    Returns the full trajectory, shape (N, n + 1).  The update accumulates
    y + drift*dt + diffusion*dm left to right, the usual way one writes it.
    """
    n_steps = dm.shape[1]
    out = np.empty((y0.shape[0], n_steps + 1))
    out[:, 0] = y0
    y = y0.astype(float, copy=True)
    for k in range(n_steps):
        y = y + drift(y) * dt[k] + diffusion(y) * dm[:, k]
        out[:, k + 1] = y
    return out


def fine_grid_ito_reference(integrand_fn, b_fine, t_fine, refine):
    """Left-point Ito sums of integrand_fn(B) dB on a grid `refine` times finer.

    b_fine : (N, refine * n + 1) Brownian values on the fine grid
    t_fine : (refine * n + 1,) fine times
    refine : coarsening factor (the coarse grid is every `refine`-th point)

    Returns (coarse_values, fine_integral_at_coarse_points): the Brownian
    path subsampled to the coarse grid and the fine-grid integral evaluated
    at the coarse points, shape (N, n + 1) each.
    """
    del t_fine  # increments suffice; kept in the signature for clarity
    y = integrand_fn(b_fine[:, :-1])
    steps = y * np.diff(b_fine, axis=1)
    integral = np.concatenate(
        [np.zeros((b_fine.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1
    )
    return b_fine[:, ::refine], integral[:, ::refine]


def increment_table_broadcast(values):
    """|x_j - x_i| for a single path by one broadcast difference, (n+1, n+1)."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    diff = v[None, :, :] - v[:, None, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def pvar_dp_rows(dist, p):
    """Row s of the p-variation power DP over [s, .] for every s, by loops.

    Returns a list: entry s has length n+1-s and holds, at position j, the
    p-th power of the p-variation of `dist` over [s, s+j].
    """
    powers = np.abs(np.asarray(dist, dtype=float)) ** p
    return [_pvar_dp_row(powers[s:, s:]) for s in range(powers.shape[0])]


def _pvar_dp_row(powers):
    """best[j] = max over partitions of [0, j] of the summed powers, by the
    end-point loop; best[0] = 0."""
    m = powers.shape[0] - 1
    best = np.zeros(m + 1)
    for j in range(1, m + 1):
        best[j] = np.max(best[:j] + powers[:j, j])
    return best


def _first_half_hit(w, a, b):
    """First u in (a, b] with w(a, u) >= w(a, b-1) / 2; a when that mass is 0."""
    if b <= a:
        return a
    mass = w(a, b - 1) if b - 1 > a else 0.0
    if mass <= 0.0:
        return a
    target = 0.5 * mass
    for u in range(a + 1, b + 1):
        if w(a, u) >= target:
            return u
    return b


def control_from_table(grid, table):
    """The control of an (n+1, n+1) table on `grid` as its row function
    w(s, t) -> table[s, s+1..t]; superadditivity is not checked."""
    tab = np.asarray(table, dtype=float)
    if tab.shape != (grid.n_steps + 1, grid.n_steps + 1):
        raise ValueError("table shape does not match the grid")
    return lambda s, t: tab[s, s + 1 : t + 1]


def control_mass(w, s, t):
    """The scalar w(s, t) of a row-function control: the last entry of its
    row, 0.0 when t <= s."""
    return float(w(int(s), int(t))[-1]) if t > s else 0.0


def halving_scan(ws, s, t, depth):
    """Alternating-midpoint levels of [s, t], each midpoint found by a scan.

    ws are scalar controls w(a, u), called with u > a only; level h inserts
    into every interval [a, b] of level h-1 the first u in (a, b] whose
    w(a, u) reaches half of the left-open mass w(a, b-1), using control
    ws[(h-1) % len(ws)].  Returns one sorted, duplicate-free int64 array per
    level, levels 0..depth.
    """
    levels = [np.array([s, t], dtype=np.int64)]
    pts = [s, t]
    for h in range(1, depth + 1):
        w = ws[(h - 1) % len(ws)]
        new_pts = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            new_pts.append(_first_half_hit(w, a, b))
            new_pts.append(b)
        pts = new_pts
        levels.append(np.unique(np.asarray(pts, dtype=np.int64)))
    return levels


def _lq_of_members(x, q):
    """L^q over members (axis 0) of Frobenius magnitudes, one table cell."""
    n = x.shape[0]
    flat = x.reshape(n, -1)
    mags = np.sqrt(np.einsum("nk,nk->n", flat, flat))
    return np.mean(mags**q) ** (1.0 / q)


def lq_cells_mean(increments, q):
    """The L^q cells of (N, K, ...) increments: one einsum for the squared
    magnitudes, fresh arrays for the root and the power, and `np.mean` of
    each cell's members over a contiguous member axis, with an array root."""
    flat = increments.reshape(increments.shape[:2] + (-1,))
    mags = np.sqrt(np.einsum("...d,...d->...", flat, flat))
    return np.mean(np.ascontiguousarray((mags**q).T), axis=-1) ** (1.0 / q)


def lq_table_rows(values, q, s=0, t=None):
    """F[u, v] = ||Y_v - Y_u||_{L^q} over [s, t], one row loop per u.

    values: (N, n+1) or (N, n+1, d); upper triangle filled, zeros elsewhere.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        v = v[:, :, None]
    t = v.shape[1] - 1 if t is None else t
    block = v[:, s : t + 1, :]
    return magnitude_table(lambda i: block[:, i + 1 :] - block[:, i : i + 1], t - s + 1, q)


def magnitude_table(row, m, q):
    """The row builder the package's seminorm tables were once built by.

    row(i) returns the increments dY_{i, i+1..m-1}, shape (N, m-1-i, ...);
    out[i, j] = ||dY_{i,j}||_{L^q(ensemble)} for i < j, zeros elsewhere, with
    Euclidean magnitudes across the trailing axes.  Each row is one
    `lq_cells_mean` call, which sums every cell's members over a contiguous
    axis: the package's pair cells must match it bit for bit.
    """
    out = np.zeros((m, m))
    for i in range(m - 1):
        out[i, i + 1 :] = lq_cells_mean(row(i), q)
    return out


def pair_rows(increments, s, t):
    """row(i) of `magnitude_table` from a pair-increments callable
    increments(ii, jj) (index arrays into the grid, the window starting at
    s): the increments dY_{s+i, s+i+1..t}."""
    return lambda i: increments(np.full(t - s - i, s + i), np.arange(s + i + 1, t + 1))


def shifted_increments(increments, s):
    """increments(i, j) of the window that starts at grid point s, for a
    seminorm that reads grid points 0..t - s: index arrays shifted by s."""
    return lambda i, j: increments(i + s, j + s)


def second_rows(lift, s, t):
    """row(i) = XX_{s+i, s+i+1..t} of a lift, one Chen evaluation per row."""
    return pair_rows(lift.second, s, t)


def remainder_mean_rows(ya, dya, xa, yb, dyb, xb):
    """row(u) of the stability remainder table |E[R_{u,v} - Rb_{u,v}]| as
    one "member" (take q = 1), R_{u,v} = dY_{u,v} - Y'_u . dX_{u,v} against
    each solution's own driver: values (N, n+1), derivatives (N, n+1, d) and
    driver values (N, n+1, d)."""

    def remainder_row(y, yp, x, u):
        dy = y[:, u + 1 :] - y[:, u : u + 1]
        dx = x[:, u + 1 :, :] - x[:, u : u + 1, :]
        return dy - np.einsum("nd,ntd->nt", yp[:, u], dx)

    def mean_row(u):
        diff = remainder_row(ya, dya, xa, u) - remainder_row(yb, dyb, xb, u)
        return np.mean(diff, axis=0)[None]

    return mean_row


def accumulate_prefix(values, step_second):
    """Second-level prefix XX_{0, t_k} from per-step values, one step at a time.

    XX_{0, t_{k+1}} = XX_{0, t_k} + XX_{t_k, t_{k+1}} + dX_{0, t_k} (x) dX_k
    (Chen), summed in that order.  values: (N, n+1, d); step_second:
    (Nx, n, d, d).  Returns (Nx, n+1, d, d).
    """
    n_plus1, d = values.shape[1], values.shape[2]
    out = np.zeros((step_second.shape[0], n_plus1, d, d))
    dstep = np.diff(values, axis=1)
    dx0 = values[:, :-1, :] - values[:, :1, :]
    cross = dx0[..., :, None] * dstep[..., None, :]
    for k in range(n_plus1 - 1):
        out[:, k + 1] = out[:, k] + step_second[:, k] + cross[:, k]
    return out


def chen_window(values, prefix, s, t):
    """XX_{s,t} = XX_{0,t} - XX_{0,s} - dX_{0,s} (x) dX_{s,t}, shape (N, d, d).

    values: (N, n+1, d) first level; prefix: (N, n+1, d, d) second-level prefix.
    """
    dx0s = values[:, s, :] - values[:, 0, :]
    dxst = values[:, t, :] - values[:, s, :]
    return prefix[:, t] - prefix[:, s] - dx0s[:, :, None] * dxst[:, None, :]


def chen_row(values, prefix, s, ts):
    """XX_{s,t} for every t in the index array ts, shape (N, len(ts), d, d):
    `chen_window` with the s terms broadcast over the row."""
    dx0s = (values[:, s, :] - values[:, 0, :])[:, None]
    dxst = values[:, ts, :] - values[:, s, None, :]
    return prefix[:, ts] - prefix[:, s, None] - dx0s[..., :, None] * dxst[..., None, :]


def second_level_table_cells(values, prefix, q, s, t, other=None):
    """||XX_{u,v}||_{L^q} over [s, t], one Chen window per cell.

    With other = (values_b, prefix_b) the cell holds ||XX_{u,v} - XXb_{u,v}||,
    the second-level table of the inhomogeneous rough-path distance.
    """
    m = t - s + 1
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            xx = chen_window(values, prefix, s + i, s + j)
            if other is not None:
                xx = xx - chen_window(other[0], other[1], s + i, s + j)
            out[i, j] = _lq_of_members(xx, q)
    return out


def remainder_mean_table_rows(y, yp, x, y2, yp2, x2):
    """|E[R_{u,v} - R2_{u,v}]| with R_{u,v} = dY_{u,v} - Y'_u . dX_{u,v}.

    y: (N, n+1) values; yp: (N, n+1, d) derivatives; x: (N, n+1, d) driver;
    likewise for the second solution.  One row loop per u.
    """
    n1 = y.shape[1]
    tab = np.zeros((n1, n1))
    for u in range(n1 - 1):
        dy = y[:, u + 1 :] - y[:, u : u + 1]
        dx = x[:, u + 1 :, :] - x[:, u : u + 1, :]
        r = dy - np.einsum("nd,ntd->nt", yp[:, u], dx)
        dy2 = y2[:, u + 1 :] - y2[:, u : u + 1]
        dx2 = x2[:, u + 1 :, :] - x2[:, u : u + 1, :]
        r2 = dy2 - np.einsum("nd,ntd->nt", yp2[:, u], dx2)
        tab[u, u + 1 :] = np.abs(np.mean(r - r2, axis=0))
    return tab


def ols_slope(x, y):
    """Least-squares slope of y on x (both 1-d), no intercept suppression."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xbar = x.mean()
    ybar = y.mean()
    return float(((x - xbar) * (y - ybar)).sum() / ((x - xbar) ** 2).sum())


def riemann_path_loop(germ, indices):
    """Clipped Riemann sums of a germ, one germ call per (interval, t).

    germ(s, t) is called with Python ints only; indices are the partition's
    grid indices.  Entry j is the clipped sum at grid index indices[0] + j:
    the accumulated total of the earlier intervals plus Xi_{u, t}.
    """
    idx = [int(i) for i in indices]
    start, end = idx[0], idx[-1]
    probe = germ(start, min(start + 1, end))
    n = probe.shape[0]
    trail = probe.shape[1:]
    out = np.zeros((n, end - start + 1) + trail)
    acc = np.zeros((n,) + trail)
    for u, v in zip(idx[:-1], idx[1:]):
        for t in range(u + 1, v + 1):
            out[:, t - start] = acc + germ(u, t)
        acc = out[:, v - start].copy()
    return out


def riemann_sum_loop(germ, indices):
    """Sum of germ(u, v) over the partition's intervals, left to right."""
    idx = [int(i) for i in indices]
    total = None
    for u, v in zip(idx[:-1], idx[1:]):
        val = germ(u, v)
        total = val if total is None else total + val
    return total


def left_point_steps_integral(integrand, integrator):
    """Cumulative left-point sums Y_k (A_{k+1} - A_k) from one step product.

    integrand (Ny, n+1), integrator (Na, n+1); members broadcast.  Returns
    (max(Ny, Na), n+1), zero at the first grid point.
    """
    y = np.asarray(integrand, dtype=float)
    da = np.diff(np.asarray(integrator, dtype=float), axis=1)
    n = max(y.shape[0], da.shape[0])
    steps = np.broadcast_to(y[:, :-1], (n, da.shape[1])) * np.broadcast_to(
        da, (n, da.shape[1])
    )
    return np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)


def controlled_remainder(values, derivative, x, s, t):
    """R_{s,t} = dY_{s,t} - Y'_s dX_{s,t} of a controlled path, shape (N, m),
    from values (N, n+1, m), derivative (N, n+1, m, d) and the controlling
    path x (N, n+1, d); member axes of size 1 broadcast."""
    dx = x[:, t] - x[:, s]
    return values[:, t] - values[:, s] - np.sum(derivative[:, s] * dx[:, None, :], axis=-1)


def controlled_integral(ya, dya, yb, dyb, step_second):
    """The tensor integral int a (x) db of two controlled paths, zero at t_0:
    running sums of the steps Y_u (x) dZ_{u,v} + (Y' (x) Z') : XX_{u,v}.

    a's controlling direction pairs with the first (Gubinelli) index of the
    step second level (N, n, d, d) and b's with the second.  Values are
    (N, n+1, m), derivatives (N, n+1, m, d); returns (N, n+1, ma, mb).
    """
    dz = np.diff(yb, axis=1)
    first = np.einsum("nta,ntb->ntab", ya[:, :-1], dz)
    second = np.einsum("ntaj,ntbk,ntjk->ntab", dya[:, :-1], dyb[:, :-1], step_second)
    steps = first + second
    out = np.zeros((steps.shape[0], steps.shape[1] + 1) + steps.shape[2:])
    np.cumsum(steps, axis=1, out=out[:, 1:])
    return out


def event_schedule_loop(
    dts, x, step_second, x_jumps, x_left, jump_second, m=None, m_jumps=(), m_left=None
):
    """The RSDE event schedule built one grid step at a time.

    dts (n,) step sizes; x (Nx, n+1, d) lift values with left limits x_left
    (Nx, Jx, d) and second-level jumps jump_second (Nx, Jx, d, d) at x_jumps;
    step_second (Nx, n, d, d).  m (Nm, n+1) martingale values with left limits
    m_left (Nm, Jm) at m_jumps, or None for no martingale.  Every step gives a
    continuous event; a step ending at a jump of either driver gives a
    continuous event to the left limit and then a jump event.  Returns a dict
    of dt (E,), dm (Nm, E), dx (Nx, E, d), xx (Nx, E, d, d), lands_on_grid
    (E,) (False for an event ending at a left limit), grid_index (E,) (right
    grid index of the owning step), event_start (n+1,) and jump_indices.
    """
    n = dts.size
    nx, d = x.shape[0], x.shape[2]
    dxs = np.diff(x, axis=1)
    x_jumps = np.asarray(x_jumps, dtype=np.int64)
    m_jumps = np.asarray(m_jumps, dtype=np.int64)
    dms = np.diff(m, axis=1) if m is not None else np.zeros((1, n))
    nm = dms.shape[0]
    all_jumps = np.union1d(x_jumps, m_jumps).astype(np.int64)
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
            xx_l.append(step_second[:, k])
            lands_l.append(True)
            gidx_l.append(j)
            continue
        px = np.searchsorted(x_jumps, j)
        if px < x_jumps.size and x_jumps[px] == j:
            xl = x_left[:, px, :]
            dx_cont = xl - x[:, k, :]
            dx_jump = x[:, j, :] - xl
            dxx_jump = jump_second[:, px]
            xx_cont = (
                step_second[:, k] - np.einsum("nj,nk->njk", dx_cont, dx_jump) - dxx_jump
            )
        else:
            dx_cont = dxs[:, k]
            dx_jump = np.zeros((nx, d))
            dxx_jump = np.zeros((nx, d, d))
            xx_cont = step_second[:, k]
        pm = np.searchsorted(m_jumps, j)
        if m is not None and pm < m_jumps.size and m_jumps[pm] == j:
            ml = m_left[:, pm]
            dm_cont = ml - m[:, k]
            dm_jump = m[:, j] - ml
        else:
            dm_cont = dms[:, k]
            dm_jump = np.zeros(nm)
        dt_l += [dts[k], 0.0]
        dm_l += [dm_cont, dm_jump]
        dx_l += [dx_cont, dx_jump]
        xx_l += [xx_cont, dxx_jump]
        lands_l += [False, True]
        gidx_l += [j, j]
    event_start[n] = len(dt_l)
    return {
        "dt": np.asarray(dt_l, dtype=float),
        "dm": np.stack(dm_l, axis=1),
        "dx": np.stack(dx_l, axis=1),
        "xx": np.stack(xx_l, axis=1),
        "lands_on_grid": np.asarray(lands_l, dtype=bool),
        "grid_index": np.asarray(gidx_l, dtype=np.int64),
        "event_start": event_start,
        "jump_indices": all_jumps,
    }


def compound_poisson_loop(times, flat_times, flat_sizes, counts, align_jumps, time_tol=1e-12):
    """Compound Poisson values, squared-jump sums and jump columns, one member
    at a time.

    times (n+1,) grid; flat_times, flat_sizes (total,) every member's jumps,
    member-major and time-sorted within a member; counts (N,) jumps per
    member.  A jump at u counts at t_k when u < t_k + time_tol.  With
    align_jumps each jump's column is the grid point within time_tol of u
    found next to searchsorted(times, u).  Returns values (N, n+1),
    qv (N, n+1) and the sorted jump columns.
    """
    n_members = counts.size
    values = np.zeros((n_members, times.size))
    qv = np.zeros((n_members, times.size))
    columns = set()
    starts = np.concatenate([[0], np.cumsum(counts)])
    for i in range(n_members):
        ti = flat_times[starts[i] : starts[i + 1]]
        si = flat_sizes[starts[i] : starts[i + 1]]
        if ti.size == 0:
            continue
        csum = np.cumsum(si)
        c2 = np.cumsum(si**2)
        pos = np.searchsorted(ti, times + time_tol, side="left")
        values[i] = np.where(pos > 0, csum[np.maximum(pos - 1, 0)], 0.0)
        qv[i] = np.where(pos > 0, c2[np.maximum(pos - 1, 0)], 0.0)
        if align_jumps:
            for tj in ti:
                k = int(np.searchsorted(times, tj))
                columns.add(next(
                    j for j in (k - 1, k, k + 1)
                    if 0 <= j < times.size and abs(times[j] - tj) <= time_tol
                ))
    return values, qv, np.array(sorted(columns), dtype=np.int64)


def mixed_driver_arrays(times, b_values, j_values, j_left, jump_indices, j_bracket,
                        rate, jump_mean):
    """The mixed driver X = B + J assembled with its own Ito step, compensator
    and bracket formulas, from the arrays of a Brownian ensemble B (values
    (N, n+1, 1)) and a compound-Poisson ensemble J (values (N, n+1, 1), left
    limits (N, J, 1) or None at `jump_indices`, bracket (N, n+1, 1, 1)) on
    the grid `times`.

    Returns path values, path left limits, lift steps, lift jumps, martingale
    values, martingale left limits and bracket: the step is
    (dB^2 - dt) / 2 + dB dJ, M = X - rate E[jump] t and [M] = [J] + t.
    """
    values = b_values + j_values
    left = b_values[:, jump_indices, :] + j_left if jump_indices.size else None
    dt = np.diff(times)
    db = np.diff(b_values, axis=1)
    dj = np.diff(j_values, axis=1)
    step_second = 0.5 * (np.einsum("...j,...k->...jk", db, db) - dt[None, :, None, None])
    step_second = step_second + np.einsum("...j,...k->...jk", db, dj)
    jump_second = np.zeros((step_second.shape[0], jump_indices.size, 1, 1))
    m_values = values - (rate * jump_mean * times)[None, :, None]
    m_left = (
        left - (rate * jump_mean * times[jump_indices])[None, :, None]
        if jump_indices.size
        else None
    )
    bracket = j_bracket + times[None, :, None, None]
    return values, left, step_second, jump_second, m_values, m_left, bracket


def window_control(lift, mart, p, q, s, t):
    """Grid-proxy smallness of [s, u] for every u in s+1..t, shape (t - s,):

        (t_u - t_s) + ||X||_{p,q}^p + ||XX||_{p/2,q}^{p/2} + ||[M]||_{p/2,q/2}^{p/2}.

    The per-window control Picard windows are planned by, built the way the
    solver once built it for each window alone: the time increments plus the
    DP row from s of each L^q table over [s, t], every table row by row.
    `lift` and `mart` are read through their arrays only (grid times, path
    values, second-level prefix, scalar bracket).
    """
    times, x, prefix = lift.grid.times, lift.path.values, lift.second_prefix
    out = times[s + 1 : t + 1] - times[s]
    out = out + _pvar_dp_row(lq_table_rows(x, q, s=s, t=t) ** p)[1:]
    second = magnitude_table(
        lambda i: chen_row(x, prefix, s + i, np.arange(s + i + 1, t + 1)), t - s + 1, q
    )
    out = out + _pvar_dp_row(second ** (p / 2.0))[1:]
    if mart is not None:
        bracket = lq_table_rows(mart.bracket[..., 0, 0], q / 2.0, s=s, t=t)
        out = out + _pvar_dp_row(bracket ** (p / 2.0))[1:]
    return out


def plan_windows_one_step(control, n, threshold):
    """Greedy split of [0, n] into maximal windows whose control stays at or
    below `threshold`, each search starting at one step.

    control(s, t) returns the row of window controls of [s, u] for
    u = s+1..t.  The window doubles until the row's last entry exceeds the
    threshold (or reaches n) and then ends at the last grid point of that row
    still within it; a single step over the threshold is its own window.
    """
    out = []
    s = 0
    while s < n:
        t = s + 1
        row = control(s, t)
        while row[-1] <= threshold and t < n:
            t = min(n, s + 2 * (t - s))
            row = control(s, t)
        good = s + max(1, int(np.count_nonzero(row <= threshold)))
        out.append((s, good))
        s = good
    return out


def plan_windows_by_columns(rsde, lift, mart, p, q):
    """`rsde._plan_windows` as it ran before its band: every window grows
    one grid point u at a time, and each table reduces its column of cells
    (i, u), i = s..u-1, on its own (N, u - s) array, one `_lq_cells` call per
    table and grid point, on the package's reduction, DP and threshold,
    taken from the module `rsde`."""
    n = lift.grid.n_steps
    times, x = lift.grid.times, lift.path.values
    # (column dY_{s..u-1, u} of a table, its q, its p)
    tables = [
        (lambda s, u: x[:, u : u + 1] - x[:, s:u], q, p),
        (lambda s, u: lift.second(np.arange(s, u), np.full(u - s, u)), q, p / 2.0),
    ]
    if mart is not None:
        br = mart.bracket[..., 0, 0]
        tables.append((lambda s, u: br[:, u : u + 1] - br[:, s:u], q / 2.0, p / 2.0))

    def powered_seminorms(s, column, r, pw):
        """The table's powered seminorm over [s, u] for u = s+1, s+2, ..."""
        cells = (
            (rsde._lq_cells(column(s, u), r) ** pw).tolist() for u in range(s + 1, n + 1)
        )
        return rsde._pvar_dp(cells)

    out = []
    s = 0
    while s < n:
        seminorms = [powered_seminorms(s, *table) for table in tables]
        t = n
        for u, *terms in zip(range(s + 1, n + 1), *seminorms):
            if not sum(terms, times[u] - times[s]) <= rsde._WINDOW_THRESHOLD:
                t = max(s + 1, u - 1)
                break
        out.append((s, t))
        s = t
    return out


def add_germ(out, y, coeffs, fs, dt, dm, dx, xx):
    """out + b(y) dt + sigma(y) dm + f(y) . dx + (Df f)(y) : XX, term by term
    left to right, for the rough components `fs` of `coeffs`: the germ the
    solvers evaluated before `rsde._germ_kernel`, one fresh array per term.

    Absent terms are skipped entirely, so the sigma-only step from y is a
    plain Euler-Maruyama update bitwise.  `solve` started from y; Picard
    started from zeros, vectorized over an event axis.
    """
    if coeffs.b is not None:
        out = out + coeffs.b.f(y) * dt
    if coeffs.sigma is not None:
        out = out + coeffs.sigma.f(y) * dm
    if fs:
        fv = [fn.f(y) for fn in fs]
        acc = 0.0
        for i, f in enumerate(fv):
            acc = acc + f * dx[..., i]
        out = out + acc
        dfv = [fn.df(y) for fn in fs]
        acc = 0.0
        for j, f in enumerate(fv):
            for i, df in enumerate(dfv):
                # second index of XX is the integration direction
                acc = acc + df * f * xx[..., j, i]
        out = out + acc
    return out


def add_germ_einsum(out, y, coeffs, fs, dt, dm, dx, xx):
    """out + b(y) dt + sigma(y) dm + f(y) . dx + (Df f)(y) : XX with the rough
    components stacked on a last axis and contracted by einsum.

    coeffs has optional `b` and `sigma`, and fs is a sequence of the rough
    components; each of these has elementwise `f` (and, for fs, `df`).  dx
    is (..., d) and xx (..., d, d), whose second index is the integration
    direction.
    """
    if coeffs.b is not None:
        out = out + coeffs.b.f(y) * dt
    if coeffs.sigma is not None:
        out = out + coeffs.sigma.f(y) * dm
    if fs:
        fv = np.stack([fn.f(y) for fn in fs], axis=-1)
        out = out + np.einsum("...i,...i->...", fv, np.asarray(dx, dtype=float))
        dfv = np.stack([fn.df(y) for fn in fs], axis=-1)
        out = out + np.einsum("...i,...j,...ji->...", dfv, fv, np.asarray(xx, dtype=float))
    return out


def solve_member_major(germ, coeffs, fs, y0, dt, dm, dx, xx, dest, event_start, n_jumps,
                       start=0, stop=None):
    """The one-step RSDE scheme event by event on member-major arrays: the
    solver loop that strided through column e of every array per event.

    germ(out, y, coeffs, fs, dt, dm, dx, xx) is the scheme's germ
    (`add_germ` or `add_germ_einsum`); dt (E,), dm (Nm, E), dx (Nx, E, d) and xx
    (Nx, E, d, d) are the event increments, dest (E,) the state column each
    event lands on and event_start (n+1,) the first event of each step, as
    `event_schedule_loop` lays them out.  The state (N, n+1+n_jumps) holds
    y0 on grid columns 0..start and NaN in the left-limit columns.  Returns
    (values (N, n+1), left_values (N, n_jumps)).
    """
    n = event_start.size - 1
    stop = n if stop is None else stop
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n_members = int(np.broadcast_shapes(y0.shape, (dm.shape[0],), (dx.shape[0],))[0])
    state = np.empty((n_members, n + 1 + n_jumps))
    state[:, : start + 1] = np.broadcast_to(y0, (n_members,))[:, None]
    state[:, n + 1 :] = np.nan
    y = state[:, start]
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(event_start[start], event_start[stop]):
            state[:, dest[e]] = y = germ(y, y, coeffs, fs, dt[e], dm[:, e], dx[:, e], xx[:, e])
    state[:, stop + 1 : n + 1] = state[:, stop : stop + 1]
    return state[:, : n + 1], state[:, n + 1 :]


def picard_allocating_loop(rsde, germ, coeffs, y0, lift, mart=None, p=2.0, q=4.0,
                           tol=1e-9, max_iter=60):
    """`rsde.picard_solve`'s iteration as it ran before the germ kernel: per
    iteration a zeros array, the germs `germ(zero, y, coeffs, fs, ...)`
    (`add_germ` or `add_germ_einsum`) over the window's events at once, a
    fresh iterate and one cell reduction of the update.  It runs on the
    package's event schedule, window plan and seminorm, taken from the module
    `rsde`.  Every iteration takes the full distance, seminorm plus end term.
    Returns (values (N, n+1), left_values (N, J), iterations per window,
    distances per window, end terms per window).
    """
    sched, fs, state = rsde._prologue(coeffs, y0, lift, mart, 0)
    n = lift.grid.n_steps
    iterations, distances, end_terms = [], [], []
    for s, t in rsde._plan_windows(lift, mart, p, q):
        e0, e1 = int(sched.event_start[s]), int(sched.event_start[t])
        dt_w, dm_w = sched.dt[e0:e1, None], sched.dm[e0:e1]
        dx_w, xx_w, dest_w = sched.dx[e0:e1], sched.xx[e0:e1], sched.dest[e0:e1]
        grid_slots = np.concatenate([[0], np.flatnonzero(dest_w <= n) + 1])
        last = grid_slots.size - 1
        pairs = rsde._column_pairs(last + 1)
        y_start = state[s]
        cur = np.broadcast_to(y_start, (e1 - e0 + 1, y_start.size)).copy()
        dists, ends = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                y_w = cur[:-1]
                zero = np.zeros(np.broadcast_shapes(y_w.shape, dm_w.shape))
                germs = germ(zero, y_w, coeffs, fs, dt_w, dm_w, dx_w, xx_w)
                new = np.empty_like(cur)
                new[0] = y_start
                np.cumsum(germs, axis=0, out=new[1:])
                new[1:] += y_start
                live = np.isfinite(new[-1])
                diff = (new[grid_slots] - cur[grid_slots]).T[live]
                cur = new
                if not live.any():
                    dists.append(float("nan"))
                    ends.append(float("nan"))
                    break
                end = rsde.lq_norm(diff[:, -1], q)
                dist = rsde._pair_seminorm(
                    lambda i, j: diff[:, j] - diff[:, i], diff.shape[0], last, p, q, pairs
                ) + end
                dists.append(float(dist))
                ends.append(end)
                if dist < tol:
                    break
        iterations.append(len(dists))
        distances.append(dists)
        end_terms.append(ends)
        state[dest_w] = cur[1:]
    return state[: n + 1].T, state[n + 1 :].T, iterations, distances, end_terms


def picard_full_sweep(rsde, coeffs, y0, lift, mart=None, p=2.0, q=4.0, tol=1e-9, max_iter=60):
    """`rsde.picard_solve` as it ran before it kept the rows each iteration
    fixes: every iteration evaluates the germs of all the window's events and
    takes the running sum from the first, on the package's germ kernel,
    schedule, window plan and seminorm, taken from the module `rsde`.
    Returns the `RSDEResult`, warnings and diagnostics included.
    """
    sched, fs, state = rsde._prologue(coeffs, y0, lift, mart, 0)
    germ = rsde._germ_kernel(coeffs, fs, sched)
    n = lift.grid.n_steps
    windows = rsde._plan_windows(lift, mart, p, q)
    iters_per_window, distance_history = [], []
    for (s, t) in windows:
        e0, e1 = int(sched.event_start[s]), int(sched.event_start[t])
        dest_w = sched.dest[e0:e1]
        grid_slots = np.concatenate([[0], np.flatnonzero(dest_w <= n) + 1])
        last = grid_slots.size - 1
        pairs = rsde._column_pairs(last + 1)
        y_start = state[s]
        cur = np.broadcast_to(y_start, (e1 - e0 + 1, y_start.size)).copy()
        germs = np.empty_like(cur[1:])
        scratch = rsde._germ_scratch(fs, germs.shape)
        dists = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                germ(0.0, cur[:-1], germs, scratch, slice(e0, e1), True)
                change = cur[grid_slots]
                np.cumsum(germs, axis=0, out=cur[1:])
                cur[1:] += y_start
                np.subtract(cur[grid_slots], change, out=change)
                live = np.isfinite(cur[-1])
                diff = change.T[live]
                if not live.any():
                    dists.append(float("nan"))
                    break
                end = rsde.lq_norm(diff[:, -1], q)
                bounded = end >= tol
                if bounded:
                    dists.append(end)
                    continue
                dist = rsde._pair_seminorm(
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
    diagnostics = {"windows": windows, "iterations": iters_per_window, "distances": distance_history}
    return rsde._epilogue(lift, sched, state, 0, n, diagnostics)


def simulate_brownian(rng, times, n_members, dim):
    """Values (N, n+1, d) and bracket (1, n+1, d, d) of a standard Brownian
    ensemble W on `times`, drawn whole from `rng`: one (N, n, d) draw, a
    scaled copy, a `cumsum` and a `concatenate`."""
    dt = np.diff(times)
    dw = rng.standard_normal((n_members, dt.size, dim)) * np.sqrt(dt)[None, :, None]
    values = np.concatenate([np.zeros((n_members, 1, dim)), np.cumsum(dw, axis=1)], axis=1)
    bracket = np.eye(dim)[None, None, :, :] * times[None, :, None, None]
    return values, bracket


def clipped_polynomial(coeffs, r):
    """(f, df, d2f) of P(clip(y, -r, r)) for the polynomial P with
    coefficients `coeffs` (c[k] multiplies y^k), each by Horner's rule at the
    clipped y; the derivatives are masked to 0 outside (-r, r)."""
    c, d1, d2 = _poly_derivatives(coeffs)

    def df(y):
        y = np.asarray(y, dtype=float)
        return _poly_eval(d1, np.clip(y, -r, r)) * (np.abs(y) < r)

    def d2f(y):
        y = np.asarray(y, dtype=float)
        return _poly_eval(d2, np.clip(y, -r, r)) * (np.abs(y) < r)

    return (lambda y: _poly_eval(c, np.clip(y, -r, r))), df, d2f


def _poly_derivatives(coeffs):
    c = np.asarray(coeffs, dtype=float)  # c[k] multiplies y^k
    d1 = c[1:] * np.arange(1, c.size)
    d2 = d1[1:] * np.arange(1, d1.size) if d1.size > 1 else np.zeros(1)
    return c, d1, d2


def _poly_eval(c, y):
    out = np.zeros_like(np.asarray(y, dtype=float))
    for k in range(c.size - 1, -1, -1):
        out = out * y + c[k]
    return out


def brownian_milstein_whole_ensemble(cfg, scenarios):
    """The rows of `scenario_brownian_milstein` with the whole ensemble held
    at the finest grid through simulate, lift and solve, run on the package's
    `scenarios` module (and the layers it imports)."""
    sc = scenarios
    paths, rsde, calculus = sc.paths, sc.rsde, sc.calculus
    T, seed, N = 1.0, cfg.seed, cfg.ensemble
    coeffs = rsde.CoefficientSet(f=calculus.smooth_fn("linear"))
    n_max = cfg.n * 2 ** (cfg.levels - 1)
    bm = paths.simulate_brownian(T, n_max, seed, n_members=N, dim=1)
    exact = np.exp(bm.values[:, -1, 0] - 0.5 * T)
    rows, sizes, errs = [], [], []
    for k in range(cfg.levels):
        mart = sc._subsampled_brownian(bm, n_max // (cfg.n * 2**k))
        lift = paths.ito_lift_brownian(mart, seed=seed)
        res = rsde.solve(coeffs, 1.0, lift)
        l2, se = sc._l2_with_se(res.values[:, -1] - exact)
        sizes.append(mart.grid.n_steps)
        errs.append(l2)
        rows.append(sc._row(cfg, "L2_error", l2, se, level=k, n=sizes[-1]))
    slope = sc._fit_log2_slope(sizes, errs)
    rows.append(sc._row(cfg, "observed_order", -slope, n=n_max))

    bm_small = paths.simulate_brownian(T, 128, seed + 1, n_members=min(N, 64), dim=1)
    lift_small = paths.ito_lift_brownian(bm_small, seed=seed + 1)
    sol = rsde.solve(coeffs, 1.0, lift_small)
    rows.append(
        sc._picard_gap_row(cfg, sol, coeffs, 1.0, lift_small, n=128, N=bm_small.n_members)
    )
    return rows


def uniform_lq_distance(a, b, q):
    """|| sup_t |a_t - b_t| ||_{L^q(ensemble)} with Frobenius magnitudes."""
    diff = a - b
    n = diff.shape[0]
    flat = diff.reshape(n, diff.shape[1], -1)
    mags = np.sqrt(np.einsum("ntk,ntk->nt", flat, flat))
    sup = mags.max(axis=1)
    return float(np.mean(sup**q) ** (1.0 / q))


def refinement_walk(sewing, germ, grid, controls, depth):
    """The full-grid limit and a lazy walk of (partition, Riemann path), one
    pair per alternating-midpoint level of the controls (default ones if
    None), each path built for the whole ensemble at once, run on the
    package's `sewing` module (and the layers it imports)."""
    controls = controls if controls is not None else sewing.default_controls(germ, grid)
    full = sewing.step_path(germ, grid)
    levels = sewing.alternating_midpoints(controls, 0, grid.n_steps, depth)
    parts = (sewing.Partition(grid, lv) for lv in levels)
    return full, ((part, sewing.riemann_path(germ, part)) for part in parts)


def alternating_midpoints_undeduplicated(grids, ws, s, t, depth):
    """Alternating-midpoint levels of [s, t] from a working list of points
    that keeps every repeated point, so it doubles at every level even once
    the partition fills the grid (2^depth + 1 entries at the last level);
    midpoints by the package's `grids._halving_point`."""
    levels = [np.array([s, t], dtype=np.int64)]
    pts = [s, t]
    for h in range(1, depth + 1):
        w = ws[(h - 1) % len(ws)]
        new_pts = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            new_pts.append(grids._halving_point(w, a, b))
            new_pts.append(b)
        pts = new_pts
        levels.append(np.unique(np.asarray(pts, dtype=np.int64)))
    return levels

"""Independent reference computations used by the test suite.

Everything in this module is deliberately written from first principles with
plain Python loops / numpy and without importing the package under test, so
the tests compare two genuinely different routes to the same number.
"""
from __future__ import annotations

import itertools

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
    n = powers.shape[0] - 1
    rows = []
    for s in range(n + 1):
        best = np.empty(n - s + 1)
        best[0] = 0.0
        block = powers[s:, s:]
        for j in range(1, n - s + 1):
            best[j] = np.max(best[:j] + block[:j, j])
        rows.append(best)
    return rows


def _lq_of_members(x, q):
    """L^q over members (axis 0) of Frobenius magnitudes, one table cell."""
    n = x.shape[0]
    flat = x.reshape(n, -1)
    mags = np.sqrt(np.einsum("nk,nk->n", flat, flat))
    return np.mean(mags**q) ** (1.0 / q)


def lq_table_rows(values, q, s=0, t=None):
    """F[u, v] = ||Y_v - Y_u||_{L^q} over [s, t], one row loop per u.

    values: (N, n+1) or (N, n+1, d); upper triangle filled, zeros elsewhere.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        v = v[:, :, None]
    t = v.shape[1] - 1 if t is None else t
    m = t - s + 1
    block = v[:, s : t + 1, :]
    out = np.zeros((m, m))
    for i in range(m - 1):
        diff = block[:, i + 1 :, :] - block[:, i : i + 1, :]
        mags = np.sqrt(np.einsum("nkd,nkd->nk", diff, diff))
        out[i, i + 1 :] = np.mean(mags**q, axis=0) ** (1.0 / q)
    return out


def chen_window(values, prefix, s, t):
    """XX_{s,t} = XX_{0,t} - XX_{0,s} - dX_{0,s} (x) dX_{s,t}, shape (N, d, d).

    values: (N, n+1, d) first level; prefix: (N, n+1, d, d) second-level prefix.
    """
    dx0s = values[:, s, :] - values[:, 0, :]
    dxst = values[:, t, :] - values[:, s, :]
    return prefix[:, t] - prefix[:, s] - dx0s[:, :, None] * dxst[:, None, :]


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

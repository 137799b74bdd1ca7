"""Empirical L^q norms and V^p L^q-type seminorms over ensembles.

The seminorm of a process Y over a window is the p-variation of the
two-parameter table F(s, t) = ||dY_{s,t}||_{L^q(ensemble)}.  Conditional
variants (the V^p L^q[r] family with r > 1) are out of empirical reach on a
desk ensemble and are reduced to r = 1: conditional means are approximated by
unconditional ensemble means (for r = 1 the two families coincide; r = infinity
facts enter only through analytic closed forms such as a stored Brownian
bracket).  Every table goes through one row builder, `_magnitude_table`, and
full O(n^2) tables are only built for n <= 2048 as a memory guard.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import p_variation
from .paths import RoughLift

__all__ = [
    "LqEstimate",
    "lq_norm",
    "lq_table",
    "two_param_seminorm",
    "vp_lq_seminorm",
    "second_level_seminorm",
    "rough_path_distance",
    "chen_residual",
]

MAX_TABLE_POINTS = 2048


@dataclass(frozen=True)
class LqEstimate:
    """An empirical moment estimate with its delta-method standard error."""

    value: float
    std_error: float
    n_members: int


def lq_norm(samples: np.ndarray, q: float, return_estimate: bool = False):
    """Empirical L^q norm over the member axis (axis 0).

    samples: (N, ...) — any trailing shape; magnitudes are Euclidean across
    the trailing axes.  Returns a float (or an LqEstimate with the
    delta-method standard error of the q-th-root statistic).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    flat = x.reshape(n, -1)
    mags = np.sqrt(np.einsum("nk,nk->n", flat, flat))
    mq = np.mean(mags**q)
    value = mq ** (1.0 / q)
    if not return_estimate:
        return float(value)
    var_mq = np.var(mags**q, ddof=1) / n if n > 1 else 0.0
    # delta method for x -> x^(1/q)
    se = (value / (q * mq) * np.sqrt(var_mq)) if mq > 0 else 0.0
    return LqEstimate(value=float(value), std_error=float(se), n_members=n)


def _check_table_size(n_points: int):
    if n_points > MAX_TABLE_POINTS:
        raise ValueError(
            f"refusing to build an O(n^2) table for {n_points} grid points "
            f"(limit {MAX_TABLE_POINTS})"
        )


def _magnitude_table(row, m: int, q: float) -> np.ndarray:
    """The two-parameter table builder behind every seminorm.

    row(i) returns the increments dY_{i, i+1..m-1}, shape (N, m-1-i, ...);
    the table is out[i, j] = ||dY_{i,j}||_{L^q(ensemble)} for i < j and zero
    elsewhere, with Euclidean magnitudes across the trailing axes.  Built one
    row at a time, so memory stays at O(N * m) rather than O(N * m^2).
    """
    _check_table_size(m)
    out = np.zeros((m, m))
    for i in range(m - 1):
        r = row(i)
        flat = r.reshape(r.shape[0], r.shape[1], -1)
        mags = np.sqrt(np.einsum("nkd,nkd->nk", flat, flat))
        out[i, i + 1 :] = np.mean(mags**q, axis=0) ** (1.0 / q)
    return out


def lq_table(values: np.ndarray, q: float, s: int = 0, t: int | None = None) -> np.ndarray:
    """Two-parameter table F[u, v] = ||Y_v - Y_u||_{L^q} over the window [s, t].

    values: (N, n+1) or (N, n+1, d).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        v = v[:, :, None]
    t = v.shape[1] - 1 if t is None else t
    block = v[:, s : t + 1, :]
    return _magnitude_table(lambda i: block[:, i + 1 :] - block[:, i : i + 1], t - s + 1, q)


def two_param_seminorm(table: np.ndarray, p: float, s: int = 0, t: int | None = None) -> float:
    """p-variation of a two-parameter magnitude table (e.g. remainder norms)."""
    return p_variation(table, p, s=s, t=t)


def vp_lq_seminorm(
    values: np.ndarray, p: float, q: float, s: int = 0, t: int | None = None
) -> float:
    """||Y||_{p,q,[s,t]}: p-variation of the L^q increment table."""
    tab = lq_table(values, q, s=s, t=t)
    return p_variation(tab, p)


def _second_rows(lift: RoughLift, s: int, t: int):
    """row(i) = XX_{s+i, s+i+1..t}, one Chen evaluation per row."""
    return lambda i: lift.second(s + i, np.arange(s + i + 1, t + 1))


def second_level_seminorm(
    lift: RoughLift, p: float, q: float = 2.0, s: int = 0, t: int | None = None
) -> float:
    """||XX||_{p/2, q}: (p/2)-variation of the second level's L^q table."""
    t = lift.grid.n_steps if t is None else t
    return p_variation(_magnitude_table(_second_rows(lift, s, t), t - s + 1, q), p / 2.0)


def rough_path_distance(
    a: RoughLift, b: RoughLift, p: float, q: float = 2.0, s: int = 0, t: int | None = None
) -> float:
    """Inhomogeneous distance: ||X - Xtilde||_p + ||XX - XXtilde||_{p/2}.

    Both lifts must live on the same grid.
    """
    if a.grid.n_steps != b.grid.n_steps or np.any(a.grid.times != b.grid.times):
        raise ValueError("lifts live on different grids")
    t = a.grid.n_steps if t is None else t
    first = vp_lq_seminorm(a.path.values - b.path.values, p, q, s=s, t=t)
    rows_a, rows_b = _second_rows(a, s, t), _second_rows(b, s, t)
    tab = _magnitude_table(lambda i: rows_a(i) - rows_b(i), t - s + 1, q)
    return first + p_variation(tab, p / 2.0)


def chen_residual(lift: RoughLift, s: int, u: int, t: int) -> float:
    """Relative Chen defect on the triple s <= u <= t.

    max over members of |XX_{s,t} - XX_{s,u} - XX_{u,t} - dX_{s,u} (x) dX_{u,t}|
    divided by (1 + |XX_{s,t}|), where |.| is the Frobenius norm.
    """
    x = lift.path.values
    dxsu = x[:, u, :] - x[:, s, :]
    dxut = x[:, t, :] - x[:, u, :]
    lhs = lift.second(s, t)
    rhs = lift.second(s, u) + lift.second(u, t) + np.einsum("nj,nk->njk", dxsu, dxut)
    defect = np.sqrt(np.sum((lhs - rhs) ** 2, axis=(-1, -2)))
    scale = 1.0 + np.sqrt(np.sum(lhs**2, axis=(-1, -2)))
    return float(np.max(defect / scale))

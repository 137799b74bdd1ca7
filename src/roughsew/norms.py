"""Empirical L^q norms and V^p L^q-type seminorms over ensembles.

The seminorm of a process Y over a window is the p-variation of the
two-parameter table F(s, t) = ||dY_{s,t}||_{L^q(ensemble)}.  Conditional
variants (the V^p L^q[r] family with r > 1) are out of empirical reach on a
desk ensemble and are reduced to r = 1: conditional means are approximated by
unconditional ensemble means (for r = 1 the two families coincide; r = infinity
facts enter only through analytic closed forms such as a stored Brownian
bracket).  Tables are built row by row in `_magnitude_table`, except the
q = 2 table of an ensemble, which `lq_table` reads off one Gram product G of
the members' paths, each centred by its time-mean:
||dY_{i,j}||^2 = (G_ii + G_jj - 2 G_ij) / N.  That subtraction cancels where
an increment is small next to the paths' distance from their time-means, so
a row with a cell where eps (G_ii + G_jj) exceeds `_GRAM_RTOL` times
G_ii + G_jj - 2 G_ij is rebuilt by the row builder, and a block with a
non-finite entry or Gram entry is built by rows throughout.  Full O(n^2)
tables are only built for n <= 2048 as a memory guard.  The solver's Picard
updates are measured by `_pair_seminorm`, which reduces all cells of a small
block at once and gives the row builder's seminorm bit for bit, at every q.
"""
from __future__ import annotations

import operator

import numpy as np

from .grids import p_variation
from .paths import RoughLift

__all__ = [
    "lq_norm",
    "lq_table",
    "two_param_seminorm",
    "vp_lq_seminorm",
    "second_level_seminorm",
    "rough_path_distance",
    "chen_residual",
]

MAX_TABLE_POINTS = 2048

# a q = 2 Gram row is kept when eps * (G_ii + G_jj) stays below this fraction
# of G_ii + G_jj - 2 G_ij in every cell, else the row builder rebuilds it
_GRAM_RTOL = 1e-13


def lq_norm(samples: np.ndarray, q: float) -> float:
    """Empirical L^q norm over the member axis (axis 0).

    samples: (N, ...) — any trailing shape; magnitudes are Euclidean across
    the trailing axes.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return float(_lq_cells(np.asarray(samples, dtype=float), q, cell_axes=0))


def _lq_cells(increments: np.ndarray, q: float, cell_axes: int = 1):
    """||dY||_{L^q(ensemble)} of each cell of (N, *cells, ...) increments,
    with Euclidean magnitudes across the axes after the `cell_axes` cell
    axes: the one reduction behind every table cell, and `lq_norm` at
    cell_axes = 0.  The member mean runs on C-order memory, so a cell does
    not depend on the layout of the increments (a time-major lift's columns
    give the member-major cells bit for bit)."""
    flat = increments.reshape(increments.shape[: 1 + cell_axes] + (-1,))
    mags = np.sqrt(np.einsum("...d,...d->...", flat, flat))
    return np.mean(np.ascontiguousarray(mags**q), axis=0) ** (1.0 / q)


#: members x cells of one `_pair_seminorm` reduction (128 KB of float64), so
#: a long window's cells stay in cache and never make one O(N m^2) array: on
#: 117-step windows (N = 128) one array per update ran Picard at half the
#: speed of the row builder, these chunks at its speed
_PAIR_CELL_BUDGET = 2**14


def _column_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), 0 <= i < j < m, column by column (j ascending,
    then i), without the last pair (m-2, m-1): the cells `_pair_seminorm`
    reduces together.  They depend on m only, so a caller that measures many
    blocks of the same width builds them once."""
    _check_table_size(m)
    jj, ii = np.nonzero(np.tri(m, k=-1, dtype=bool))
    return ii[:-1], jj[:-1]


def _pair_seminorm(values: np.ndarray, pairs, p: float, q: float) -> float:
    """The V^p L^q seminorm of an (N, m) block, m >= 2, from one cell
    reduction: bit for bit the p-variation of its row-built table
    (`_magnitude_table`, which `vp_lq_seminorm` uses except at q = 2).

    `pairs` is `_column_pairs(m)`.  The cells of all pairs reduce in one
    `_lq_cells` call (in chunks of `_PAIR_CELL_BUDGET`, each of at least two
    cells); numpy sums an (N, K >= 2) array member by member, as it does each
    row of the row builder.  The last row's one cell (m-2, m-1) reduces on
    its own (N, 1) array, which numpy sums pairwise, as the row builder does.
    The p-variation DP then runs over the columns in plain floats, and a NaN
    cell gives NaN, as `grids._pvar_dp` does.
    """
    ii, jj = pairs
    n_members, n_pairs = values.shape[0], ii.size
    step = max(2, _PAIR_CELL_BUDGET // n_members)
    cells = np.empty(n_pairs + 1)
    a = 0
    while a < n_pairs:
        # the last chunk takes a lone leftover cell, so no chunk is (N, 1)
        b = n_pairs if a + step >= n_pairs - 1 else a + step
        cells[a:b] = _lq_cells(values[:, jj[a:b]] - values[:, ii[a:b]], q)
        a = b
    cells[-1:] = _lq_cells(values[:, -1:] - values[:, -2:-1], q)
    if np.isnan(cells).any():
        return float("nan")
    powers = (cells**p).tolist()
    best = [0.0]
    for j in range(1, values.shape[1]):
        k = j * (j - 1) // 2  # column j holds the pairs (0..j-1, j)
        best.append(max(map(operator.add, best, powers[k : k + j])))
    return best[-1] ** (1.0 / p)


def _check_table_size(n_points: int):
    if n_points > MAX_TABLE_POINTS:
        raise ValueError(
            f"refusing to build an O(n^2) table for {n_points} grid points "
            f"(limit {MAX_TABLE_POINTS})"
        )


def _magnitude_table(row, m: int, q: float, rows=None) -> np.ndarray:
    """The row builder behind every seminorm table.

    row(i) returns the increments dY_{i, i+1..m-1}, shape (N, m-1-i, ...);
    the table is out[i, j] = ||dY_{i,j}||_{L^q(ensemble)} for i < j and zero
    elsewhere, with Euclidean magnitudes across the trailing axes.  Only the
    given `rows` are filled (all by default).  Built one row at a time, so
    memory stays at O(N * m) rather than O(N * m^2).
    """
    _check_table_size(m)
    out = np.zeros((m, m))
    for i in range(m - 1) if rows is None else rows:
        out[i, i + 1 :] = _lq_cells(row(i), q)
    return out


def _gram_table(block: np.ndarray):
    """The q = 2 table of an (N, m, d) block from one Gram product.

    Returns (table, rows the cancellation guard rejects), or None when the
    block, a Gram entry or a sum of two is not finite.
    """
    n_members, m, _ = block.shape
    _check_table_size(m)
    # one column per member and component, centred by its time-mean, which
    # leaves every increment as it is; a copy, so the centring never writes
    # through to the caller's values
    y = np.array(block.transpose(1, 0, 2), order="C").reshape(m, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        y -= y.mean(axis=0)
        g = y @ y.T
        diag = np.diag(g)
        both = diag[:, None] + diag[None, :]
        sq = both - 2.0 * g
    # a non-finite entry of the block makes its column, and so every cell,
    # NaN; a non-finite Gram entry or sum shows here too
    if not np.all(np.isfinite(sq)):
        return None
    lossy = np.triu(np.finfo(float).eps * both > _GRAM_RTOL * sq, 1).any(axis=1)
    out = np.triu(np.sqrt(np.maximum(sq, 0.0) / n_members), 1)
    return out, np.flatnonzero(lossy)


def lq_table(values: np.ndarray, q: float, s: int = 0, t: int | None = None) -> np.ndarray:
    """Two-parameter table F[u, v] = ||Y_v - Y_u||_{L^q} over the window [s, t].

    values: (N, n+1) or (N, n+1, d).  At q = 2 with N >= 2 the table comes
    from one Gram product (see the module docstring); the rows it cannot keep
    to `_GRAM_RTOL`, and every row of a non-finite block, come from the row
    builder, bitwise as `_magnitude_table` alone gives them.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        v = v[:, :, None]
    t = v.shape[1] - 1 if t is None else t
    block = v[:, s : t + 1, :]
    m = t - s + 1

    def row(i):
        return block[:, i + 1 :] - block[:, i : i + 1]

    # a single path keeps its exact differences (`grids.increment_table`)
    gram = _gram_table(block) if q == 2.0 and block.shape[0] >= 2 else None
    if gram is None:
        return _magnitude_table(row, m, q)
    out, lossy = gram
    out[lossy] = _magnitude_table(row, m, q, rows=lossy)[lossy]
    return out


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

"""Empirical L^q norms and V^p L^q-type seminorms over ensembles.

The seminorm of a process Y is the p-variation of the two-parameter table
F(s, t) = ||dY_{s,t}||_{L^q(ensemble)} over all grid points of its input;
the seminorm over a window [s, t] is that of the slice values[:, s:t+1].
Conditional variants (the V^p L^q[r] family with r > 1) are out of empirical
reach on a desk ensemble and are reduced to r = 1: conditional means are
approximated by unconditional ensemble means (for r = 1 the two families
coincide; r = infinity facts enter only through analytic closed forms such as
a stored Brownian bracket).  Every table cell comes from one reduction,
`_pair_cells`, over a chunk of grid-point pairs at once, and equals the cell
of a table built row by row bit for bit; `_pair_seminorm` feeds them to
`grids._pvar_dp` for every seminorm (and the solver's Picard update
distances).  There are two exceptions.  The stability remainder's table of
|means| is built from member-mean contractions in `rsde._remainder_table`,
since a mean, unlike an L^q norm, is linear.  The q = 2 table of an ensemble
(the sewing controls' table) is read by `lq_table` off one Gram product G
of the members' paths, each centred by its time-mean:
||dY_{i,j}||^2 = (G_ii + G_jj - 2 G_ij) / N.  That subtraction cancels where
an increment is small next to the paths' distance from their time-means, so
a row with a cell where eps (G_ii + G_jj) exceeds `_GRAM_RTOL` times
G_ii + G_jj - 2 G_ij is rebuilt from pair cells, and a block with a
non-finite entry or Gram entry is built from them throughout; the guard runs
by blocks of rows, so beside the product only a block's temporaries live.
Full O(n^2)
tables are only built for n <= 2048 as a memory guard.
"""
from __future__ import annotations

import numpy as np

from .grids import _pvar_dp, p_variation
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
# of G_ii + G_jj - 2 G_ij in every cell, else its pair cells rebuild it
_GRAM_RTOL = 1e-13


def lq_norm(samples: np.ndarray, q: float) -> float:
    """Empirical L^q norm over the member axis (axis 0).

    samples: (N, ...) — any trailing shape; magnitudes are Euclidean across
    the trailing axes.
    """
    if not q >= 1:
        raise ValueError(f"lq_norm needs q >= 1, got q={q}")
    return float(_lq_cells(np.asarray(samples, dtype=float), q, cell_axes=0))


def _lq_cells(increments: np.ndarray, q: float, cell_axes: int = 1):
    """||dY||_{L^q(ensemble)} of each cell of (N, *cells, ...) increments,
    with Euclidean magnitudes across the axes after the `cell_axes` cell
    axes: the one reduction behind every table cell, and `lq_norm` at
    cell_axes = 0.  Components are summed, and the member mean runs, on
    C-order memory, so a cell does not depend on the layout of the
    increments (a time-major or Fortran-ordered lift's columns give the
    member-major cells bit for bit).  One component is squared without a
    copy; the root, the power and the mean (a sum, then one division, as
    `np.mean` computes it) work in place."""
    flat = increments.reshape(increments.shape[: 1 + cell_axes] + (-1,))
    if flat.shape[-1] == 1:
        mags = np.square(flat[..., 0], order="C")
    else:
        flat = np.ascontiguousarray(flat)
        mags = np.einsum("...d,...d->...", flat, flat)
    np.sqrt(mags, out=mags)
    mags **= q
    mean = np.add.reduce(mags, axis=0)
    mean /= flat.shape[0]
    return mean ** (1.0 / q)


#: members x cells of one `_pair_cells` chunk, and of one slice of a
#: diagonal in `rsde._plan_windows` (64 KB of float64): on
#: 117-step windows (N = 128) one O(N m^2) array per update ran Picard at
#: half the speed of a row-by-row table, these chunks at its speed.  A chunk
#: stays under glibc's default 128 KB mmap threshold, so its arrays come
#: from the heap: at 128 KB each array was a fresh mapping, and the
#: `stability_base` run faulted in 22k pages instead of 0.5k
_PAIR_CELL_BUDGET = 2**13


def _check_args(fn: str, q: float, **exponents):
    """The public seminorms' one argument rule: q and every variation exponent
    >= 1, else one `ValueError` line."""
    low = {name: v for name, v in {**exponents, "q": q}.items() if not v >= 1}
    if low:
        got = ", ".join(f"{name}={v}" for name, v in low.items())
        raise ValueError(f"{fn} needs {' and '.join([*exponents, 'q'])} >= 1, got {got}")


def _column_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), 0 <= i < j < m, column by column (j ascending,
    then i), without the last pair (m-2, m-1): the cells `_pair_seminorm`
    reduces together.  They depend on m only, so a caller that measures many
    blocks of the same width builds them once."""
    _check_table_size(m)
    jj, ii = np.nonzero(np.tri(m, k=-1, dtype=bool))
    return ii[:-1], jj[:-1]


def _pair_cells(increments, n_members: int, q: float, ii, jj, t: int | None = None):
    """Cell k = ||dY_{ii[k], jj[k]}||_{L^q}, increments(i, j) giving the
    (N, K, ...) increments of K pairs, in chunks of `_PAIR_CELL_BUDGET`
    member-cells of at least two cells: numpy sums an (N, K >= 2) array
    member by member, as each row of two or more cells of a row-built table.
    With `t` the last pair (t-1, t) follows, alone on its (N, 1) array
    (index slices), which numpy sums pairwise, as the table's one-cell row.
    """
    cells = np.empty(ii.size + (t is not None))
    step = max(2, _PAIR_CELL_BUDGET // n_members)
    a = 0
    while a < ii.size:
        # the last chunk takes a lone leftover cell, so no chunk is (N, 1)
        b = ii.size if a + step >= ii.size - 1 else a + step
        cells[a:b] = _lq_cells(increments(ii[a:b], jj[a:b]), q)
        a = b
    if t is not None:
        cells[-1:] = _lq_cells(increments(slice(t - 1, t), slice(t, t + 1)), q)
    return cells


def _pair_seminorm(increments, n_members: int, t: int, p: float, q: float, pairs=None):
    """The V^p L^q seminorm over the grid points 0..t of increments(i, j)
    (see `_pair_cells`), bit for bit the p-variation of the row-built table:
    the cells of `pairs` = `_column_pairs(t + 1)`, then `grids._pvar_dp`
    over their columns (a NaN cell gives NaN)."""
    if t == 0:
        return 0.0
    ii, jj = _column_pairs(t + 1) if pairs is None else pairs
    powers = (_pair_cells(increments, n_members, q, ii, jj, t) ** p).tolist()
    # column j holds the pairs (0..j-1, j), from position j (j - 1) / 2 on
    columns = (powers[j * (j - 1) // 2 : j * (j + 1) // 2] for j in range(1, t + 1))
    *_, best = _pvar_dp(columns)
    return best ** (1.0 / p)


def _check_table_size(n_points: int):
    if n_points > MAX_TABLE_POINTS:
        raise ValueError(
            f"refusing to build an O(n^2) table for {n_points} grid points "
            f"(limit {MAX_TABLE_POINTS})"
        )


def _gram_table(block: np.ndarray):
    """The q = 2 table of an (N, m, d) block from one Gram product.

    Returns (table, rows the cancellation guard rejects), or None when the
    block, a Gram entry or a sum of two is not finite.
    """
    n_members, m, _ = block.shape
    # one column per member and component, centred by its time-mean, which
    # leaves every increment as it is; a copy, so the centring never writes
    # through to the caller's values, dropped after the product
    y = np.array(block.transpose(1, 0, 2), order="C").reshape(m, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        y -= y.mean(axis=0)
        sq = y @ y.T
    del y
    diag = sq.diagonal().copy()
    lossy = np.zeros(m, dtype=bool)
    cols = np.arange(m)
    step = max(1, _PAIR_CELL_BUDGET // m)
    # by blocks of rows, so that beside the table only a block's sums G_ii +
    # G_jj, guard products and masks are live; every step is elementwise, so
    # the blocks give the whole-table bits
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, m, step):
            rows = sq[a : a + step]
            both = diag[a : a + step, None] + diag[None, :]
            # in place: (-2 G) + both is both - 2 G bit for bit
            rows *= -2.0
            rows += both
            # a non-finite entry of the block makes its column, and so every
            # cell, NaN; a non-finite Gram entry or sum shows here too
            if not np.all(np.isfinite(rows)):
                return None
            both *= np.finfo(float).eps
            lossy[a : a + step] = np.triu(both > _GRAM_RTOL * rows, a + 1).any(axis=1)
            np.maximum(rows, 0.0, out=rows)
            rows /= n_members
            np.sqrt(rows, out=rows)
            # the strict upper triangle, as `np.triu(., 1)`
            rows[cols[None, :] <= cols[a : a + step, None]] = 0.0
    return sq, np.flatnonzero(lossy)


def lq_table(values: np.ndarray, q: float) -> np.ndarray:
    """Two-parameter table F[u, v] = ||Y_v - Y_u||_{L^q} over all grid points.

    values: (N, n+1) or (N, n+1, d), copied to C order if they are not (a
    Fortran-ordered d = 3 block sums its components in another order).  At
    q = 2 with N >= 2 the table comes from one Gram product (see the module
    docstring); all other cells from `_pair_cells`.
    """
    block = np.ascontiguousarray(values, dtype=float)
    if block.ndim == 2:
        block = block[:, :, None]
    _check_args("lq_table", q)
    m = block.shape[1]
    _check_table_size(m)
    # a single path keeps its exact differences: |x_v - x_u| from pair cells
    gram = _gram_table(block) if q == 2.0 and block.shape[0] >= 2 else None
    out, rows = (np.zeros((m, m)), np.arange(m - 1)) if gram is None else gram
    last = rows.size > 0 and rows[-1] == m - 2  # row m-2's one cell goes last
    at, jj = np.nonzero(np.arange(m) > rows[: rows.size - last, None])
    ii = rows[at]
    cells = _pair_cells(
        lambda i, j: block[:, j] - block[:, i], block.shape[0], q, ii, jj, m - 1 if last else None
    )
    out[ii, jj] = cells[: ii.size]
    if last:
        out[m - 2, m - 1] = cells[-1]
    return out


#: p-variation of a two-parameter magnitude table (e.g. remainder norms)
two_param_seminorm = p_variation


def vp_lq_seminorm(values: np.ndarray, p: float, q: float) -> float:
    """||Y||_{p,q}: p-variation of the L^q increment table, by `_pair_seminorm`
    (bit for bit the row-built table, at every q)."""
    v = np.ascontiguousarray(values, dtype=float)  # as in `lq_table`
    _check_args("vp_lq_seminorm", q, p=p)
    return _pair_seminorm(lambda i, j: v[:, j] - v[:, i], v.shape[0], v.shape[1] - 1, p, q)


def second_level_seminorm(lift: RoughLift, p: float, q: float = 2.0) -> float:
    """||XX||_{p/2, q}: (p/2)-variation of the second level's L^q table."""
    _check_args("second_level_seminorm", q, **{"p/2": p / 2.0})
    return _pair_seminorm(lift.second, lift.second_prefix.shape[0], lift.grid.n_steps, p / 2.0, q)


def rough_path_distance(a: RoughLift, b: RoughLift, p: float, q: float = 2.0) -> float:
    """Inhomogeneous distance of two lifts on one grid:
    ||X - Xtilde||_p + ||XX - XXtilde||_{p/2}."""
    if a.grid.n_steps != b.grid.n_steps or np.any(a.grid.times != b.grid.times):
        raise ValueError("lifts live on different grids")
    _check_args("rough_path_distance", q, **{"p/2": p / 2.0})
    first = vp_lq_seminorm(a.path.values - b.path.values, p, q)
    n_members = max(a.second_prefix.shape[0], b.second_prefix.shape[0])
    second = _pair_seminorm(
        lambda i, j: a.second(i, j) - b.second(i, j), n_members, a.grid.n_steps, p / 2.0, q
    )
    return first + second


def chen_residual(lift: RoughLift, s: int, u: int, t: int) -> float:
    """Relative Chen defect on the triple s <= u <= t.

    max over members of |XX_{s,t} - XX_{s,u} - XX_{u,t} - dX_{s,u} (x) dX_{u,t}|
    divided by (1 + |XX_{s,t}|), where |.| is the Frobenius norm.
    """
    n = lift.grid.n_steps
    if not 0 <= s <= u <= t <= n:
        raise ValueError(f"chen_residual needs 0 <= s <= u <= t <= {n}, got s={s}, u={u}, t={t}")
    x = lift.path.values
    dxsu = x[:, u, :] - x[:, s, :]
    dxut = x[:, t, :] - x[:, u, :]
    lhs = lift.second(s, t)
    rhs = lift.second(s, u) + lift.second(u, t) + np.einsum("nj,nk->njk", dxsu, dxut)
    defect = np.sqrt(np.sum((lhs - rhs) ** 2, axis=(-1, -2)))
    scale = 1.0 + np.sqrt(np.sum(lhs**2, axis=(-1, -2)))
    return float(np.max(defect / scale))

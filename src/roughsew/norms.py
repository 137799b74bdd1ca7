"""Empirical L^q norms and V^p L^q-type seminorms over ensembles.

The seminorm of a process Y is the p-variation of the two-parameter table
F(s, t) = ||dY_{s,t}||_{L^q(ensemble)} over all grid points of its input;
the seminorm over a window [s, t] is that of the slice values[:, s:t+1].
Conditional variants (the V^p L^q[r] family with r > 1) are out of empirical
reach on a desk ensemble and are reduced to r = 1: conditional means are
approximated by unconditional ensemble means (for r = 1 the two families
coincide; r = infinity facts enter only through analytic closed forms such as
a stored Brownian bracket).  Every table cell comes from one reduction,
`_pair_cells`, over a chunk of grid-point pairs at once, and equals
`lq_norm` of its increment bit for bit; `_pair_seminorm` feeds them to
`grids._pvar_dp` for every seminorm (and the solver's Picard update
distances).  A lift's `rough_path_distance` to itself is 0.0 without a
table when its arrays are finite.  There are two exceptions.  The
stability remainder's table of |means| is built from member-mean
contractions in `rsde._remainder_table`, since a mean, unlike an L^q norm,
is linear; a driver shared by the members enters after the member means
are taken.  And `_moment_table` reads the q = 2 table of an ensemble (the
sewing controls' table, through `lq_table`) and the q = 4 table of a
scalar ensemble (the stability first levels) off moments of the members'
paths y, each centred by its time-mean: N ||dY_{i,j}||^q = D_i + D_j + C_ij
with D_i = sum |y_i|^q over the members.  At q = 2, C_ij = -2 G_ij for the
Gram product G_ij = sum y_i . y_j; at q = 4, C_ij = 6 B_ij - 4 (A_ij +
A_ji) with A_ij = sum y_i y_j^3 and B_ij = sum y_i^2 y_j^2.  The sums
cancel where an increment is small next to the paths' distance from their
time-means, so one guard serves both q: a cell where eps (D_i + D_j)
exceeds `_MOMENT_RTOL[q]` times its sum is rebuilt from its pair cell, and
a table with a non-finite entry from pair cells throughout.  The guard runs
by blocks of rows, so beside the contraction only a block's temporaries
live.
Full O(n^2) tables are only built for n <= 2047 (`MAX_TABLE_POINTS` grid
points) as a memory guard.
"""
from __future__ import annotations

import numpy as np

from .conventions import outer_increment
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

# a moment cell is kept when eps (D_i + D_j) stays below this fraction of its
# q-th power sum, else its pair cell rebuilds it: the q = 4 sums lose up to 16
# times what the q = 2 sums lose
_MOMENT_RTOL = {2.0: 1e-13, 4.0: 1e-12 / 16}


def lq_norm(samples: np.ndarray, q: float) -> float:
    """Empirical L^q norm over the member axis (axis 0).

    samples: (N, ...) — any trailing shape; magnitudes are Euclidean across
    the trailing axes.
    """
    if not 1 <= q < np.inf:
        raise ValueError(f"lq_norm needs finite q >= 1, got q={q}")
    return float(_lq_cells(np.asarray(samples, dtype=float)[:, None], q)[0])


def _lq_cells(increments: np.ndarray, q: float):
    """||dY||_{L^q(ensemble)} of each cell of (N, K, ...) increments, with
    Euclidean magnitudes across the axes after the cell axis: the one
    reduction behind every table cell and `lq_norm`.  The squared magnitudes
    are laid out (K, N) in C order, components summed on C-order memory, so
    each cell's members are summed pairwise over a contiguous axis, alone or
    in a chunk, whatever the layout of the increments.  One component is
    squared without a copy; the root, the power and the mean (a sum, then
    one division, as `np.mean` computes it) work in place."""
    flat = increments.reshape(increments.shape[:2] + (-1,))
    if flat.shape[-1] == 1:
        mags = np.square(flat[..., 0].T, order="C")
    else:
        flat = np.ascontiguousarray(flat)
        mags = np.einsum("...d,...d->...", flat, flat).T.copy()
    np.sqrt(mags, out=mags)
    mags **= q
    mean = np.add.reduce(mags, axis=-1)
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
    finite and >= 1, else one `ValueError` line."""
    bad = {name: v for name, v in {**exponents, "q": q}.items() if not 1 <= v < np.inf}
    if bad:
        got = ", ".join(f"{name}={v}" for name, v in bad.items())
        raise ValueError(f"{fn} needs finite {' and '.join([*exponents, 'q'])} >= 1, got {got}")


def _column_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), 0 <= i < j < m, column by column (j ascending,
    then i): the cells `_pair_seminorm` reduces together.  They depend on m
    only, so a caller that measures many blocks of the same width builds
    them once."""
    _check_table_size(m)
    jj, ii = np.nonzero(np.tri(m, k=-1, dtype=bool))
    return ii, jj


def _pair_cells(increments, n_members: int, q: float, ii, jj):
    """Cell k = ||dY_{ii[k], jj[k]}||_{L^q}, increments(i, j) giving the
    (N, K, ...) increments of K pairs, in chunks of `_PAIR_CELL_BUDGET`
    member-cells."""
    cells = np.empty(ii.size)
    step = max(1, _PAIR_CELL_BUDGET // n_members)
    for a in range(0, ii.size, step):
        cells[a : a + step] = _lq_cells(increments(ii[a : a + step], jj[a : a + step]), q)
    return cells


def _pair_seminorm(increments, n_members: int, t: int, p: float, q: float, pairs=None):
    """The V^p L^q seminorm over the grid points 0..t of increments(i, j)
    (see `_pair_cells`): the cells of `pairs` = `_column_pairs(t + 1)`, then
    `grids._pvar_dp` over their columns (a NaN cell gives NaN)."""
    if t == 0:
        return 0.0
    ii, jj = _column_pairs(t + 1) if pairs is None else pairs
    powers = (_pair_cells(increments, n_members, q, ii, jj) ** p).tolist()
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


def _moment_table(values: np.ndarray, q: float):
    """The q = 2 or q = 4 table of an ensemble from member moments.

    values: (N, m) or (N, m, ...), with one component at q = 4.  Returns
    (table, (ii, jj)): the strict upper triangle, as `lq_table` fills it,
    and the cells the guard sent back to `_pair_cells`, all of them when a
    table entry is not finite.
    """
    block = np.ascontiguousarray(values, dtype=float)
    n_members, m = block.shape[:2]
    block = block.reshape(n_members, m, -1)
    _check_table_size(m)
    # each member centred by its time-mean, which leaves every increment as
    # it is; then N E|y_j - y_i|^q = D_i + D_j + C_ij with D_i = sum |y_i|^q
    # over the members
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 2.0:
            # one column per member and component, a copy, so the centring
            # never writes through to the caller's values, dropped after the
            # Gram product G: D = diag G and C = -2 G
            y = np.array(block.transpose(1, 0, 2), order="C").reshape(m, -1)
            y -= y.mean(axis=0)
            table = y @ y.T
            del y
            moments = table.diagonal().copy()
            table *= -2.0
        else:
            # D = S = sum y^4 and C = 6 B - 4 (A + A^T) with A_ij = sum
            # y_i y_j^3 and B_ij = sum y_i^2 y_j^2, each an `einsum` without
            # BLAS on C-order arrays; the cube overwrites the square once S
            # and B are taken, so beside the input at most two (N, m) arrays
            # are live
            y = block.reshape(n_members, m)
            y = y - y.mean(axis=1, keepdims=True)
            y2 = np.square(y)
            moments = np.einsum("ni,ni->i", y2, y2)
            table = np.einsum("ni,nj->ij", y2, y2)
            table *= 6.0
            y2 *= y
            cross = np.einsum("ni,nj->ij", y, y2)
            del y, y2
            cross += cross.T
            cross *= 4.0
            table -= cross
            del cross
        cols = np.arange(m)
        guarded = [(np.empty(0, np.intp),) * 2]
        step = max(1, _PAIR_CELL_BUDGET // m)
        # by blocks of rows, so that beside the table only a block's sums,
        # guard products and masks are live; every step is elementwise, so
        # the blocks give the whole-table bits
        for a in range(0, m, step):
            rows = table[a : a + step]
            both = moments[a : a + step, None] + moments[None, :]
            rows += both
            # a non-finite entry of the values makes its column, and so every
            # cell, NaN; a non-finite moment or sum shows here too
            if not np.all(np.isfinite(rows)):
                table.fill(0.0)
                guarded = [np.triu_indices(m, 1)]
                break
            # the sums cancel where an increment is small next to the values'
            # distance from their time-means; N tiny bounds what the products
            # lost to underflow, so an all-zero difference is guarded too
            both += n_members * np.finfo(float).tiny
            both *= np.finfo(float).eps
            bad = both > _MOMENT_RTOL[q] * rows
            # the strict upper triangle, as `np.triu(., 1)`
            lower = cols[None, :] <= cols[a : a + step, None]
            bad[lower] = False
            if bad.any():
                ii, jj = np.nonzero(bad)
                guarded.append((ii + a, jj))
            rows[lower] = 0.0
            rows /= n_members
            rows **= 1.0 / q
    ii, jj = (np.concatenate(k) for k in zip(*guarded))
    table[ii, jj] = _pair_cells(lambda i, j: block[:, j] - block[:, i], n_members, q, ii, jj)
    return table, (ii, jj)


def lq_table(values: np.ndarray, q: float) -> np.ndarray:
    """Two-parameter table F[u, v] = ||Y_v - Y_u||_{L^q} over all grid points.

    values: (N, n+1) or (N, n+1, d), copied to C order if they are not (a
    Fortran-ordered d = 3 block sums its components in another order).  At
    q = 2 with N >= 2 the table comes from `_moment_table` (see the module
    docstring); all other cells from `_pair_cells`.
    """
    block = np.ascontiguousarray(values, dtype=float)
    _check_args("lq_table", q)
    m = block.shape[1]
    _check_table_size(m)
    # a single path keeps its exact differences: |x_v - x_u| from pair cells
    if q == 2.0 and block.shape[0] >= 2:
        return _moment_table(block, q)[0]
    out = np.zeros((m, m))
    ii, jj = np.triu_indices(m, 1)
    out[ii, jj] = _pair_cells(lambda i, j: block[:, j] - block[:, i], block.shape[0], q, ii, jj)
    return out


#: p-variation of a two-parameter magnitude table (e.g. remainder norms)
two_param_seminorm = p_variation


def vp_lq_seminorm(values: np.ndarray, p: float, q: float) -> float:
    """||Y||_{p,q}: p-variation of the L^q increment table, by `_pair_seminorm`."""
    v = np.ascontiguousarray(values, dtype=float)  # as in `lq_table`
    _check_args("vp_lq_seminorm", q, p=p)
    return _pair_seminorm(lambda i, j: v[:, j] - v[:, i], v.shape[0], v.shape[1] - 1, p, q)


def second_level_seminorm(lift: RoughLift, p: float, q: float = 2.0) -> float:
    """||XX||_{p/2, q}: (p/2)-variation of the second level's L^q table."""
    _check_args("second_level_seminorm", q, **{"p/2": p / 2.0})
    return _pair_seminorm(lift.second, lift.second_prefix.shape[0], lift.grid.n_steps, p / 2.0, q)


def rough_path_distance(a: RoughLift, b: RoughLift, p: float, q: float = 2.0) -> float:
    """Inhomogeneous distance of two lifts on one grid:
    ||X - Xtilde||_p + ||XX - XXtilde||_{p/2}.

    A lift against itself (`b is a`) with finite arrays is 0.0 without a
    pair cell or a `second_prefix`: every increment difference is x - x = 0,
    which the pair cells also return unless the Chen prefix overflows.  A
    lift with a non-finite entry goes through the pair cells, so NaN stays
    NaN."""
    if a.grid.n_steps != b.grid.n_steps or np.any(a.grid.times != b.grid.times):
        raise ValueError("lifts live on different grids")
    _check_args("rough_path_distance", q, **{"p/2": p / 2.0})
    if b is a and all(np.isfinite(x).all() for x in (a.path.values, a.step_second, a.jump_second)):
        return 0.0
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
    rhs = lift.second(s, u) + lift.second(u, t) + outer_increment(dxsu, dxut)
    defect = np.sqrt(np.sum((lhs - rhs) ** 2, axis=(-1, -2)))
    scale = 1.0 + np.sqrt(np.sum(lhs**2, axis=(-1, -2)))
    return float(np.max(defect / scale))

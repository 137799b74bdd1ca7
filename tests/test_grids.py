"""Grids, partitions, p-variation, controls, and midpoint machinery."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsew.grids import (
    TIME_TOL,
    TimeGrid,
    alternating_midpoints,
    full_partition,
    insert_times,
    make_uniform_grid,
    p_variation,
    pvar_control,
    time_control,
)

from roughsew import grids
from oracles import (
    _pvar_dp_row,
    alternating_midpoints_undeduplicated,
    brute_force_p_variation,
    control_from_table,
    control_mass,
    halving_scan,
    increment_table_broadcast,
    pvar_dp_rows,
)


def test_uniform_grid_basics():
    g = make_uniform_grid(2.0, 8)
    assert g.n_steps == 8
    assert g.times[0] == 0.0
    assert g.times[-1] == 2.0
    assert np.all(np.diff(g.times) > 0)


def test_grid_rejects_unsorted_times():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.4, 1.0]))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.0, 0.5, np.inf]])
def test_grid_rejects_non_finite_times(times):
    # a NaN fails every order check, so these grids were accepted
    with pytest.raises(ValueError, match="grid times must be finite"):
        TimeGrid(np.array(times))
    with pytest.raises(ValueError, match="grid times must be finite"):
        make_uniform_grid(float("nan"), 4)


def test_insert_times_keeps_old_points_and_adds_new():
    g = make_uniform_grid(1.0, 4)
    g2 = insert_times(g, np.array([0.1, 0.625, 0.625]))
    for t in (*g.times, 0.1, 0.625):
        assert np.any(np.abs(g2.times - t) <= TIME_TOL)
    # duplicates collapse
    assert g2.n_steps == g.n_steps + 2


def test_insert_times_collapses_near_duplicates():
    g = make_uniform_grid(1.0, 4)
    near = [0.5 + 5e-13, 0.3, 0.3 + 4e-13, 0.3 - 4e-13, 5e-13, 1.0 - 5e-13]
    g2 = insert_times(g, np.array(near))
    # the smallest of the three points near 0.3 survives and the others
    # collapse onto it; 0.5 + 5e-13 collapses onto 0.5; times within TIME_TOL
    # of the endpoints are dropped
    assert np.array_equal(g2.times, np.array([0.0, 0.25, 0.3 - 4e-13, 0.5, 0.75, 1.0]))


def test_insert_times_keeps_the_earlier_of_two_near_times_and_the_columns_agree():
    g = make_uniform_grid(1.0, 4)
    # a time just before a base point replaces it: the earlier one is kept
    assert insert_times(g, np.array([0.5 - 5e-13])).times.tolist() == [
        0.0, 0.25, 0.4999999999995, 0.75, 1.0,
    ]
    # the simulators' column rule puts every time within TIME_TOL of its point
    extra = np.array([0.3, 0.3 + 0.6e-12, 0.3 + 1.2e-12, 0.75 - 5e-13, 1.0 - 5e-13])
    times = insert_times(g, extra).times
    assert times.tolist() == [0.0, 0.25, 0.3, 0.3 + 1.2e-12, 0.5, 0.75 - 5e-13, 1.0]
    col = np.searchsorted(times + TIME_TOL, extra, side="right")
    assert col.tolist() == [2, 2, 3, 5, 6]
    assert np.all(np.abs(times[col] - extra) <= TIME_TOL)


@pytest.mark.parametrize("size,high", [(0, 5), (1, 5), (50, 8), (400, 1000), (300, 2**40)])
def test_unique_equals_np_unique(size, high):
    rng = np.random.default_rng(size)
    for a in (rng.integers(-high, high, size=size), rng.integers(0, high, size=(size // 2, 2))):
        got, want = grids._unique(a), np.unique(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_full_partition_covers_the_grid():
    part = full_partition(make_uniform_grid(1.0, 10))
    assert part.indices.tolist() == list(range(11))


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------


def test_p_variation_two_point_table():
    # single increment: the p-variation is just its magnitude
    tab = increment_table_broadcast(np.array([0.0, 3.0]))
    assert p_variation(np.abs(tab), 2.0) == pytest.approx(3.0)


def test_p_variation_monotone_path_is_total_increment_for_p1():
    vals = np.array([0.0, 1.0, 2.5, 4.0])
    tab = np.abs(increment_table_broadcast(vals))
    assert p_variation(tab, 1.0) == pytest.approx(4.0)


def test_p_variation_matches_brute_force_on_zigzag():
    vals = np.array([0.0, 1.0, -1.0, 0.5, 0.0])
    tab = increment_table_broadcast(vals)
    for p in (1.0, 1.5, 2.0, 3.0):
        # the oracle returns the rooted value too; match it exactly
        assert p_variation(tab, p) == brute_force_p_variation(tab, p)


@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=2, max_size=8
    ),
    p=st.sampled_from([1.0, 1.3, 2.0, 2.7, 3.0]),
)
def test_p_variation_dynamic_program_equals_brute_force(vals, p):
    tab = increment_table_broadcast(np.asarray(vals))
    # the brute force is rooted as well and left-associates its sums, so the
    # dynamic program must reproduce it bit for bit
    assert p_variation(tab, p) == brute_force_p_variation(tab, p)


def test_p_variation_rejects_p_below_one():
    tab = np.zeros((3, 3))
    with pytest.raises(ValueError):
        p_variation(tab, 0.5)


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


def _superadditivity_violation(w, n: int) -> float:
    worst = 0.0
    for s in range(n + 1):
        for t in range(s + 1, n + 1):
            for u in range(s, t + 1):
                mass = control_mass(w, s, u) + control_mass(w, u, t) - control_mass(w, s, t)
                worst = max(worst, mass)
    return worst


def test_time_control_is_superadditive_and_additive():
    g = make_uniform_grid(1.5, 9)
    w = time_control(g)
    assert _superadditivity_violation(w, 9) <= 1e-15
    assert w(0, 9)[-1] == pytest.approx(1.5)
    assert w(4, 4).size == 0


def test_pvar_control_superadditive_on_random_table():
    rng = np.random.default_rng(5)
    vals = np.cumsum(rng.standard_normal(9))
    g = make_uniform_grid(1.0, 8)
    tab = np.abs(increment_table_broadcast(vals))
    w = pvar_control(tab, 2.0)
    assert _superadditivity_violation(w, 8) <= 1e-12
    # the control is the p-th power of the rooted p-variation
    assert w(0, 8)[-1] == pytest.approx(p_variation(tab, 2.0) ** 2.0)


def test_pvar_control_rows_equal_loop_oracle_bitwise():
    rng = np.random.default_rng(21)
    n = 14
    tab = increment_table_broadcast(np.cumsum(rng.standard_normal((n + 1, 2)), axis=0))
    for p in (1.0, 2.0, 2.5):
        want = pvar_dp_rows(tab, p)
        # t increasing rebuilds each start's cached DP; t decreasing reads it
        for order in (range(n + 1), range(n, -1, -1)):
            w = pvar_control(tab, p)
            for s in range(n + 1):
                for t in [u for u in order if u >= s]:
                    assert np.array_equal(w(s, t), want[s][1 : t - s + 1])
        assert p_variation(tab, p) == float(want[0][-1]) ** (1.0 / p)


def _dp_powers(rng, m, nan_column=None):
    """A random (m+1, m+1) power table with 0 and inf cells, and a NaN cell
    in column `nan_column` when given."""
    powers = rng.uniform(0.0, 2.0, (m + 1, m + 1))
    powers[rng.uniform(size=powers.shape) < 0.05] = 0.0
    powers[rng.uniform(size=powers.shape) < 0.002] = np.inf
    if nan_column is not None:
        powers[rng.integers(nan_column), nan_column] = np.nan
    return powers


def test_pvar_dp_equals_the_numpy_loop_oracle_bitwise():
    # the plain-float DP against the numpy end-point loop, NaN where np.max
    # gives NaN, and fed lazily: a caller that stops early, as the Picard
    # planner does, has built only the columns it read
    rng = np.random.default_rng(18)
    for m in [*range(1, 65), 256]:
        for nan_column in (None, 1, (m + 1) // 2):
            powers = _dp_powers(rng, m, nan_column)
            want = _pvar_dp_row(powers)
            got = [0.0, *grids._pvar_dp(powers[:u, u].tolist() for u in range(1, m + 1))]
            assert np.array(got).tobytes() == want.tobytes()
            if nan_column is not None:  # NaN from its column on
                assert np.isnan(want[nan_column:]).all() and not np.isnan(want[:nan_column]).any()
            fed = []
            columns = (fed.append(u) or powers[:u, u].tolist() for u in range(1, m + 1))
            stop = int(rng.integers(1, m + 1))
            got = [0.0, *itertools.islice(grids._pvar_dp(columns), stop)]
            assert fed == list(range(1, stop + 1))
            assert np.array(got).tobytes() == want[: stop + 1].tobytes()


@pytest.mark.parametrize("s, t", [(0, 9), (2, 7)])
def test_pvar_control_rows_stop_at_the_table(s, t):
    # a 5-point table: a row past it is short, so the window is refused
    w = pvar_control(increment_table_broadcast(np.arange(5.0)), 2.0)
    assert np.array_equal(w(s, t), w(s, 4))
    assert w(s, t).size == 4 - s
    with pytest.raises(ValueError, match="0 <= s <= t on the controls' grid"):
        alternating_midpoints([w], s, t, 3)


def test_pvar_control_rejects_p_below_one():
    tab = increment_table_broadcast(np.arange(5.0))
    with pytest.raises(ValueError, match="p must be >= 1"):
        pvar_control(tab, 0.5)


# ---------------------------------------------------------------------------
# alternating refinements
# ---------------------------------------------------------------------------


def _random_control(rng, grid):
    """A genuinely superadditive control from a random step mass vector."""
    masses = rng.uniform(0.05, 1.0, size=grid.n_steps)
    prefix = np.concatenate([[0.0], np.cumsum(masses)])
    tab = prefix[None, :] - prefix[:, None]
    tab = np.maximum(tab, 0.0) ** 1.5  # convex power of additive -> superadditive
    return control_from_table(grid, tab)


@pytest.mark.parametrize("n_controls", [2, 3])
def test_alternating_midpoints_halving_bound_exact(n_controls):
    """After every full cycle of N controls, each control's left-open mass over
    every interval of the new level has halved -- as an exact inequality."""
    rng = np.random.default_rng(100 + n_controls)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        g = make_uniform_grid(1.0, n)
        ws = [_random_control(rng, g) for _ in range(n_controls)]
        depth = 2 * n_controls
        levels = alternating_midpoints(ws, 0, n, depth)
        for h, pts in enumerate(levels):
            factor = 0.5 ** (h // n_controls)
            for w in ws:
                # left-open masses: w(a, b-) = w(a, b - 1) on the grid
                bound = factor * control_mass(w, 0, n - 1)
                for a, b in zip(pts[:-1], pts[1:]):
                    assert control_mass(w, a, b - 1) <= bound, (
                        f"halving bound violated at level {h} on [{a}, {b}] "
                        f"(trial {trial}, {n_controls} controls)"
                    )


def test_alternating_midpoints_match_halving_scan_bitwise():
    # every kind of control against the old scan on scalar oracle controls,
    # on windows starting inside the grid and deep enough to exhaust it
    rng = np.random.default_rng(17)
    n = 24
    g = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n))]))
    times = g.times
    tab = increment_table_broadcast(np.cumsum(rng.standard_normal((n + 1, 2)), axis=0))
    rough = rng.uniform(0.0, 1.0, (n + 1, n + 1))  # rows not monotone
    rough[3, 5:9] = 0.0
    rough[5, 20:] = np.nan  # a NaN mass: no first hit, the midpoint is b
    ticks = TimeGrid(np.arange(n + 1.0))  # integer masses: exact half-mass ties
    cases = [
        ([time_control(g)], [lambda a, u: times[u] - times[a]]),
        ([time_control(ticks)], [lambda a, u: float(u - a)]),
    ]
    for p in (1.0, 2.0, 2.5):
        rows = pvar_dp_rows(tab, p)
        cases.append(([pvar_control(tab, p)], [lambda a, u, r=rows: r[a][u - a]]))
    for t in (tab, rough):
        cases.append(([control_from_table(g, t)], [lambda a, u, t=t: t[a, u]]))
    cases.append(([c[0][0] for c in cases[:5]], [c[1][0] for c in cases[:5]]))
    for ws, scalar in cases:
        for s, t, depth in ((0, n, 6), (3, 19, 6), (5, 24, 12), (2, 3, 2), (7, 7, 1)):
            got = alternating_midpoints(ws, s, t, depth)
            want = halving_scan(scalar, s, t, depth)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    full = alternating_midpoints([time_control(g)], 3, 19, 12)[-1]
    assert full.tolist() == list(range(3, 20))


def test_alternating_midpoints_stay_linear_once_the_grid_is_full():
    # the partition fills the 16-step grid after a few levels; later levels
    # cost one midpoint per grid interval, not one per doubled working point
    rng = np.random.default_rng(5)
    g = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 16))]))
    tab = increment_table_broadcast(np.cumsum(rng.standard_normal((17, 2)), axis=0))
    ws = [time_control(g), pvar_control(tab, 2.0)]
    calls = []

    def counted(w):
        return lambda a, b: calls.append(b - a) or w(a, b)

    levels = alternating_midpoints([counted(w) for w in ws], 0, 16, 60)
    assert len(levels) == 61 and levels[-1].tolist() == list(range(17))
    assert len(calls) <= 60 * 16
    want = alternating_midpoints_undeduplicated(grids, ws, 0, 16, 8)
    for a, b in zip(levels[:9], want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_oracles_do_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(m.startswith(("roughsew", ".")) for m in imported), imported


@pytest.mark.parametrize("s, t", [(0, 9), (2, 5), (-2, 3), (3, 1)])
def test_alternating_midpoints_refuse_windows_off_the_grid(s, t):
    # a 4-step grid: the time control's rows stop at its end
    ws = [time_control(make_uniform_grid(1.0, 4))]
    with pytest.raises(ValueError, match="0 <= s <= t on the controls' grid"):
        alternating_midpoints(ws, s, t, 3)
    assert alternating_midpoints(ws, 1, 4, 3)[-1].tolist() == [1, 2, 3, 4]


def test_alternating_midpoints_levels_are_nested():
    g = make_uniform_grid(1.0, 32)
    w = time_control(g)
    levels = alternating_midpoints([w], 0, 32, 5)
    for prev, cur in zip(levels[:-1], levels[1:]):
        assert set(prev.tolist()) <= set(cur.tolist())
    assert levels[0].tolist() == [0, 32]

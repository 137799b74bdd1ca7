"""Grids, partitions, p-variation, controls, and midpoint machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughsew.grids import (
    ControlFn,
    TimeGrid,
    alternating_midpoints,
    control_from_table,
    full_partition,
    increment_table,
    insert_times,
    make_uniform_grid,
    p_variation,
    power_product_control,
    pvar_control,
    time_control,
)

from oracles import brute_force_p_variation, pvar_dp_rows


def test_uniform_grid_basics():
    g = make_uniform_grid(2.0, 8)
    assert g.n_steps == 8
    assert g.times[0] == 0.0
    assert g.times[-1] == 2.0
    assert np.all(np.diff(g.times) > 0)


def test_grid_rejects_unsorted_times():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.4, 1.0]))


def test_insert_times_keeps_old_points_and_adds_new():
    g = make_uniform_grid(1.0, 4)
    g2 = insert_times(g, np.array([0.1, 0.625, 0.625]))
    for t in g.times:
        assert g2.index_of(t) >= 0
    assert g2.index_of(0.1) >= 0
    assert g2.index_of(0.625) >= 0
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


def test_full_partition_covers_window():
    g = make_uniform_grid(1.0, 10)
    part = full_partition(g, 2, 7)
    assert part.indices[0] == 2
    assert part.indices[-1] == 7
    assert np.all(np.diff(part.indices) == 1)


def test_increment_table_magnitudes():
    vals = np.array([0.0, 1.0, -0.5, 2.0])
    tab = increment_table(vals)
    assert tab.shape == (4, 4)
    assert tab[0, 3] == pytest.approx(2.0)
    assert tab[1, 2] == pytest.approx(1.5)  # magnitude of -1.5
    assert np.all(np.diag(tab) == 0.0)
    assert np.allclose(tab, tab.T)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------


def test_p_variation_two_point_table():
    # single increment: the p-variation is just its magnitude
    tab = increment_table(np.array([0.0, 3.0]))
    assert p_variation(np.abs(tab), 2.0) == pytest.approx(3.0)


def test_p_variation_monotone_path_is_total_increment_for_p1():
    vals = np.array([0.0, 1.0, 2.5, 4.0])
    tab = np.abs(increment_table(vals))
    assert p_variation(tab, 1.0) == pytest.approx(4.0)


def test_p_variation_matches_brute_force_on_zigzag():
    vals = np.array([0.0, 1.0, -1.0, 0.5, 0.0])
    tab = increment_table(vals)
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
    tab = increment_table(np.asarray(vals))
    # the brute force is rooted as well and left-associates its sums, so the
    # dynamic program must reproduce it bit for bit
    assert p_variation(tab, p) == brute_force_p_variation(tab, p)


def test_p_variation_rejects_p_below_one():
    tab = np.zeros((3, 3))
    with pytest.raises(ValueError):
        p_variation(tab, 0.5)


def test_p_variation_window_restriction():
    vals = np.array([0.0, 2.0, 2.0, 5.0])
    tab = np.abs(increment_table(vals))
    assert p_variation(tab, 1.0, s=1, t=2) == pytest.approx(0.0)
    assert p_variation(tab, 1.0, s=1, t=3) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


def _superadditivity_violation(w: ControlFn, n: int) -> float:
    worst = 0.0
    for s in range(n + 1):
        for t in range(s + 1, n + 1):
            for u in range(s, t + 1):
                worst = max(worst, w(s, u) + w(u, t) - w(s, t))
    return worst


def test_time_control_is_superadditive_and_additive():
    g = make_uniform_grid(1.5, 9)
    w = time_control(g)
    assert _superadditivity_violation(w, 9) <= 1e-15
    assert w(0, 9) == pytest.approx(1.5)
    assert w(4, 4) == 0.0


def test_pvar_control_superadditive_on_random_table():
    rng = np.random.default_rng(5)
    vals = np.cumsum(rng.standard_normal(9))
    g = make_uniform_grid(1.0, 8)
    tab = np.abs(increment_table(vals))
    w = pvar_control(g, tab, 2.0)
    assert _superadditivity_violation(w, 8) <= 1e-12
    # the control is the p-th power of the rooted p-variation
    assert w(0, 8) == pytest.approx(p_variation(tab, 2.0) ** 2.0)


def test_pvar_control_rows_equal_loop_oracle_bitwise():
    rng = np.random.default_rng(21)
    n = 14
    g = make_uniform_grid(1.0, n)
    tab = increment_table(np.cumsum(rng.standard_normal((n + 1, 2)), axis=0))
    for p in (1.0, 2.0, 2.5):
        w = pvar_control(g, tab, p)
        for s, want in enumerate(pvar_dp_rows(tab, p)):
            got = np.array([w.fn(s, t) for t in range(s, n + 1)])
            assert np.array_equal(got, want)
        assert p_variation(tab, p) == float(pvar_dp_rows(tab, p)[0][-1]) ** (1.0 / p)


def test_power_product_control_validates_exponents():
    g = make_uniform_grid(1.0, 4)
    w = time_control(g)
    with pytest.raises(ValueError):
        power_product_control(w, 0.3, w, 0.3)
    combined = power_product_control(w, 0.5, w, 0.5)
    assert combined(0, 4) == pytest.approx(w(0, 4))


def test_control_left_evaluation():
    g = make_uniform_grid(1.0, 4)
    w = time_control(g)
    assert w.left(0, 4) == pytest.approx(w(0, 3))
    assert w.left(2, 3) == 0.0
    assert w.left(2, 2) == 0.0


# ---------------------------------------------------------------------------
# alternating refinements
# ---------------------------------------------------------------------------


def _random_control(rng, grid):
    """A genuinely superadditive control from a random step mass vector."""
    masses = rng.uniform(0.05, 1.0, size=grid.n_steps)
    prefix = np.concatenate([[0.0], np.cumsum(masses)])
    tab = prefix[None, :] - prefix[:, None]
    tab = np.maximum(tab, 0.0) ** 1.5  # convex power of additive -> superadditive
    return control_from_table(grid, tab, name="random")


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
                bound = factor * w.left(0, n)
                for a, b in zip(pts[:-1], pts[1:]):
                    assert w.left(int(a), int(b)) <= bound, (
                        f"halving bound violated at level {h} on [{a}, {b}] "
                        f"(trial {trial}, {n_controls} controls)"
                    )


def test_alternating_midpoints_levels_are_nested():
    g = make_uniform_grid(1.0, 32)
    w = time_control(g)
    levels = alternating_midpoints([w], 0, 32, 5)
    for prev, cur in zip(levels[:-1], levels[1:]):
        assert set(prev.tolist()) <= set(cur.tolist())
    assert levels[0].tolist() == [0, 32]

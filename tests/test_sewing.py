"""The sewing engine: germs, partition limits, diagnostics."""

import numpy as np
import pytest

from roughsew.grids import Partition, full_partition, make_uniform_grid, time_control
from roughsew.paths import ito_lift_brownian, simulate_brownian, simulate_compound_poisson
from roughsew.rng import stream
from roughsew.sewing import (
    Germ,
    convergence_rate,
    delta_germ,
    increment_germ,
    ito_germ,
    log2_fit,
    qv_germ,
    riemann_path,
    riemann_sum,
    rough_germ,
    sew,
    truncate_context,
    young_germ,
)
from roughsew.scenarios import _fit_log2_slope


def _random_partition(rng, n):
    interior = np.unique(rng.integers(1, n, size=rng.integers(0, n)))
    return np.concatenate([[0], interior, [n]]).astype(np.int64)


def test_delta_germ_vanishes_for_additive_germ():
    bm = simulate_brownian(1.0, 32, seed=1, n_members=4)
    germ = increment_germ(bm.values[..., 0])
    worst = 0.0
    for (s, u, t) in [(0, 10, 32), (3, 4, 5), (0, 16, 31)]:
        worst = max(worst, float(np.max(np.abs(delta_germ(germ, s, u, t)))))
    assert worst <= 1e-12


def test_increment_germ_sums_are_partition_independent():
    bm = simulate_brownian(1.0, 64, seed=2, n_members=8)
    germ = increment_germ(bm.values[..., 0])
    grid = bm.grid
    ref = riemann_sum(germ, full_partition(grid))
    rng = stream(3, "partitions")
    for _ in range(25):
        part = Partition(grid, _random_partition(rng, 64))
        got = riemann_sum(germ, part)
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_riemann_path_endpoints_and_cumulative_structure():
    bm = simulate_brownian(1.0, 16, seed=5, n_members=3)
    germ = ito_germ(bm.values, bm.values)
    part = full_partition(bm.grid)
    path = riemann_path(germ, part)
    assert path.shape == (3, 17)
    assert np.all(path[:, 0] == 0.0)
    # terminal entry equals the plain Riemann sum
    assert np.allclose(path[:, -1], riemann_sum(germ, part))


def test_sew_ito_germ_converges():
    bm = simulate_brownian(1.0, 128, seed=7, n_members=64)
    germ = ito_germ(bm.values, bm.values)
    out = sew(germ, bm.grid, tol=1e-3)
    assert out.converged
    assert out.warning is None
    assert out.value.shape == (64,)
    # distances to the full-grid limit shrink
    assert out.distances[-1] < out.distances[0]


def test_sew_flags_germ_that_fails_to_sew():
    # |dB| has divergent refinement sums: the per-level gap grows, which the
    # engine reports as a warning instead of silently returning garbage
    bm = simulate_brownian(1.0, 256, seed=11, n_members=16)
    m = bm.values[..., 0]
    germ = Germ("abs-increment", lambda c, s, t: np.abs(c["m"][:, t] - c["m"][:, s]), {"m": m}, ("m",))
    with pytest.warns(UserWarning):
        out = sew(germ, bm.grid, tol=1e-12)
    assert not out.converged
    assert out.warning is not None


def test_sew_respects_supplied_controls():
    bm = simulate_brownian(1.0, 64, seed=13, n_members=8)
    germ = ito_germ(bm.values, bm.values)
    out = sew(germ, bm.grid, controls=[time_control(bm.grid)], tol=1e-4)
    assert out.converged
    # with the time control alone, every level is a dyadic refinement
    assert out.partitions[1].indices.tolist() == [0, 32, 64]


def test_convergence_rate_ito_germ_decays():
    bm = simulate_brownian(1.0, 256, seed=17, n_members=256)
    germ = ito_germ(bm.values, bm.values)
    report = convergence_rate(germ, bm.grid, depth=6)
    assert report.slope < -0.2
    assert report.distances.shape[0] == report.levels.shape[0]


def test_nan_level_fails_both_rate_fits():
    # at sizes 1, 2, 4, 8 the finite levels alone fit slope -1 and would pass
    # a rate gate; a NaN level must make the fitted slope NaN instead
    errors = [np.nan, 0.1, 0.05, 0.025]
    assert np.isnan(_fit_log2_slope([1, 2, 4, 8], errors))
    slope, intercept = log2_fit(np.arange(4), errors)
    assert np.isnan(slope) and np.isnan(intercept)

    bm = simulate_brownian(1.0, 64, seed=29, n_members=32)
    ito = ito_germ(bm.values, bm.values)
    # NaN on the level-0 window only; finer levels decay as for the Ito germ
    nan_at_top = Germ(
        "nan-top",
        lambda c, s, t: ito.fn(c, s, t) * (np.nan if (s, t) == (0, 64) else 1.0),
        ito.context,
        ito.control_keys,
    )
    report = convergence_rate(nan_at_top, bm.grid, depth=5)
    assert np.isnan(report.distances[0])
    assert np.isnan(report.slope) and not report.slope < -0.2


def test_log2_fit_zero_levels():
    assert log2_fit([0, 1, 2], [0.0, 0.0, 0.0]) == (float("-inf"), float("-inf"))
    assert log2_fit([0, 1, 2], [0.5, 0.0, 0.0]) == (0.0, -1.0)
    slope, _ = log2_fit([0, 1, 2, 3], [0.5, 0.25, 0.0, 0.0625])
    assert slope == pytest.approx(-1.0)
    assert _fit_log2_slope([2, 4, 8], [0.0, 0.0, 0.0]) == float("-inf")


def test_rough_germ_partition_independence():
    # X_s dX + XX over any partition telescopes to the same window value
    bm = simulate_brownian(1.0, 128, seed=19, n_members=4)
    lift = ito_lift_brownian(bm)
    y = bm.values[..., 0]
    germ = rough_germ(y, np.ones_like(y), bm.values[..., 0], lift.second_prefix)
    ref = riemann_sum(germ, full_partition(bm.grid))
    rng = stream(23, "rough-partitions")
    for _ in range(25):
        part = Partition(bm.grid, _random_partition(rng, 128))
        got = riemann_sum(germ, part)
        assert np.max(np.abs(got - ref)) <= 1e-10


def test_qv_germ_full_grid_sum_is_quadratic_variation():
    res = simulate_compound_poisson(1.0, 5.0, 32, seed=29, n_members=8)
    m = res.martingale.values[..., 0]
    germ = qv_germ(m)
    total = riemann_sum(germ, full_partition(res.path.grid))
    dm = np.diff(m, axis=1)
    assert np.allclose(total, np.sum(dm**2, axis=1), atol=1e-14)


def test_qv_germ_compensated_is_centered():
    bm = simulate_brownian(1.0, 64, seed=31, n_members=5000)
    germ = qv_germ(bm.values, bracket=bm.bracket[..., 0, 0])
    total = riemann_sum(germ, full_partition(bm.grid))
    se = total.std(ddof=1) / np.sqrt(total.shape[0])
    assert abs(total.mean()) < 3 * se


def test_young_germ_left_point_sum():
    # integrate Y against a staircase: only the jump column contributes
    grid = make_uniform_grid(1.0, 4)
    y = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    a = np.array([[0.0, 0.0, 1.0, 1.0, 1.0]])
    germ = young_germ(y, a)
    total = riemann_sum(germ, full_partition(grid))
    assert total[0] == pytest.approx(2.0)  # Y at the left of the moving step


def test_truncate_context_is_prefix_restriction():
    bm = simulate_brownian(1.0, 16, seed=37, n_members=2)
    germ = ito_germ(bm.values, bm.values)
    cut = truncate_context(germ.context, 8)
    assert cut["y"].shape[1] == 9
    # germ values on the truncated window agree with the full context
    assert np.array_equal(germ(2, 7, cut), germ(2, 7))

"""The sewing engine: germs, partition limits, diagnostics."""

import tracemalloc

import numpy as np
import pytest

from roughsew.grids import (
    Partition,
    TimeGrid,
    alternating_midpoints,
    full_partition,
    make_uniform_grid,
)
from roughsew.paths import ito_lift_brownian, simulate_brownian, simulate_compound_poisson
from roughsew import cli, norms, sewing
from roughsew.rng import stream
from roughsew.sewing import (
    Germ,
    convergence_rate,
    default_controls,
    increment_germ,
    ito_germ,
    log2_fit,
    qv_germ,
    riemann_path,
    riemann_sum,
    rough_germ,
    step_path,
)
from roughsew.scenarios import _fit_log2_slope, default_config, run_scenario

from oracles import (
    ols_slope,
    refinement_walk,
    riemann_path_loop,
    riemann_sum_loop,
    uniform_lq_distance,
)


def _random_partition(rng, n):
    interior = np.unique(rng.integers(1, n, size=rng.integers(0, n)))
    return np.concatenate([[0], interior, [n]]).astype(np.int64)


def test_delta_germ_vanishes_for_additive_germ():
    bm = simulate_brownian(1.0, 32, seed=1, n_members=4)
    germ = increment_germ(bm.values[..., 0])
    s, u, t = np.array([0, 3, 0]), np.array([10, 4, 16]), np.array([32, 5, 31])
    # the coboundary Xi_{s,t} - Xi_{s,u} - Xi_{u,t}
    delta = germ(s, t) - germ(s, u) - germ(u, t)
    assert np.max(np.abs(delta)) <= 1e-12


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


def _oracle_germs(n_members, stride=1):
    # stride 2 reads every input as a strided view, as `_subsampled_brownian` does
    bm = simulate_brownian(1.0, 48, seed=41, n_members=n_members)
    lift = ito_lift_brownian(bm, seed=41)
    x, br = bm.values[:, ::stride], bm.bracket[:, ::stride]
    b = x[..., 0]
    yp = np.cos(b)
    return TimeGrid(bm.grid.times[::stride]), {
        "increment": increment_germ(b),
        "ito": ito_germ(np.sin(b), x),
        "qv": qv_germ(x, bracket=br),
        "qv_plain": qv_germ(x),
        "rough": rough_germ(np.sin(b), yp, x, lift.second_prefix[:, ::stride]),
        # a Young (Stieltjes) sum: the Ito germ against the bracket (1, n+1, 1, 1)
        "young": ito_germ(b, br),
    }


@pytest.mark.parametrize("n_members", [1, 5])
@pytest.mark.parametrize("name", ["increment", "ito", "qv", "rough", "young"])
def test_riemann_path_and_sum_match_interval_loop(name, n_members):
    grid, germs = _oracle_germs(n_members)
    germ = germs[name]
    rng = stream(43, "oracle-partitions", n_members)
    parts = [np.arange(49), np.array([0, 48]), np.array([5, 6]), np.array([7, 20, 21, 40])]
    parts += [_random_partition(rng, 48) for _ in range(4)]
    for _ in range(4):  # windows that start and end inside the grid
        s, e = np.sort(rng.choice(np.arange(1, 48), size=2, replace=False))
        interior = np.unique(rng.integers(s + 1, e, size=rng.integers(0, e - s)))
        parts.append(np.concatenate([[s], interior, [e]]).astype(np.int64))
    for idx in parts:
        part = Partition(grid, idx)
        assert np.array_equal(riemann_path(germ, part), riemann_path_loop(germ, idx))
        assert np.array_equal(riemann_sum(germ, part), riemann_sum_loop(germ, idx))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("name", ["increment", "ito", "qv", "qv_plain", "rough", "young"])
def test_step_path_matches_full_riemann_path_and_loop(name, stride):
    grid, germs = _oracle_germs(5, stride)
    germ = germs[name]
    got = step_path(germ, grid)
    assert got.shape[1] == grid.n_steps + 1 and np.all(got[:, 0] == 0.0)
    assert np.array_equal(got, riemann_path(germ, full_partition(grid)))
    assert np.array_equal(got, riemann_path_loop(germ, np.arange(grid.n_steps + 1)))


def test_default_controls_share_one_control_per_input_array():
    bm = simulate_brownian(1.0, 16, seed=13, n_members=8)
    b = bm.values[..., 0]
    controls = default_controls(ito_germ(b, b), bm.grid)
    assert len(controls) == 3 and controls[1] is controls[2]
    apart = default_controls(ito_germ(b, b.copy()), bm.grid)
    assert apart[1] is not apart[2]
    assert np.array_equal(apart[1](0, 16), controls[2](0, 16))


def test_sewing_rate_builds_two_gram_tables(monkeypatch):
    # B's table once, for the ito walk's controls and the qv walk's, then
    # the integer walk's
    shapes = []
    real = norms._moment_table
    monkeypatch.setattr(
        norms, "_moment_table", lambda block, q: shapes.append((block.shape, q)) or real(block, q)
    )
    run_scenario(default_config("sewing_rate"))
    assert shapes == [((2000, 513), 2.0), ((256, 513), 2.0)]


@pytest.mark.parametrize("seed", [7, 11])
def test_ito_controls_start_with_the_qv_default_controls(seed):
    # [time, w_B] of the ito germ against the qv germ's own defaults, over
    # every row the two walks read, after the ito walk has grown w_B's rows
    bm = simulate_brownian(1.0, 128, seed, n_members=64)
    b = bm.values[..., 0]
    controls = default_controls(ito_germ(b, b), bm.grid)
    own = default_controls(qv_germ(b, bracket=bm.bracket[..., 0, 0]), bm.grid)
    reads = []

    def recorded(i, w):
        return lambda a, c: reads.append((i, a, c)) or w(a, c)

    alternating_midpoints([recorded(i, w) for i, w in enumerate(controls)], 0, 128, 8)
    levels = alternating_midpoints([recorded(i, w) for i, w in enumerate(controls[:2])], 0, 128, 8)
    for got, want in zip(levels, alternating_midpoints(own, 0, 128, 8)):
        assert np.array_equal(got, want)
    assert {i for i, _, _ in reads} == {0, 1, 2}
    for i, a, c in reads:
        if i < 2:
            assert controls[i](a, c).tobytes() == own[i](a, c).tobytes()


@pytest.mark.parametrize("seed", [7, 11])
def test_sewing_rate_csv_is_the_own_controls_csv_byte_for_byte(monkeypatch, tmp_path, seed):
    cfg = default_config(
        "sewing_rate", n=64, ensemble=48, seed=seed, params={"depth": 6, "partitions": 5}
    )
    cli._write_rows(tmp_path / "shared.csv", run_scenario(cfg))
    # each walk on its germ's own default controls
    real = sewing.convergence_rate
    monkeypatch.setattr(
        sewing, "convergence_rate", lambda germ, grid, controls=None, **kw: real(germ, grid, **kw)
    )
    cli._write_rows(tmp_path / "own.csv", run_scenario(cfg))
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


def test_convergence_rate_ito_germ_decays():
    bm = simulate_brownian(1.0, 256, seed=17, n_members=256)
    germ = ito_germ(bm.values, bm.values)
    report = convergence_rate(germ, bm.grid, depth=6)
    assert report.slope < -0.2
    assert report.distances.shape[0] == report.levels.shape[0]


@pytest.mark.parametrize("seed", [7, 11])
def test_convergence_rate_tells_a_non_sewing_germ_apart(seed):
    # |dB| has no sewn limit: its sums grow under refinement, so the distance
    # to the full-grid sum barely falls over three levels, where the Ito
    # germ's falls about fourfold
    bm = simulate_brownian(1.0, 256, seed=seed, n_members=16)
    m = bm.values[..., 0]
    absolute = Germ(lambda c, s, t: np.abs(c["m"][:, t] - c["m"][:, s]), {"m": m}, ("m",))
    bad = convergence_rate(absolute, bm.grid, depth=7).distances
    good = convergence_rate(ito_germ(bm.values, bm.values), bm.grid, depth=7).distances
    assert bad[3] / bad[0] > 0.8
    assert good[3] / good[0] < 0.4


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
        lambda c, s, t: ito.fn(c, s, t) * np.where((s == 0) & (t == 64), np.nan, 1.0),
        ito.context,
        ito.control_keys,
    )
    report = convergence_rate(nan_at_top, bm.grid, depth=5)
    assert np.isnan(report.distances[0])
    assert np.isnan(report.slope) and not report.slope < -0.2


def _walk_germs(n_members):
    bm = simulate_brownian(1.0, 48, seed=47, n_members=n_members)
    lift = ito_lift_brownian(bm, seed=47)
    b = bm.values[..., 0]
    shared = np.cos(bm.grid.times)[None, :]  # one (1, n+1) row for every member
    return bm.grid, {
        "increment": increment_germ(b),
        "ito": ito_germ(np.sin(b), bm.values),
        "qv": qv_germ(bm.values, bracket=bm.bracket),
        "rough": rough_germ(np.sin(b), shared, bm.values, lift.second_prefix),
    }


def _walk_sizes():
    rows = sewing._BLOCK_CELLS // 49  # block rows of a scalar germ on 48 steps
    return {"one": 1, "rows-1": rows - 1, "rows+1": rows + 1, "ragged": 2 * rows + rows // 3}


def _oracle_distances(germ, grid, depth):
    full, walk = refinement_walk(sewing, germ, grid, None, depth)
    return np.array([uniform_lq_distance(full, path, 2.0) for _, path in walk])


@pytest.mark.parametrize("size", ["one", "rows-1", "rows+1", "ragged"])
def test_blocked_walk_matches_the_whole_ensemble_walk_bitwise(size):
    n_members = _walk_sizes()[size]
    grid, germs = _walk_germs(n_members)
    for name, germ in germs.items():
        got = convergence_rate(germ, grid, depth=7).distances
        assert got.tobytes() == _oracle_distances(germ, grid, 7).tobytes(), name


def _vector_germ(ito):
    """(Y_s dM_{s,t}, (dM_{s,t})^2) on the context of an ito germ: (N, m, 2)."""

    def fn(c, s, t):
        dm = c["m"][:, t] - c["m"][:, s]
        return np.stack([c["y"][:, s] * dm, dm * dm], axis=-1)

    return Germ(fn, ito.context, ito.control_keys)


@pytest.mark.parametrize("size", ["one", "rows-1", "rows+1", "ragged"])
def test_blocked_walk_matches_the_whole_ensemble_walk_on_a_vector_germ(size):
    grid, germs = _walk_germs(_walk_sizes()[size])
    germ = _vector_germ(germs["ito"])
    assert germ(np.array([0, 3]), np.array([5, 9])).shape[1:] == (2, 2)
    got = convergence_rate(germ, grid, depth=7).distances
    assert got.tobytes() == _oracle_distances(germ, grid, 7).tobytes()


def test_walk_peak_memory_is_below_one_whole_ensemble_path():
    # twelve member blocks: the walk holds one block's arrays and the
    # (levels, N) sups, never an (N, n+1) path
    n_members = 12 * (_walk_sizes()["rows+1"] - 1)
    grid, germs = _walk_germs(n_members)
    whole = n_members * (grid.n_steps + 1) * 8
    for name, germ in germs.items():
        controls = default_controls(germ, grid)
        tracemalloc.start()
        try:
            convergence_rate(germ, grid, controls, depth=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole, name


def test_walk_calls_the_germ_once_per_member_block():
    rows = _walk_sizes()["rows+1"] - 1
    grid, germs = _walk_germs(rows + 1)
    ito, calls = germs["ito"], []

    def spy(c, s, t):
        calls.append((c["y"].shape[0], "limit" if isinstance(s, slice) else "level"))
        return ito.fn(c, s, t)

    convergence_rate(Germ(spy, ito.context, ito.control_keys), grid, depth=2)
    # each block's full-grid path, then its three levels, one block at a time
    block = lambda r: [(r, "limit")] + [(r, "level")] * 3
    assert calls == block(rows) + block(1)


@pytest.mark.parametrize("size", ["one", "rows+1"])
def test_blocked_walk_keeps_a_nan_level(size):
    grid, germs = _walk_germs(_walk_sizes()[size])
    ito = germs["ito"]
    nan_at_top = Germ(
        lambda c, s, t: ito.fn(c, s, t) * np.where((s == 0) & (t == 48), np.nan, 1.0),
        ito.context,
        ito.control_keys,
    )
    report = convergence_rate(nan_at_top, grid, depth=5)
    assert report.distances.tobytes() == _oracle_distances(nan_at_top, grid, 5).tobytes()
    assert np.isnan(report.distances[0]) and np.all(np.isfinite(report.distances[1:]))
    assert np.isnan(report.slope)


def test_log2_fit_zero_levels():
    assert log2_fit([0, 1, 2], [0.0, 0.0, 0.0]) == (float("-inf"), float("-inf"))
    assert log2_fit([0, 1, 2], [0.5, 0.0, 0.0]) == (0.0, -1.0)
    slope, _ = log2_fit([0, 1, 2, 3], [0.5, 0.25, 0.0, 0.0625])
    assert slope == pytest.approx(-1.0)
    assert _fit_log2_slope([2, 4, 8], [0.0, 0.0, 0.0]) == float("-inf")


@pytest.mark.parametrize("seed", range(6))
def test_log2_fit_slope_matches_the_ols_oracle_over_positive_errors(seed):
    # the rate gates fit noisy errors, some of them exact zeros (levels
    # whose germs telescope); the fit is the OLS line over the rest
    rng = np.random.default_rng(seed)
    x = np.arange(3.0, 3.0 + rng.integers(4, 12))  # log2 of grid sizes 8, 16, ...
    errors = 2.0 ** (-0.8 * x + rng.normal(0.0, 0.5, x.size))
    errors[rng.choice(x.size, size=rng.integers(1, x.size - 1), replace=False)] = 0.0
    pos = errors > 0
    slope, _ = log2_fit(x, errors)
    assert slope == pytest.approx(ols_slope(x[pos], np.log2(errors[pos])), rel=1e-12, abs=0)


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


def test_ito_germ_left_point_sum_against_a_bracket():
    # integrate Y against a bracket-shaped staircase: only the jump column
    # contributes
    grid = make_uniform_grid(1.0, 4)
    y = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    a = np.array([[0.0, 0.0, 1.0, 1.0, 1.0]])[..., None, None]
    germ = ito_germ(y, a)
    total = riemann_sum(germ, full_partition(grid))
    assert total[0] == pytest.approx(2.0)  # Y at the left of the moving step


def test_germ_builders_refuse_non_scalar_inputs():
    # the Ito germ's shapes are checked through `young_integrate`
    bm = simulate_brownian(1.0, 8, seed=3, n_members=2, dim=2)
    y = bm.values[..., 0]
    with pytest.raises(ValueError, match="values must be scalar"):
        qv_germ(bm.values)
    with pytest.raises(ValueError, match="bracket must be scalar"):
        qv_germ(y, bracket=bm.bracket)
    with pytest.raises(ValueError, match="x_values must be scalar"):
        rough_germ(y, y, bm.values, ito_lift_brownian(bm).second_prefix)


def test_builtin_germs_are_adapted():
    # a germ built on its input arrays cut after index t gives the same value
    # on every window ending at or before t
    bm = simulate_brownian(1.0, 16, seed=37, n_members=3)
    lift = ito_lift_brownian(bm)
    y, x, br = bm.values[..., 0] ** 2, bm.values, bm.bracket
    builders = {
        "increment": lambda k: increment_germ(x[:, :k]),
        "ito": lambda k: ito_germ(y[:, :k], x[:, :k]),
        "rough": lambda k: rough_germ(y[:, :k], 2.0 * y[:, :k], x[:, :k],
                                      lift.second_prefix[:, :k]),
        "qv": lambda k: qv_germ(x[:, :k]),
        "qv_compensated": lambda k: qv_germ(x[:, :k], br[:, :k]),
        "young": lambda k: ito_germ(y[:, :k], br[:, :k]),
    }
    n = bm.grid.n_steps
    for name, build in builders.items():
        full = build(n + 1)
        for t in (0, 5, 11):
            s_idx, t_idx = np.triu_indices(t + 1)
            cut = build(t + 1)
            assert np.array_equal(cut(s_idx, t_idx), full(s_idx, t_idx)), (name, t)

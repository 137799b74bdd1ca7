"""Drivers: simulators, rough-path lifts, and their structural identities."""

import tracemalloc

import numpy as np
import pytest

from roughsew import paths
from roughsew.conventions import outer_increment
from roughsew.grids import TimeGrid, insert_times, make_uniform_grid
from roughsew.norms import chen_residual
from roughsew.paths import (
    MartingalePath,
    RoughLift,
    SamplePath,
    forward_lift_jump_path,
    ito_lift_brownian,
    simulate_brownian,
    simulate_compound_poisson,
    simulate_mixed,
    smooth_lift,
    smooth_path_registry,
)
from roughsew.rng import stream

import oracles
from oracles import accumulate_prefix, compound_poisson_loop, quadrature_second_level


def _max_chen(lift, rng, n_triples=200):
    n = lift.grid.n_steps
    worst = 0.0
    for _ in range(n_triples):
        s, u, t = np.sort(rng.integers(0, n + 1, size=3))
        worst = max(worst, chen_residual(lift, int(s), int(u), int(t)))
    return worst


# ---------------------------------------------------------------------------
# Brownian ensembles
# ---------------------------------------------------------------------------


def test_brownian_shapes_and_bracket():
    bm = simulate_brownian(2.0, 16, seed=3, n_members=5, dim=2)
    assert bm.values.shape == (5, 17, 2)
    assert bm.bracket.shape == (1, 17, 2, 2)
    # analytic bracket I t
    assert np.allclose(bm.bracket[0, -1], 2.0 * np.eye(2))
    assert np.allclose(bm.bracket[0, 0], 0.0)


def test_brownian_seed_reproducibility():
    a = simulate_brownian(1.0, 32, seed=9, n_members=4)
    b = simulate_brownian(1.0, 32, seed=9, n_members=4)
    c = simulate_brownian(1.0, 32, seed=10, n_members=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("dim", [1, 2])
def test_simulate_brownian_matches_whole_draw_oracle_bitwise(dim):
    bm = simulate_brownian(1.0, 24, seed=31, n_members=9, dim=dim)
    values, bracket = oracles.simulate_brownian(
        stream(31, "brownian", dim, 9), bm.grid.times, 9, dim
    )
    assert np.array_equal(bm.values, values)
    assert np.array_equal(bm.bracket, bracket)


@pytest.mark.parametrize("rows", [1, 4, 10, 29])
def test_brownian_blocks_stack_to_the_whole_ensemble_bitwise(rows):
    blocks = list(paths._brownian_blocks(rows, 1.0, 16, 5, 29, dim=2))
    assert [b.n_members for b in blocks][:-1] == [rows] * (len(blocks) - 1)
    values, bracket = oracles.simulate_brownian(
        stream(5, "brownian", 2, 29), blocks[0].grid.times, 29, 2
    )
    assert np.array_equal(np.concatenate([b.values for b in blocks]), values)
    assert all(b.bracket is blocks[0].bracket for b in blocks)
    assert np.array_equal(blocks[0].bracket, bracket)


def test_brownian_values_continue_one_draw_in_uneven_blocks():
    # the chunking promise of `rng`: any split of the member-major draw,
    # ragged last block included, continues the one stream bit for bit
    grid = make_uniform_grid(1.0, 24)
    sqrt_dt = np.sqrt(grid.steps())[None, :, None]
    rng = stream(8, "brownian", 2, 31)
    parts = [paths._brownian_values(rng, m, 2, sqrt_dt) for m in (7, 13, 1, 10)]
    values, _ = oracles.simulate_brownian(stream(8, "brownian", 2, 31), grid.times, 31, 2)
    assert np.array_equal(np.concatenate(parts), values)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_brownian_draw_chunks_match_the_whole_draw(monkeypatch, dim):
    # 17 members of 33 steps drawn in chunks of 5 members, the last of 2
    monkeypatch.setattr(paths, "_DRAW_CELLS", 5 * 33 * dim)
    bm = simulate_brownian(1.0, 33, seed=12, n_members=17, dim=dim)
    values, bracket = oracles.simulate_brownian(
        stream(12, "brownian", dim, 17), bm.grid.times, 17, dim
    )
    assert bm.values.shape == values.shape
    assert bm.values.tobytes() == values.tobytes()
    assert np.array_equal(bm.bracket, bracket)


def test_simulate_brownian_holds_one_draw_buffer():
    # 512 x 256 draws in four chunks of 128 members: each chunk is scaled in
    # the draw buffer and summed into the values, so beside the values only
    # the buffer (and the grid's arrays) is held; the first call's one-off
    # allocations are made before tracing
    simulate_brownian(1.0, 4, seed=3)
    tracemalloc.start()
    try:
        bm = simulate_brownian(1.0, 256, seed=3, n_members=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bm.values.nbytes + 1.5 * 8 * paths._DRAW_CELLS


def test_brownian_increment_moments():
    bm = simulate_brownian(1.0, 64, seed=21, n_members=4000)
    db = bm.increments()[..., 0]
    dt = 1.0 / 64
    # mean 0 and variance dt, each within 4 standard errors
    se_mean = np.sqrt(dt / 4000)
    assert np.abs(db.mean(axis=0)).max() < 4 * se_mean
    var = db.var(axis=0)
    se_var = dt * np.sqrt(2.0 / 4000)
    assert np.abs(var - dt).max() < 4 * se_var


def test_ito_lift_dim1_step_identity():
    bm = simulate_brownian(1.0, 32, seed=5, n_members=6)
    lift = ito_lift_brownian(bm)
    db = bm.increments()
    dt = bm.bracket_increments()
    expected = 0.5 * (db[:, :, :, None] * db[:, :, None, :] - dt)
    assert np.array_equal(lift.step_second, expected)


def test_ito_lift_chen_residual_small():
    bm = simulate_brownian(1.0, 64, seed=6, n_members=8, dim=2)
    lift = ito_lift_brownian(bm, seed=6)
    rng = stream(1234, "chen-test")
    assert _max_chen(lift, rng) < 1e-10


def test_levy_area_mean_zero():
    # antisymmetric second-level part over the whole window has zero mean
    bm = simulate_brownian(1.0, 32, seed=17, n_members=4000, dim=2)
    lift = ito_lift_brownian(bm, seed=17)
    xx = lift.second(0, 32)
    area = 0.5 * (xx[:, 0, 1] - xx[:, 1, 0])
    se = area.std(ddof=1) / np.sqrt(area.shape[0])
    assert abs(area.mean()) < 3 * se


def test_levy_area_rejects_per_member_bracket():
    bm = simulate_brownian(1.0, 8, seed=19, n_members=3, dim=2)
    per_member = MartingalePath(
        grid=bm.grid, values=bm.values, bracket=np.repeat(bm.bracket, 3, axis=0)
    )
    with pytest.raises(ValueError, match="one bracket shared by all members"):
        ito_lift_brownian(per_member, seed=19)


# ---------------------------------------------------------------------------
# smooth lifts
# ---------------------------------------------------------------------------


def test_polynomial_lift_terminal_second_level():
    # X_t = t^2 on [0, 1]: integral of (X_u - X_0) dX_u = 1/2
    lift = smooth_lift("polynomial", 1.0, 128)
    xx = lift.second(0, 128)
    assert xx.shape == (1, 1, 1)
    assert xx[0, 0, 0] == pytest.approx(0.5, abs=1e-12)


def test_linear_lift_second_level_exact():
    lift = smooth_lift("linear", 2.0, 16)
    xx = lift.second(0, 16)
    # geometric 1-d: XX_{0,T} = (T - 0)^2 / 2
    assert xx[0, 0, 0] == pytest.approx(2.0, abs=1e-12)


def test_sine_cosine_windows_match_quadrature():
    lift = smooth_lift("sine_cosine_pair", 3.0, 48)
    x_fn = lambda u: np.stack([np.sin(u), np.cos(u)], axis=-1)
    times = lift.grid.times
    for s, t in [(0, 48), (5, 31), (17, 18)]:
        ref = quadrature_second_level(x_fn, times[s], times[t])
        assert np.allclose(lift.second(s, t)[0], ref, atol=5e-9), (s, t)


def test_smooth_lift_unknown_id():
    with pytest.raises(ValueError):
        smooth_lift("circle", 1.0, 8)
    assert set(smooth_path_registry()) == {"linear", "polynomial", "sine_cosine_pair"}


# ---------------------------------------------------------------------------
# jump paths and forward lifts
# ---------------------------------------------------------------------------


def _two_unit_jump_path():
    grid = TimeGrid(np.array([0.0, 0.4, 1.0]))
    values = np.array([[[0.0], [1.0], [2.0]]])
    return SamplePath(grid=grid, values=values, jump_indices=np.array([1, 2]))


def test_forward_lift_two_unit_jumps():
    # two unit jumps: XX_{0,T} = 0*1 + 1*1 = 1, exactly
    lift = forward_lift_jump_path(_two_unit_jump_path())
    assert lift.second(0, 2)[0, 0, 0] == 1.0
    # each step in isolation has zero second level (the jump sits at its end)
    assert np.array_equal(lift.step_second, np.zeros((1, 2, 1, 1)))
    # and the lift carries no second-level jump
    assert np.array_equal(lift.jump_second, np.zeros((1, 2, 1, 1)))


def test_forward_lift_rejects_undeclared_motion():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    values = np.array([[[0.0], [1.0], [1.0]]])
    path = SamplePath(grid=grid, values=values, jump_indices=np.array([2]))
    with pytest.raises(ValueError):
        forward_lift_jump_path(path)


def test_compound_poisson_aligned_structure():
    res = simulate_compound_poisson(1.0, 3.0, 16, seed=2, n_members=6)
    path = res.path
    # values are piecewise constant away from declared jump columns
    dstep = np.diff(path.values[..., 0], axis=1)
    moving = np.any(dstep != 0.0, axis=0)
    cols = np.flatnonzero(moving) + 1
    assert set(cols.tolist()) <= set(path.jump_indices.tolist())
    # jump sizes are the realized increments at the jump columns
    js = path.jump_sizes()
    assert np.array_equal(
        js[..., 0], path.values[:, path.jump_indices, 0] - path.values[:, path.jump_indices - 1, 0]
    )


def test_compound_poisson_compensation():
    res = simulate_compound_poisson(2.0, 4.0, 32, seed=8, n_members=3, jump_params=(0.5, 0.2))
    times = res.path.grid.times
    comp = 4.0 * 0.5 * times  # rate * mu
    assert np.allclose(res.martingale.values[..., 0], res.path.values[..., 0] - comp[None, :])
    # bracket accumulates the squared jumps
    qv = res.martingale.bracket[:, -1, 0, 0]
    js2 = np.sum(res.path.jump_sizes()[..., 0] ** 2, axis=1)
    assert np.allclose(qv, js2, atol=1e-12)


def test_compound_poisson_unaligned_quadratic_variation():
    # jumps interior to steps still contribute their true squares to [M]
    res = simulate_compound_poisson(
        1.0, 5.0, 8, seed=13, n_members=4, align_jumps=False
    )
    assert res.path.grid.n_steps == 8
    assert res.path.jump_indices.size == 0
    assert np.all(np.diff(res.martingale.bracket[:, :, 0, 0], axis=1) >= -1e-15)


def _compound_poisson_draws(T, rate, seed, n_members, params):
    """The jumps `simulate_compound_poisson` draws, member-major and
    time-sorted within a member: (counts, times, sizes), sizes N(mu, sigma^2)."""
    rng = stream(seed, "compound-poisson", n_members)
    counts = rng.poisson(rate * T, size=n_members)
    total = int(counts.sum())
    times = np.clip(rng.uniform(0.0, T, size=total), 1e-9 * T, T)
    mu, sigma = params
    sizes = mu + sigma * rng.standard_normal(total)
    order = np.lexsort((times, np.repeat(np.arange(n_members), counts)))
    return counts, times[order], sizes[order]


@pytest.mark.parametrize(
    "n_members,rate,n,align,kind,params",
    [
        (1, 3.0, 16, True, "gauss", (0.0, 1.0)),
        (64, 3.0, 16, True, "gauss", (0.3, 0.45)),
        (256, 4.0, 32, True, "gauss", (-1.0, 2.0)),
        (64, 5.0, 8, False, "gauss", (0.0, 1.0)),
        (16, 0.3, 16, True, "fixed", (0.7, 0.0)),   # members without jumps
        (16, 0.3, 16, False, "fixed", (0.7, 0.0)),
        (8, 0.0, 16, True, "gauss", (0.0, 1.0)),  # no jumps at all
    ],
)
def test_compound_poisson_matches_member_loop_oracle_bitwise(
    n_members, rate, n, align, kind, params
):
    T, seed = 1.5, 41
    # kind "fixed" is sigma = 0: every jump has size mu exactly
    res = simulate_compound_poisson(
        T, rate, n, seed, n_members, jump_params=params, align_jumps=align
    )
    counts, times, sizes = _compound_poisson_draws(T, rate, seed, n_members, params)
    if kind == "fixed":
        assert np.all(sizes == params[0])
    if rate == 0.0:
        assert counts.sum() == 0
    elif rate < 1.0:
        assert 0 < np.count_nonzero(counts == 0) < n_members
    base = make_uniform_grid(T, n)
    grid = insert_times(base, times) if align and times.size else base
    assert np.array_equal(res.path.grid.times, grid.times)
    values, qv, columns = compound_poisson_loop(grid.times, times, sizes, counts, align)
    assert np.array_equal(res.path.values[..., 0], values)
    assert np.array_equal(res.martingale.bracket[..., 0, 0], qv)
    assert np.array_equal(res.path.jump_indices, columns)
    assert np.array_equal(res.martingale.jump_indices, columns)
    if columns.size:
        assert np.array_equal(res.path.left_values[..., 0], values[:, columns - 1])
    else:
        assert res.path.left_values is None


def test_forward_lift_compound_poisson_chen():
    res = simulate_compound_poisson(1.0, 4.0, 16, seed=4, n_members=5)
    lift = forward_lift_jump_path(res.path)
    rng = stream(99, "chen-cp")
    assert _max_chen(lift, rng) < 1e-10


# ---------------------------------------------------------------------------
# custom lifts and the mixed driver
# ---------------------------------------------------------------------------


def test_lift_from_steps_chen_by_construction():
    rng = stream(7, "custom-lift")
    grid = make_uniform_grid(1.0, 10)
    values = np.cumsum(rng.normal(size=(2, 11, 1)), axis=1)
    values -= values[:, :1]
    steps = rng.normal(size=(2, 10, 1, 1))
    lift = RoughLift(SamplePath(grid=grid, values=values), steps)
    assert np.array_equal(lift.step_second, steps)
    worst = _max_chen(lift, stream(8, "custom-chen"))
    assert worst < 1e-10


def _hand_built_jump_lift():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    values = np.array([[[0.0], [0.2], [1.2]]])
    steps = np.zeros((1, 2, 1, 1))
    steps[0, 1, 0, 0] = 0.3
    path = SamplePath(grid=grid, values=values, jump_indices=np.array([2]))
    return RoughLift(path, steps, jump_second=np.full((1, 1, 1, 1), 0.3))


def test_lift_from_steps_jump_second_injection():
    lift = _hand_built_jump_lift()
    assert lift.jump_second.shape == (1, 1, 1, 1)
    assert lift.second(1, 2)[0, 0, 0] == pytest.approx(0.3)


def test_mixed_driver_structure_and_chen():
    res = simulate_mixed(1.0, 32, seed=12, n_members=4, rate=3.0)
    assert res.lift.path.values.shape == res.martingale.values.shape
    # the jump-merged grid keeps at least the base resolution
    assert res.lift.grid.n_steps >= 32
    worst = _max_chen(res.lift, stream(55, "chen-mixed"))
    assert worst < 1e-10


def _mixed_parts(n, seed, n_members, rate):
    """The jump path and Brownian path `simulate_mixed` assembles, by its
    recipe: the jumps of `simulate_compound_poisson` on the base grid with
    every jump time merged in, and `simulate_brownian` on the base grid
    bridged over them from the stream of its one block, members 0..N."""
    counts, times, sizes = paths._jump_draws(1.0, rate, seed, n_members, (0.3, 0.45))
    grid = insert_times(make_uniform_grid(1.0, n), times)
    cp = paths._jump_arrays(grid, counts, times, sizes, rate * 0.3)
    bridge = stream(seed, "brownian-bridge", n_members, 0, n_members)
    bm = paths._bridged(simulate_brownian(1.0, n, seed, n_members), grid, bridge)
    return cp, bm


def _mixed_and_oracle(n, seed, n_members, rate):
    """simulate_mixed, the two paths it adds up, and the oracle's seven arrays."""
    res = simulate_mixed(1.0, n, seed, n_members, rate, jump_params=(0.3, 0.45))
    cp, bm = _mixed_parts(n, seed, n_members, rate)
    grid = cp.path.grid
    expected = oracles.mixed_driver_arrays(
        grid.times, bm.values, cp.path.values, cp.path.left_values, cp.path.jump_indices,
        cp.martingale.bracket, rate, 0.3,
    )
    got = (
        res.path.values, res.path.left_values, res.lift.step_second, res.lift.jump_second,
        res.martingale.values, res.martingale.left_values, res.martingale.bracket,
    )
    return res, cp, bm, got, expected


def _same_bytes(a, b):
    return a is None and b is None or (
        a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()
    )


@pytest.mark.parametrize("rate", [0.0, 2.0, 5.0])
@pytest.mark.parametrize("n_members", [1, 4, 64, 256])
def test_mixed_driver_matches_the_formula_oracle_bitwise_at_unit_vol(n_members, rate):
    for seed in (7, 8, 11, 12):
        res, _, _, got, expected = _mixed_and_oracle(128, seed, n_members, rate)
        assert all(_same_bytes(a, b) for a, b in zip(got, expected)), seed
        assert np.array_equal(res.lift.path.jump_indices, res.martingale.jump_indices)


def test_mixed_driver_steps_are_the_ito_steps_plus_the_cross_term():
    for seed in (7, 11):
        res = simulate_mixed(1.0, 128, seed, 16, 2.0, jump_params=(0.3, 0.45))
        cp, bm = _mixed_parts(128, seed, 16, 2.0)
        steps = ito_lift_brownian(bm).step_second + outer_increment(
            bm.increments(), cp.path.increments()
        )
        assert _same_bytes(res.lift.step_second, steps)


def test_mixed_assembly_on_a_subsampled_grid_matches_the_formula_oracle():
    # a coarse level of a coupled refinement: every second base point plus
    # the jump times, with the Brownian subsampled from the fine level
    n, seed, n_members, rate = 64, 5, 16, 3.0
    counts, times, sizes = paths._jump_draws(1.0, rate, seed, n_members, (0.3, 0.45))
    fine = insert_times(make_uniform_grid(1.0, n), times)
    bridge = stream(seed, "brownian-bridge", n_members, 0, n_members)
    bm = paths._bridged(simulate_brownian(1.0, n, seed, n_members), fine, bridge)
    grid = insert_times(make_uniform_grid(1.0, n // 2), times)
    idx = np.searchsorted(fine.times, grid.times)
    assert np.array_equal(fine.times[idx], grid.times) and grid.n_steps < fine.n_steps
    coarse = MartingalePath(grid=grid, values=bm.values[:, idx], bracket=bm.bracket[:, idx])
    cp = paths._jump_arrays(grid, counts, times, sizes, rate * 0.3)
    res = paths._mixed(coarse, cp, rate * 0.3)
    expected = oracles.mixed_driver_arrays(
        grid.times, coarse.values, cp.path.values, cp.path.left_values, cp.path.jump_indices,
        cp.martingale.bracket, rate, 0.3,
    )
    got = (
        res.path.values, res.path.left_values, res.lift.step_second, res.lift.jump_second,
        res.martingale.values, res.martingale.left_values, res.martingale.bracket,
    )
    assert cp.path.jump_indices.size > 0
    assert all(_same_bytes(a, b) for a, b in zip(got, expected))


def _block_parts(monkeypatch, rows, n, seed, n_members, rate):
    """The (Brownian, jump) pairs `_mixed_blocks` assembles, block by block."""
    monkeypatch.setattr(paths, "_mixed", lambda bm, jump, drift: (bm, jump))
    return list(paths._mixed_blocks(rows, 1.0, n, seed, n_members, rate, (0.3, 0.45)))


def _member_rows(parts, base):
    """Per member, from the blocks' parts: its jump times, its jump path's
    values there, and its Brownian at the base points (at the grid time that
    stands for a base point: the last one at or before it)."""
    out = []
    for bm, jump in parts:
        times = jump.path.grid.times
        at = np.searchsorted(times, base, side="right") - 1
        for j_i, b_i in zip(jump.path.values[..., 0], bm.values[..., 0]):
            k = np.flatnonzero(np.diff(j_i)) + 1
            out.append((times[k], j_i[k], b_i[at]))
    return out


@pytest.mark.parametrize("collapse", [False, True], ids=["drawn", "collapsing"])
def test_mixed_blocks_keep_each_members_jumps_and_base_brownian_bitwise(monkeypatch, collapse):
    n, seed, n_members, rate = 16, 23, 70, 3.0
    base = make_uniform_grid(1.0, n).times
    if collapse:
        # every 5th jump moves to 5e-13 before a base point, which
        # `insert_times` then replaces by the jump time
        real = paths._jump_draws

        def draws(*args):
            counts, times, sizes = real(*args)
            times = times.copy()
            near = np.clip(np.round(times[::5] * n), 1, n - 1).astype(np.int64)
            times[::5] = base[near] - 5e-13
            order = np.lexsort((times, np.repeat(np.arange(counts.size), counts)))
            return counts, times[order], sizes[order]

        monkeypatch.setattr(paths, "_jump_draws", draws)
    whole = simulate_brownian(1.0, n, seed, n_members).values[..., 0]
    per_rows = {}
    for rows in (1, 16, 64, n_members):
        parts = _block_parts(monkeypatch, rows, n, seed, n_members, rate)
        sizes = [min(rows, n_members - lo) for lo in range(0, n_members, rows)]
        assert [bm.n_members for bm, _ in parts] == sizes
        if collapse:  # some base points are not on the block grids
            assert any(not np.isin(base, jump.path.grid.times).all() for _, jump in parts)
        per_rows[rows] = _member_rows(parts, base)
    want = per_rows[n_members]
    assert sum(t.size for t, _, _ in want) > n_members  # members with jumps
    for rows, got in per_rows.items():
        assert len(got) == n_members
        for i, (g, w) in enumerate(zip(got, want)):
            assert all(_same_bytes(a, b) for a, b in zip(g, w)), (rows, i)
            assert _same_bytes(g[2], whole[i]), (rows, i)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ito_lift_brownian(simulate_brownian(1.0, 40, seed=2, n_members=5)),
        lambda: ito_lift_brownian(simulate_brownian(1.0, 24, seed=3, n_members=4, dim=2), seed=3),
        lambda: forward_lift_jump_path(simulate_compound_poisson(1.0, 4.0, 16, seed=4, n_members=5).path),
        lambda: smooth_lift("linear", 2.0, 32),
        lambda: smooth_lift("polynomial", 1.0, 32),
        lambda: smooth_lift("sine_cosine_pair", 3.0, 48),
        lambda: simulate_mixed(1.0, 32, seed=12, n_members=4, rate=3.0).lift,
        _hand_built_jump_lift,
    ],
    ids=["ito-d1", "ito-d2", "jump-forward", "linear", "polynomial", "sine-cosine",
         "mixed", "hand-built-jump"],
)
def test_second_prefix_matches_stepwise_oracle(build):
    lift = build()
    expected = accumulate_prefix(lift.path.values, lift.step_second)
    assert np.array_equal(lift.second_prefix, expected)


@pytest.mark.parametrize("shape", [(3, 1, 1), (1, 2, 1), (3, 2, 2), (3, 2)])
def test_sample_path_rejects_misshapen_left_values(shape):
    # two declared jumps and three members: left_values must be (3, 2, 1); a
    # (3, 1, 1) array was broadcast over both jumps, and so were the sizes
    grid = make_uniform_grid(1.0, 4)
    values = np.repeat(np.array([[[0.0], [3.0], [3.0], [9.0], [9.0]]]), 3, axis=0)
    jumps = np.array([1, 3])
    with pytest.raises(ValueError, match=r"left_values must have shape \(N, J, d\) = \(3, 2, 1\)"):
        SamplePath(grid=grid, values=values, jump_indices=jumps, left_values=np.zeros(shape))
    left = np.repeat(np.array([[[0.0], [3.0]]]), 3, axis=0)
    path = SamplePath(grid=grid, values=values, jump_indices=jumps, left_values=left)
    assert path.jump_sizes()[..., 0].tolist() == [[3.0, 6.0]] * 3


@pytest.mark.parametrize("shape", [(3, 2, 1, 1), (1, 1, 1, 1)])
def test_lift_rejects_misshapen_jump_second(shape):
    # one declared jump and three members: jump_second must be (3, 1, 1, 1)
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    values = np.array([[[0.0], [0.2], [1.2]]] * 3)
    path = SamplePath(grid=grid, values=values, jump_indices=np.array([2]))
    steps = np.zeros((3, 2, 1, 1))
    with pytest.raises(ValueError, match="jump_second"):
        RoughLift(path, steps, jump_second=np.zeros(shape))
    assert RoughLift(path, steps, jump_second=np.zeros((3, 1, 1, 1))).jump_second.shape == (3, 1, 1, 1)

"""Ensemble norms: L^q magnitudes, increment tables, and V^p seminorms."""

import tracemalloc

import numpy as np
import pytest

from roughsew.calculus import smooth_fn
from roughsew.grids import make_uniform_grid, p_variation
from roughsew import cli, norms, rsde
from roughsew.norms import (
    MAX_TABLE_POINTS,
    _column_pairs,
    _lq_cells,
    _moment_table,
    _pair_seminorm,
    chen_residual,
    lq_norm,
    lq_table,
    rough_path_distance,
    second_level_seminorm,
    two_param_seminorm,
    vp_lq_seminorm,
)
from roughsew.paths import (
    MartingalePath,
    RoughLift,
    SamplePath,
    ito_lift_brownian,
    simulate_brownian,
    simulate_compound_poisson,
    smooth_lift,
)
from roughsew.rsde import (
    CoefficientSet,
    RSDEProblem,
    _remainder_table,
    solve,
    stability_experiment,
)
from roughsew.scenarios import default_config, run_scenario

from oracles import (
    increment_table_broadcast,
    lq_cells_mean,
    lq_table_rows,
    magnitude_table,
    pair_rows,
    remainder_mean_rows,
    remainder_mean_table_rows,
    second_level_table_cells,
    second_rows,
    shifted_increments,
    stability_experiment_by_bundle,
)


def test_lq_norm_matches_manual_moment():
    x = np.array([[1.0], [-2.0], [2.0]])
    # L^2: sqrt(mean of squares) = sqrt(3)
    assert lq_norm(x, 2.0) == pytest.approx(np.sqrt(3.0))
    # L^1: mean of magnitudes
    assert lq_norm(x, 1.0) == pytest.approx(5.0 / 3.0)


def test_lq_norm_euclidean_across_trailing_axes():
    x = np.array([[[3.0, 4.0]]])  # one member, magnitude 5
    assert lq_norm(x, 2.0) == pytest.approx(5.0)


@pytest.mark.parametrize("q", [2.0, 4.0])
def test_lq_cells_do_not_depend_on_memory_layout(q):
    # a time-major lift's columns dY_{s..u-1, u} (members strided) must give
    # the member-major cells bit for bit
    x = np.random.default_rng(3).standard_normal((500, 40, 2))
    x_time_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, 0)), 0, 1)
    for s, u in [(3, 17), (0, 39)]:
        cols = [v[:, u : u + 1] - v[:, s:u] for v in (x, x_time_major)]
        assert not cols[1].flags.c_contiguous
        assert np.array_equal(_lq_cells(cols[1], q), _lq_cells(cols[0], q))
    assert lq_norm(x_time_major[:, 5], q) == lq_norm(x[:, 5], q)


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 4.0])
@pytest.mark.parametrize("dim", [1, 3, 9])
def test_lq_cells_equal_the_mean_reduction_bitwise(dim, q):
    # the in-place reduction, and `lq_norm` on its one-cell array, against
    # the einsum/np.mean oracle on random shapes with signed zeros, NaN and
    # infinities among the entries; from d = 2 on the components are summed
    # on C-order memory, so every layout gives the C-ordered input's cells
    rng = np.random.default_rng(int(10 * q) + dim)
    specials = [None, [0.0, -0.0], [0.0, -0.0, np.inf, -np.inf], [np.nan, -0.0]]
    for case in range(16):
        n_members, n_cells = int(rng.integers(1, 301)), int(rng.integers(1, 41))
        shape = (n_members, n_cells, dim)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
        if specials[case % 4] is not None:
            at = rng.random(shape) < 0.01 * (1 + case % 5)
            x[at] = rng.choice(specials[case % 4], size=int(at.sum()))
        inputs = [x] + ([x[..., 0]] if dim == 1 else [])
        for c_order in inputs:
            want = np.asarray(lq_cells_mean(c_order, q)).tobytes()
            lone = np.asarray(lq_cells_mean(c_order[:, :1], q)).tobytes()
            for layout in (np.ascontiguousarray, np.asfortranarray):
                got = _lq_cells(layout(c_order), q)
                assert np.asarray(got).tobytes() == want, (case, layout)
                assert np.float64(lq_norm(layout(c_order[:, 0]), q)).tobytes() == lone
                if dim == 1:
                    old = lq_cells_mean(layout(c_order), q)
                    assert np.asarray(old).tobytes() == want


def test_lq_norm_validation():
    x = np.random.default_rng(0).normal(size=(500, 3))
    with pytest.raises(ValueError):
        lq_norm(x, 0.5)
    with pytest.raises(ValueError, match="q >= 1"):
        lq_norm(np.ones(3), float("nan"))
    # inf >= 1, yet the empirical norm read 1.0 there whatever the samples
    with pytest.raises(ValueError, match="^lq_norm needs finite q >= 1, got q=inf$"):
        lq_norm([[2.0], [3.0]], float("inf"))


def test_lq_table_known_two_member_ensemble():
    # members: 0 -> 1 -> 3 and 0 -> -1 -> 1
    vals = np.array([[0.0, 1.0, 3.0], [0.0, -1.0, 1.0]])
    tab = lq_table(vals, 2.0)
    assert tab[0, 1] == pytest.approx(1.0)  # both have |dY| = 1
    assert tab[1, 2] == pytest.approx(2.0)
    assert tab[0, 2] == pytest.approx(np.sqrt((9.0 + 1.0) / 2.0))
    assert np.all(np.diag(tab) == 0.0)


def test_vp_lq_seminorm_monotone_single_member():
    vals = np.array([[0.0, 1.0, 2.0, 3.0]])
    # degenerate ensemble: reduces to the path's own p-variation
    assert vp_lq_seminorm(vals, 1.0, 2.0) == pytest.approx(3.0)
    assert vp_lq_seminorm(vals, 2.0, 2.0) == pytest.approx(
        p_variation(increment_table_broadcast(vals[0]), 2.0)
    )


def test_two_param_seminorm_is_p_variation():
    tab = increment_table_broadcast(np.array([0.0, 1.0, -1.0]))
    assert two_param_seminorm is p_variation
    assert two_param_seminorm(tab, 2.0) == p_variation(tab, 2.0)


def test_table_size_guard():
    vals = np.zeros((1, MAX_TABLE_POINTS + 2))
    with pytest.raises(ValueError):
        lq_table(vals, 2.0)


def test_second_level_seminorm_smooth_lift():
    lift = smooth_lift("linear", 1.0, 8)
    # XX_{s,t} = (t-s)^2/2; the (p/2)-variation at p = 2 is additive in t-s
    val = second_level_seminorm(lift, 2.0)
    assert val == pytest.approx(0.5, rel=1e-12)


def _copy_lift(lift, **arrays):
    """An equal but distinct lift, with any of its arrays replaced."""
    arrays = {
        "values": lift.path.values.copy(),
        "step_second": lift.step_second.copy(),
        "jump_second": lift.jump_second.copy(),
        **arrays,
    }
    path = SamplePath(lift.grid, arrays["values"], lift.path.jump_indices)
    return RoughLift(path, arrays["step_second"], arrays["jump_second"])


def test_rough_path_distance_zero_on_identical_lifts():
    bm = simulate_brownian(1.0, 16, seed=41, n_members=8)
    lift = ito_lift_brownian(bm)
    # an equal but distinct lift takes the pair cells
    copy = _copy_lift(lift)
    assert rough_path_distance(lift, copy, 2.5) == 0.0
    assert "second_prefix" in copy.__dict__


def test_rough_path_distance_of_a_lift_to_itself_reads_no_pair_cell():
    lift = ito_lift_brownian(simulate_brownian(1.0, 16, seed=41, n_members=8))
    got = rough_path_distance(lift, lift, 2.5, 4.0)
    assert type(got) is float and got == 0.0
    assert "second_prefix" not in lift.__dict__


@pytest.mark.parametrize("array", ["values", "step_second"])
def test_rough_path_distance_keeps_a_nan_lift_nan_against_itself(array):
    lift = ito_lift_brownian(simulate_brownian(1.0, 16, seed=41, n_members=8))
    bad = getattr(lift.path if array == "values" else lift, array).copy()
    bad[2, 5] = np.nan
    nan_lift = _copy_lift(lift, **{array: bad})
    assert np.isnan(rough_path_distance(nan_lift, nan_lift, 2.5))
    assert np.isnan(rough_path_distance(nan_lift, _copy_lift(nan_lift), 2.5))


def test_stability_base_reads_pair_cells_only_for_the_lift_perturbations(monkeypatch):
    # the y0 and martingale perturbations keep the base lift, so 8 of the 12
    # distances are a lift against itself; the 4 tilted lifts take the pair
    # cells, once for the first level and once for the second
    real_distance, real_seminorm = rsde.rough_path_distance, norms._pair_seminorm
    cells_per_distance, inside = [], []

    def distance(*args):
        cells_per_distance.append(0)
        inside.append(True)
        try:
            return real_distance(*args)
        finally:
            inside.pop()

    def seminorm(*args, **kwargs):
        if inside:
            cells_per_distance[-1] += 1
        return real_seminorm(*args, **kwargs)

    monkeypatch.setattr(rsde, "rough_path_distance", distance)
    monkeypatch.setattr(norms, "_pair_seminorm", seminorm)
    run_scenario(default_config("stability_base"))
    assert cells_per_distance == [0, 0, 2] * 4


def test_rough_path_distance_detects_perturbation():
    bm = simulate_brownian(1.0, 16, seed=42, n_members=8)
    lift = ito_lift_brownian(bm)
    shifted = simulate_brownian(1.0, 16, seed=43, n_members=8)
    other = ito_lift_brownian(shifted)
    assert rough_path_distance(lift, other, 2.5) > 0.1


def test_rough_path_distance_grid_mismatch():
    a = ito_lift_brownian(simulate_brownian(1.0, 16, seed=1, n_members=2))
    b = ito_lift_brownian(simulate_brownian(1.0, 8, seed=1, n_members=2))
    with pytest.raises(ValueError):
        rough_path_distance(a, b, 2.0)


def test_chen_residual_zero_for_consistent_lift():
    lift = smooth_lift("sine_cosine_pair", 2.0, 32)
    worst = max(
        chen_residual(lift, s, u, t)
        for (s, u, t) in [(0, 8, 32), (1, 2, 3), (10, 20, 30), (0, 0, 32), (5, 5, 5)]
    )
    assert worst < 1e-12


@pytest.mark.parametrize("triple", [(5, 2, 1), (0, 3, 2), (-1, 2, 3), (0, 2, 33)])
def test_chen_residual_refuses_a_triple_out_of_order_or_range(triple):
    lift = smooth_lift("sine_cosine_pair", 2.0, 32)
    s, u, t = triple
    got = f"got s={s}, u={u}, t={t}$"
    with pytest.raises(ValueError, match=f"^chen_residual needs 0 <= s <= u <= t <= 32, {got}"):
        chen_residual(lift, s, u, t)


# ---------------------------------------------------------------------------
# the one table builder against the per-table loops it replaced
# ---------------------------------------------------------------------------

# (members, dim): a single-member and a multi-member ensemble in d = 1 and 2
ENSEMBLE_CASES = [(1, 1), (1, 2), (9, 1), (9, 2)]
ORACLE_RTOL = 1e-13


def _lift(n_members, dim, seed, n=12):
    bm = simulate_brownian(1.0, n, seed=seed, n_members=n_members, dim=dim)
    return ito_lift_brownian(bm, seed=seed)


def _second_seminorm(lift, p, q, s, t):
    """`second_level_seminorm` over [s, t]: on the whole grid the seminorm
    itself, on a shorter window `_pair_seminorm` of the second level with
    its indices shifted by s, bit for bit the seminorm over that window."""
    if (s, t) == (0, lift.grid.n_steps):
        return second_level_seminorm(lift, p, q)
    second = shifted_increments(lift.second, s)
    return _pair_seminorm(second, lift.second_prefix.shape[0], t - s, p / 2, q)


def _distance(a, b, p, q, s, t):
    """`rough_path_distance` over [s, t], read as `_second_seminorm` is: the
    first level from the window's slice of the paths."""
    if (s, t) == (0, a.grid.n_steps):
        return rough_path_distance(a, b, p, q)
    first = vp_lq_seminorm((a.path.values - b.path.values)[:, s : t + 1], p, q)
    n_members = max(a.second_prefix.shape[0], b.second_prefix.shape[0])
    second = shifted_increments(lambda i, j: a.second(i, j) - b.second(i, j), s)
    return first + _pair_seminorm(second, n_members, t - s, p / 2, q)


def _second_table_oracle(lift, q, s, t, other=None):
    pair = None if other is None else (other.path.values, other.second_prefix)
    return second_level_table_cells(
        lift.path.values, lift.second_prefix, q, s, t, other=pair
    )


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_lq_table_matches_row_loop_oracle(n_members, dim):
    vals = _lift(n_members, dim, seed=3).path.values
    for q, s, t in [(2.0, 0, 12), (4.0, 2, 9), (1.5, 5, 5)]:
        got = lq_table(vals[:, s : t + 1], q)
        want = lq_table_rows(vals, q, s=s, t=t)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=ORACLE_RTOL, atol=0.0)


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_second_level_seminorm_matches_cell_loop_oracle(n_members, dim):
    lift = _lift(n_members, dim, seed=5)
    for p, q, s, t in [(2.5, 2.0, 0, 12), (3.0, 4.0, 3, 10)]:
        want = p_variation(_second_table_oracle(lift, q, s, t), p / 2.0)
        got = _second_seminorm(lift, p, q, s, t)
        assert got == pytest.approx(want, rel=ORACLE_RTOL, abs=0.0)


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_rough_path_distance_matches_cell_loop_oracle(n_members, dim):
    a, b = _lift(n_members, dim, seed=7), _lift(n_members, dim, seed=8)
    for p, q, s, t in [(2.5, 2.0, 0, 12), (3.0, 4.0, 2, 11)]:
        first = p_variation(
            lq_table_rows(a.path.values - b.path.values, q, s=s, t=t), p
        )
        second = p_variation(_second_table_oracle(a, q, s, t, other=b), p / 2.0)
        got = _distance(a, b, p, q, s, t)
        assert got == pytest.approx(first + second, rel=ORACLE_RTOL, abs=0.0)


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_stability_remainder_term_matches_row_loop_oracle(n_members, dim):
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.3),
        f=tuple(smooth_fn("sin_bundle", a=0.5, c=0.2 * k) for k in range(dim)),
    )
    base = RSDEProblem(0.4, _lift(n_members, dim, seed=11))
    pert = RSDEProblem(0.45, _lift(n_members, dim, seed=12))
    p, q = 2.5, 4.0
    _, [rep] = stability_experiment(coeffs, base, [(pert, None)], p=p, q=q)
    ya = solve(coeffs, base.y0, base.lift).values
    yb = solve(coeffs, pert.y0, pert.lift).values
    # the Gubinelli derivative Y' = f(Y), one column per driver direction
    dya = np.stack([fn.f(ya) for fn in coeffs.f], axis=-1)
    dyb = np.stack([fn.f(yb) for fn in coeffs.f], axis=-1)
    want = vp_lq_seminorm(dya - dyb, p, q)
    if n_members >= 2 and dim == 1:
        # one component at q = 4: the member-moment table
        assert rep.lhs_parts["derivative"] == pytest.approx(want, rel=1e-13, abs=0.0)
    else:
        assert rep.lhs_parts["derivative"] == want
    tab = remainder_mean_table_rows(
        ya, dya, base.lift.path.values, yb, dyb, pert.lift.path.values
    )
    want = p_variation(tab, p / 2.0)
    assert want > 0
    assert rep.lhs_parts["remainder"] == pytest.approx(want, rel=ORACLE_RTOL, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_single_member_table_is_the_broadcast_increment_table_bitwise(dim):
    vals = np.cumsum(np.random.default_rng(dim).standard_normal((17, dim)), axis=0)
    want = increment_table_broadcast(vals)
    upper = lq_table(vals[None], 2.0)
    assert np.array_equal(upper, np.triu(want))


GRAM_RTOL = 1e-12


def _assert_gram_matches_rows(vals, s=0, t=None):
    t = vals.shape[1] - 1 if t is None else t
    got = lq_table(vals[:, s : t + 1], 2.0)
    want = lq_table_rows(vals, 2.0, s=s, t=t)
    assert got.shape == want.shape
    # atol 0: a zero cell of the row loop is a zero cell of the Gram table
    assert np.allclose(got, want, rtol=GRAM_RTOL, atol=0.0)


def test_gram_table_matches_rows_on_a_workload_size_brownian_ensemble():
    vals = simulate_brownian(1.0, 512, seed=7, n_members=2000).values
    _assert_gram_matches_rows(vals)
    # every cell is kept from the Gram product at this size
    assert _moment_table(vals, 2.0)[1][0].size == 0


@pytest.mark.parametrize("rate,n_members,align", [(5.0, 500, False), (2.0, 64, True)])
def test_gram_table_matches_rows_on_a_jump_ensemble(rate, n_members, align):
    cp = simulate_compound_poisson(1.0, rate, 256, seed=3, n_members=n_members, align_jumps=align)
    _assert_gram_matches_rows(cp.path.values)


def test_gram_table_matches_rows_in_two_dimensions_on_a_late_window():
    vals = simulate_brownian(1.0, 300, seed=5, n_members=400, dim=2).values
    _assert_gram_matches_rows(vals, s=37, t=281)


def test_gram_table_centres_away_a_large_level():
    # each member's time-mean takes the level off exactly, so the Gram path
    # sees the 1e-6 scale alone
    w = simulate_brownian(1.0, 64, seed=9, n_members=50).values
    _assert_gram_matches_rows(1e6 + 1e-6 * w)


def test_gram_table_leaves_its_input_as_it_is():
    vals = np.array([[1.0], [2.0], [4.0]])  # one time point: no copy on transpose
    assert np.array_equal(lq_table(vals, 2.0), np.zeros((1, 1)))
    assert np.array_equal(vals, [[1.0], [2.0], [4.0]])


def test_gram_table_drops_the_centred_copy_before_the_cells():
    # the centred (m, N) copy lives until the Gram product and no longer: at
    # N = 2000 members it is ten m x m tables large, so the bound admits it
    # beside the Gram table and one more, and fails if it is still held while
    # the cells are formed
    vals = simulate_brownian(1.0, 200, seed=7, n_members=2000).values
    m = vals.shape[1]
    tracemalloc.start()
    try:
        lq_table(vals, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vals.nbytes + 2 * m * m * 8


def test_gram_table_forms_its_cells_beside_the_product_alone():
    # at m = 1025 points a table (8.4 MB) dwarfs the centred (m, N) copy
    # (0.4 MB): the guard's sums, products and masks go by blocks of rows,
    # so the peak stays near one table; whole-table temporaries took it to
    # 3.1 tables
    vals = simulate_brownian(1.0, 1024, seed=7, n_members=50).values
    m = vals.shape[1]
    tracemalloc.start()
    try:
        table, (ii, _) = _moment_table(vals, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * m * m * 8
    # the guard still sends cells back to the pair cells at this size
    assert 0 < ii.size < m
    assert np.allclose(table, lq_table_rows(vals, 2.0), rtol=GRAM_RTOL, atol=0.0)


def test_gram_table_rebuilds_cancelling_cells_bitwise(monkeypatch):
    # a turn of radius 1e6 in 512 steps: every row has cells whose increment
    # is tiny next to the distance from the time-mean, where the unguarded
    # Gram table is off by ~7e-12 relative and has a false zero
    t = np.linspace(0.0, 1.0, 513)
    circle = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1)
    w = simulate_brownian(1.0, 512, seed=9, n_members=40, dim=2).values
    vals = 1e6 * circle[None] + 1e-6 * w
    table, (ii, jj) = _moment_table(vals, 2.0)
    assert np.array_equal(lq_table(vals, 2.0), table)
    assert np.unique(ii).size == 512
    # every guarded cell is `lq_norm` of its raw increment, bit for bit
    for i, j in zip(ii, jj):
        want = np.float64(lq_norm(vals[:, j] - vals[:, i], 2.0))
        assert table[i, j].tobytes() == want.tobytes(), (i, j)
    # atol 0: no false zero
    want = lq_table_rows(vals, 2.0)
    assert np.allclose(table, want, rtol=GRAM_RTOL, atol=0.0)
    assert np.count_nonzero(table) == 513 * 512 // 2
    # without the guard the same sums miss the row loop
    monkeypatch.setitem(norms._MOMENT_RTOL, 2.0, np.inf)
    unguarded, (ii, _) = _moment_table(vals, 2.0)
    assert ii.size == 0
    assert not np.allclose(unguarded, want, rtol=GRAM_RTOL, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_gram_table_keeps_the_row_pattern_of_a_non_finite_member(bad):
    vals = simulate_brownian(1.0, 64, seed=1, n_members=50).values[..., 0]
    vals[3, 20] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = lq_table(vals, 2.0), lq_table_rows(vals, 2.0)
    # row 20 and column 20 of the 65-point table, nothing else
    assert np.count_nonzero(~np.isfinite(want)) == 64
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.array_equal(got[finite], want[finite])


def test_second_accepts_index_arrays_and_slices_at_both_ends_bitwise():
    lift = _lift(4, 2, seed=13)
    ii, jj = np.array([0, 2, 5, 5]), np.array([3, 7, 6, 12])
    pairs = lift.second(ii, jj)
    assert pairs.shape == (4, 4, 2, 2)
    for k, (s, t) in enumerate(zip(ii, jj)):
        assert np.array_equal(pairs[:, k], lift.second(s, t))
    assert np.array_equal(lift.second(slice(8, 9), slice(9, 10)), lift.second(8, 9)[:, None])
    assert np.array_equal(
        lift.second(slice(2, 5), slice(9, 12)), lift.second(np.arange(2, 5), np.arange(9, 12))
    )


def _pair_cases(seed):
    """(N, m) blocks: Brownian-like, with a NaN member and with an inf member,
    for m = 2..20 and N in {1, 2, 5, 256}."""
    rng = np.random.default_rng(seed)
    for m in range(2, 21):
        for n_members in (1, 2, 5, 256):
            x = np.cumsum(rng.standard_normal((n_members, m)), axis=1)
            yield m, x
            for bad in (np.nan, np.inf):
                y = x.copy()
                y[-1, m // 2] = bad
                yield m, y


def _differences(x):
    return lambda i, j: x[:, j] - x[:, i]


def _kind(x):
    return "nan" if np.isnan(x) else "inf" if np.isinf(x) else "finite"


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("p,q", [(2.0, 4.0), (2.5, 3.0), (3.0, 6.0), (2.0, 2.0)])
def test_pair_seminorm_equals_the_row_builder_bitwise(p, q):
    kinds = []
    with np.errstate(invalid="ignore"):
        for m, x in _pair_cases(seed=int(10 * p + q)):
            got = _pair_seminorm(_differences(x), x.shape[0], m - 1, p, q, _column_pairs(m))
            want = _rows_vp(x, p, q, 0, m - 1)
            assert _same(got, want), (m, x.shape, got, want)
            kinds.append("nan" if np.isnan(got) else "inf" if np.isinf(got) else "finite")
    # a NaN member makes the seminorm NaN, an inf member makes it inf
    assert kinds.count("nan") == kinds.count("inf") == 19 * 4


def test_pair_seminorm_is_bitwise_in_chunks(monkeypatch):
    # chunks of one, two, three and five cells give the one-call cells
    x = np.cumsum(np.random.default_rng(5).standard_normal((256, 20)), axis=1)
    want = [_pair_seminorm(_differences(x), 256, m - 1, 2.0, 4.0) for m in range(2, 21)]
    for budget in (256, 2 * 256, 3 * 256, 5 * 256):
        monkeypatch.setattr(norms, "_PAIR_CELL_BUDGET", budget)
        got = [_pair_seminorm(_differences(x), 256, m - 1, 2.0, 4.0) for m in range(2, 21)]
        assert got == want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_members", [1, 2, 5, 256, 10_000])
def test_every_pair_cell_is_lq_norm_of_its_increment_bitwise(monkeypatch, n_members, dim):
    # lq_table's cells (off the Gram path) and the powered cells
    # `_pair_seminorm` hands to the DP, against lq_norm(Y_j - Y_i, q); 10 000
    # members exceed numpy's 8192-element reduction buffer and make chunks
    # of one cell.  The last member is an outlier, and a NaN and an inf
    # member stand at two grid points
    rng = np.random.default_rng(10 * n_members + dim)
    m = 6 if n_members == 10_000 else 12
    x = np.cumsum(rng.standard_normal((n_members, m, dim)), axis=1)
    x[-1] *= 1e6
    x[0, 3, -1], x[-1, 8 % m, 0] = np.nan, np.inf
    ii, jj = _column_pairs(m)
    dp_columns = []
    monkeypatch.setattr(norms, "_pvar_dp", lambda cols: dp_columns.extend(cols) or [0.0])
    with np.errstate(invalid="ignore", over="ignore"):
        for q, p in [(1.0, 2.0), (2.5, 3.0), (3.0, 2.5), (4.0, 2.0)]:
            want = np.array([lq_norm(x[:, j] - x[:, i], q) for i, j in zip(ii, jj)])
            assert np.isnan(want).any() and np.isinf(want).any()
            assert lq_table(x, q)[ii, jj].tobytes() == want.tobytes(), q
            dp_columns.clear()
            _pair_seminorm(_differences(x), n_members, m - 1, p, q)
            assert np.array([c for col in dp_columns for c in col]).tobytes() == (want**p).tobytes()


def test_column_pairs_run_column_by_column():
    ii, jj = _column_pairs(4)
    # (0,1) | (0,2) (1,2) | (0,3) (1,3) (2,3)
    assert ii.tolist() == [0, 0, 1, 0, 1, 2] and jj.tolist() == [1, 2, 2, 3, 3, 3]
    assert [a.tolist() for a in _column_pairs(2)] == [[0], [1]]
    with pytest.raises(ValueError, match="O\\(n\\^2\\) table"):
        _column_pairs(MAX_TABLE_POINTS + 1)


# ---------------------------------------------------------------------------
# every rerouted seminorm against the row builder, bit for bit
# ---------------------------------------------------------------------------

# windows with m = 1, 2, 3 and 40 points on a 41-point grid
WINDOWS = [(5, 5), (3, 4), (7, 9), (0, 40)]
ROW_CASES = [(n_members, dim) for dim in (1, 2, 3) for n_members in (1, 2, 5, 256)]


def _random_lift(n_members, dim, seed, n=40, bad=None):
    """A lift on a uniform n-step grid from random steps, with an
    antisymmetric part in its second level; `bad` goes into the last
    member's path value and step at the middle of the grid."""
    rng = np.random.default_rng(seed)
    dx = rng.standard_normal((n_members, n, dim)) / np.sqrt(n)
    values = np.concatenate([np.zeros((n_members, 1, dim)), np.cumsum(dx, axis=1)], axis=1)
    steps = 0.5 * dx[..., :, None] * dx[..., None, :]
    steps = steps + 0.1 * rng.standard_normal((n_members, n, dim, dim)) / n
    steps = steps - np.swapaxes(steps, -1, -2) / 2
    if bad is not None:
        values[-1, n // 2, 0] = bad
        steps[-1, n // 2, 0, 0] = bad
    return RoughLift(SamplePath(make_uniform_grid(1.0, n), values), steps)


def _rows_vp(values, p, q, s, t):
    return p_variation(lq_table_rows(values, q, s=s, t=t), p)


def _rows_second(lift, p, q, s, t):
    return p_variation(magnitude_table(second_rows(lift, s, t), t - s + 1, q), p / 2.0)


def _rows_distance(a, b, p, q, s, t):
    rows_a, rows_b = second_rows(a, s, t), second_rows(b, s, t)
    second = magnitude_table(lambda i: rows_a(i) - rows_b(i), t - s + 1, q)
    return _rows_vp(a.path.values - b.path.values, p, q, s, t) + p_variation(second, p / 2.0)


@pytest.mark.parametrize("n_members,dim", ROW_CASES)
def test_rerouted_seminorms_equal_the_row_builder_bitwise(n_members, dim):
    seed = 100 * dim + n_members
    kinds = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for bad in (None, np.nan, np.inf):
            a = _random_lift(n_members, dim, seed, bad=bad)
            b = _random_lift(n_members, dim, seed + 1)
            x = a.path.values
            for s, t in WINDOWS:
                for p, q in [(2.5, q) for q in (1.0, 1.5, 2.0, 3.0, 4.0)] + [(2.0, 2.0)]:
                    for vals in (x, x[..., 0]) if dim == 1 else (x,):
                        got = vp_lq_seminorm(vals[:, s : t + 1], p, q)
                        assert _same(got, _rows_vp(vals, p, q, s, t)), (p, q, s, t, bad)
                        kinds.add(_kind(got))
                for p, q in [(2.5, 2.0), (3.0, 4.0), (2.0, 1.5)]:
                    got = _second_seminorm(a, p, q, s, t)
                    assert _same(got, _rows_second(a, p, q, s, t)), (p, q, s, t, bad)
                    got = _distance(a, b, p, q, s, t)
                    assert _same(got, _rows_distance(a, b, p, q, s, t)), (p, q, s, t, bad)
                    kinds.add(_kind(got))
    # an inf member makes the first level inf and the second level NaN
    assert kinds == {"finite", "nan", "inf"}


def _relaid(lift, layout):
    """The lift with its path values and steps in the memory `layout`."""
    return RoughLift(SamplePath(lift.grid, layout(lift.path.values)), layout(lift.step_second))


def _stability_case(n_members, dim, seed, layout=None, n=40):
    """A base problem and its y0, martingale and lift perturbations (the
    martingale difference's bracket given), on d-dimensional lifts; `layout`
    rearranges the memory of every lift's values and steps."""
    a = _random_lift(n_members, dim, seed, n=n)
    b = _random_lift(n_members, dim, seed + 1, n=n)
    if layout is not None:
        a, b = _relaid(a, layout), _relaid(b, layout)
    rng = np.random.default_rng(seed + 2)
    grid, times = a.grid, a.grid.times
    m_vals = np.cumsum(rng.standard_normal((n_members, n + 1, 1)), axis=1) / np.sqrt(n)
    mart = MartingalePath(grid=grid, values=m_vals, bracket=times[None, :, None, None])
    w = np.cumsum(rng.standard_normal((n_members, n + 1, 1)), axis=1) / np.sqrt(n)
    eps = 0.05
    mart_p = MartingalePath(
        grid=grid, values=m_vals + eps * w, bracket=((1 + eps**2) * times)[None, :, None, None]
    )
    y0 = 0.1 + 0.01 * rng.standard_normal(n_members)
    base = RSDEProblem(y0, a, mart)
    perts = [
        (RSDEProblem(y0 + eps, a, mart), None),
        (RSDEProblem(y0, a, mart_p), np.broadcast_to(eps**2 * times, (n_members, n + 1))),
        (RSDEProblem(y0, b, mart), None),
    ]
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.3),
        sigma=smooth_fn("sin_bundle", a=0.5, b=0.9, c=0.3),
        f=tuple(smooth_fn("sin_bundle", a=0.5, c=0.2 * k) for k in range(dim)),
    )
    return coeffs, base, perts


def _report_parts_and_row_builder(n_members, dim):
    """(the report's parts, the same parts from tables built row by row) for
    each perturbation of a `_stability_case`."""
    coeffs, base, perts = _stability_case(n_members, dim, seed=7 * dim + n_members)
    p, q = 2.5, 6.0
    _, reports = stability_experiment(coeffs, base, perts, p=p, q=q)

    def solution(prob):
        y = solve(coeffs, prob.y0, prob.lift, prob.mart).values
        return y, np.stack([fn.f(y) for fn in coeffs.f], axis=-1)

    ya, dya = solution(base)
    n1 = ya.shape[1]
    for rep, (pert, bracket) in zip(reports, perts):
        yb, dyb = solution(pert)
        rows = remainder_mean_rows(ya, dya, base.lift.path.values, yb, dyb, pert.lift.path.values)
        want = {
            "solution": _rows_vp(ya - yb, p, q, 0, n1 - 1),
            "derivative": _rows_vp(dya - dyb, p, q, 0, n1 - 1),
            "remainder": p_variation(magnitude_table(rows, n1, 1.0), p / 2.0),
            "initial": lq_norm(np.atleast_1d(base.y0) - np.atleast_1d(pert.y0), q),
            "martingale": 0.0
            if bracket is None
            else _rows_vp(bracket, p / 2, q / 2, 0, n1 - 1) ** 0.5,
            "lift": _rows_distance(base.lift, pert.lift, p, q, 0, n1 - 1),
        }
        yield {**rep.lhs_parts, **rep.rhs_parts}, want


@pytest.mark.parametrize("p,q", [(2.5, 6.0), (2.0, 4.0)])
@pytest.mark.parametrize("n_members,dim", [(2, 1), (5, 1), (2, 3), (5, 3)])
def test_stability_reports_equal_a_solve_per_bundle(n_members, dim, p, q):
    # the base shares its group with the y0 and martingale perturbations,
    # whose lift has N rows: the stack repeats it once per bundle (a stack
    # that shared it would not broadcast); the lift perturbation is solved
    # alone
    case = _stability_case(n_members, dim, seed=7 * dim + n_members)
    sol, reports = stability_experiment(*case, p=p, q=q)
    want_sol, want = stability_experiment_by_bundle(rsde, *case, p=p, q=q)
    assert reports == want
    assert sol.values.tobytes() == np.ascontiguousarray(want_sol.values).tobytes()
    assert sol.diagnostics == want_sol.diagnostics


@pytest.mark.parametrize("n_members,dim", ROW_CASES)
def test_stability_report_parts_equal_the_row_builder_bitwise(n_members, dim):
    # every part but the remainder, which the next test compares
    for got, want in _report_parts_and_row_builder(n_members, dim):
        del got["remainder"], want["remainder"]
        assert got == want


@pytest.mark.parametrize("n_members,dim", ROW_CASES)
def test_stability_report_remainder_meets_the_row_builder_to_1e_12(n_members, dim):
    # the report's remainder comes from member-mean contractions in
    # difference form, the row builder's from per-member differences of two
    # remainders: they agree to rtol 1e-12, not bit for bit
    for got, want in _report_parts_and_row_builder(n_members, dim):
        assert got["remainder"] > 0
        assert got["remainder"] == pytest.approx(want["remainder"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [7, 11])
def test_stability_base_csv_is_the_row_builders_byte_for_byte(monkeypatch, tmp_path, seed):
    cfg = default_config("stability_base", n=24, ensemble=16, seed=seed)
    cli._write_rows(tmp_path / "new.csv", run_scenario(cfg))
    # every pair-cell seminorm of the scenario from tables built row by row:
    # the reports' rough-path distances and martingale terms, and the Picard
    # update distances of its solve-Picard gap.  The reports' first levels
    # (q = 4, one component) come from `norms._moment_table` and their
    # remainders from `rsde._remainder_table` on both sides, so these bytes
    # do not cover them; the next test and the remainder tests below do
    monkeypatch.setattr(
        rsde, "vp_lq_seminorm", lambda v, p, q: _rows_vp(v, p, q, 0, v.shape[1] - 1)
    )
    monkeypatch.setattr(
        rsde,
        "rough_path_distance",
        lambda a, b, p, q: _rows_distance(a, b, p, q, 0, a.grid.n_steps),
    )
    monkeypatch.setattr(
        rsde,
        "_pair_seminorm",
        lambda increments, n_members, t, p, q, pairs=None: p_variation(
            magnitude_table(pair_rows(increments, 0, t), t + 1, q), p
        ),
    )
    cli._write_rows(tmp_path / "rows.csv", run_scenario(cfg))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("seed", [7, 11])
def test_stability_base_first_levels_meet_the_row_builder_to_1e_13(monkeypatch, seed):
    # the first levels the byte-for-byte test above cannot reach: each
    # report's solution and derivative terms against the row builder's
    # seminorm of the difference the moment table was given
    diffs, reports = [], []
    real_table, real_experiment = rsde._moment_table, rsde.stability_experiment

    def experiment(*args, **kwargs):
        out = real_experiment(*args, **kwargs)
        reports.extend(out[1])
        return out

    monkeypatch.setattr(rsde, "_moment_table", lambda v, q: diffs.append(v) or real_table(v, q))
    monkeypatch.setattr(rsde, "stability_experiment", experiment)
    cfg = default_config("stability_base", n=24, ensemble=16, seed=seed)
    run_scenario(cfg)
    # four eps times three perturbations, two first levels each
    assert len(reports) == 12 and len(diffs) == 24
    for k, rep in enumerate(reports):
        for part, diff in zip(("solution", "derivative"), diffs[2 * k : 2 * k + 2]):
            want = _rows_vp(diff, cfg.p, cfg.q, 0, cfg.n)
            assert rep.lhs_parts[part] > 0
            assert rep.lhs_parts[part] == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# the same bits on every memory layout
# ---------------------------------------------------------------------------


def _time_major(a):
    """A view of `a` with the same shape whose memory runs time-major (axis 1
    outermost, the members strided)."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, 0)), 0, 1)


LAYOUTS = [np.asfortranarray, _time_major]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["fortran", "time_major"])
def test_rerouted_seminorms_do_not_depend_on_memory_layout(layout, dim):
    a = _random_lift(5, dim, seed=dim)
    b = _random_lift(5, dim, seed=dim + 10)
    relaid = [_relaid(a, layout), _relaid(b, layout)]
    assert not relaid[0].path.values.flags.c_contiguous
    x = a.path.values
    # a cell of a Fortran-ordered block in d = 3 can move in its last bits,
    # so many windows, for the seminorms to read many cells
    for s, t in WINDOWS + [(s, s + k) for s in range(0, 36, 5) for k in (2, 4)]:
        for p, q in [(2.5, 1.5), (3.0, 4.0)]:
            for vals in (x, x[..., 0]):
                window, relaid_window = vals[:, s : t + 1], layout(vals)[:, s : t + 1]
                want = vp_lq_seminorm(window, p, q)
                assert vp_lq_seminorm(relaid_window, p, q) == want
                assert np.array_equal(lq_table(relaid_window, q), lq_table(window, q))
            want = _second_seminorm(a, p, q, s, t)
            assert _second_seminorm(relaid[0], p, q, s, t) == want
            assert _distance(*relaid, p, q, s, t) == _distance(a, b, p, q, s, t)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["fortran", "time_major"])
def test_stability_report_does_not_depend_on_memory_layout(layout, dim):
    p, q = 2.5, 6.0
    _, want = stability_experiment(*_stability_case(5, dim, seed=dim), p=p, q=q)
    _, got = stability_experiment(*_stability_case(5, dim, seed=dim, layout=layout), p=p, q=q)
    for g, w in zip(got, want):
        assert (g.lhs_parts, g.rhs_parts) == (w.lhs_parts, w.rhs_parts)


# ---------------------------------------------------------------------------
# the stability remainder table against the per-member sums it replaced
# ---------------------------------------------------------------------------


def _geometric_lift(grid, values):
    dx = np.diff(values, axis=1)
    return RoughLift(SamplePath(grid, values), 0.5 * dx[..., :, None] * dx[..., None, :])


def _remainder_args(dim, eps, tilted, n=96, n_members=128):
    """(Y, Y', X, Yt, Yt', Xt) in `stability_base`'s setting, in d
    dimensions: a straight-line driver shared by the members, with y0 moved
    by eps on it, or the driver tilted by eps t (1 - t) in every direction."""
    grid = make_uniform_grid(1.0, n)
    t = grid.times
    base = _geometric_lift(grid, (t[:, None] * np.array([1.0, -0.5, 0.25][:dim]))[None])
    tilt = _geometric_lift(grid, base.path.values + eps * (t * (1.0 - t))[None, :, None])
    bm = simulate_brownian(1.0, n, seed=7, n_members=n_members)
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.3, b=1.0, c=0.05),
        sigma=smooth_fn("sin_bundle", a=0.5, b=0.9, c=0.3),
        f=tuple(smooth_fn("tanh_affine", a=0.6, b=0.8, c=0.1 * k) for k in range(dim)),
    )
    args = []
    for y0, lift in [(0.1, base), (0.1, tilt) if tilted else (0.1 + eps, base)]:
        y = solve(coeffs, y0, lift, bm).values
        args += [y, np.stack([fn.f(y) for fn in coeffs.f], axis=-1), lift.path.values]
    return args


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="no extended long double")
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("tilted", [False, True], ids=["shared", "tilted"])
def test_remainder_table_is_nearer_an_80_bit_reference(tilted, dim):
    # the per-member form subtracts two remainders that agree to ~eps
    # relative in every member, so at eps = 1e-4 it loses digits that the
    # difference form keeps; at eps = 0.1 both are a few ulp off, where the
    # difference form's rounding of the levels can cost it an ulp or two
    for eps in (1e-1, 1e-4):
        args = _remainder_args(dim, eps, tilted)
        m = args[0].shape[1]
        ref = p_variation(remainder_mean_table_rows(*(a.astype(np.longdouble) for a in args)), 1.0)
        new = p_variation(_remainder_table(*args), 1.0)
        old = p_variation(magnitude_table(remainder_mean_rows(*args), m, 1.0), 1.0)
        new_err, old_err = abs(new - ref) / ref, abs(old - ref) / ref
        if eps == 1e-4:
            assert new_err <= old_err and old_err > 1e-14, (new_err, old_err)
        else:
            assert max(new_err, old_err) <= 2e-14, (new_err, old_err)


def _member_rows(args):
    """`_remainder_args` with each driver broadcast to one row per member."""
    n_members = args[0].shape[0]
    return [
        np.broadcast_to(a, (n_members,) + a.shape[1:]).copy() if k % 3 == 2 else a
        for k, a in enumerate(args)
    ]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("tilted", [False, True], ids=["shared", "tilted"])
def test_remainder_table_of_shared_drivers_meets_the_member_contraction(tilted, dim):
    # a cell is a difference of O(1) contractions, so a small cell can move
    # far in its own last digits: entries are compared to the table's scale
    for eps in (1e-1, 1e-4):
        args = _remainder_args(dim, eps, tilted)
        assert args[2].shape[0] == args[5].shape[0] == 1
        got, want = _remainder_table(*args), _remainder_table(*_member_rows(args))
        assert np.array_equal(np.diag(got), np.zeros(got.shape[0]))
        upper = np.triu_indices(got.shape[0], 1)
        scale = np.max(want[upper])
        assert np.max(np.abs(got - want)[upper]) <= 1e-13 * scale
        assert p_variation(got, 1.0) == pytest.approx(p_variation(want, 1.0), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("member", [0, 1])
def test_remainder_table_of_shared_drivers_keeps_a_nan_member_nan(member):
    args = _remainder_args(3, 1e-2, True, n=32, n_members=16)
    args[member] = np.array(args[member])
    args[member][5, 20:] = np.nan
    got, want = _remainder_table(*args), _remainder_table(*_member_rows(args))
    upper = np.triu_indices(got.shape[0], 1)
    assert np.isnan(got[upper]).any()
    assert np.array_equal(np.isnan(got[upper]), np.isnan(want[upper]))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["fortran", "time_major"])
def test_remainder_table_does_not_depend_on_memory_layout(layout, dim):
    rng = np.random.default_rng(dim)
    ya, yb = np.cumsum(rng.standard_normal((2, 64, 41)), axis=2)
    dya, dyb, member_xa = rng.standard_normal((3, 64, 41, dim))
    xb = rng.standard_normal((1, 41, dim))  # a driver shared by the members
    # one driver per member, then both drivers shared (the mean-first path)
    for xa in (member_xa, member_xa[:1]):
        args = [ya, dya, xa, yb, dyb, xb]
        relaid = [layout(a) for a in args]
        # a one-member driver can be C- and F-ordered at once
        assert not any(a.flags.c_contiguous for a in relaid[:5] if a.shape[0] > 1)
        assert np.array_equal(_remainder_table(*relaid), _remainder_table(*args))


def test_a_diverged_member_makes_the_remainder_and_the_ratio_nan(monkeypatch):
    coeffs, base, perts = _stability_case(5, 2, seed=3)
    real_solve = rsde.solve

    def diverging_solve(coeffs, y0, lift, mart=None):
        res = real_solve(coeffs, y0, lift, mart)
        if lift is perts[-1][0].lift:  # the lift perturbation: member 3 is NaN from step 20 on
            res.values = np.array(res.values)
            res.values[3, 20:] = np.nan
        return res

    monkeypatch.setattr(rsde, "solve", diverging_solve)
    _, reports = stability_experiment(coeffs, base, perts)
    assert [np.isnan(rep.lhs_parts["remainder"]) for rep in reports] == [False, False, True]
    assert np.isnan(reports[-1].ratio)
    assert np.isfinite(reports[-1].rhs)


@pytest.mark.parametrize("member", [5 + 3, 1], ids=["y0_perturbation", "base"])
def test_a_diverged_member_of_a_stacked_group_stays_in_its_bundle(monkeypatch, member):
    # the base, its y0 perturbation and its martingale perturbation are one
    # stacked solve of 15 members; a NaN start makes one of them diverge in
    # the solver (the reports' own y0 stay finite).  Only that bundle's
    # remainder and ratio are NaN, and the base result flags its own
    # members only.  The group's warning counts the group's diverged members
    coeffs, base, perts = _stability_case(5, 2, seed=3)
    real_solve = rsde.solve

    def nan_start(coeffs, y0, lift, mart=None):
        if np.shape(y0) == (15,):
            y0 = y0.copy()
            y0[member] = np.nan
        return real_solve(coeffs, y0, lift, mart)

    monkeypatch.setattr(rsde, "solve", nan_start)
    with pytest.warns(UserWarning, match=r"^1 member\(s\) diverged"):
        sol, reports = stability_experiment(coeffs, base, perts)
    nan = [np.isnan(rep.lhs_parts["remainder"]) for rep in reports]
    assert nan == [np.isnan(rep.ratio) for rep in reports]
    assert all(np.isfinite(rep.rhs) for rep in reports)
    if member == 1:  # a base member: every report reads it
        assert nan == [True, True, True]
        assert sol.diagnostics["diverged"].tolist() == [False, True, False, False, False]
    else:
        assert nan == [True, False, False]
        assert "diverged" not in sol.diagnostics


# ---------------------------------------------------------------------------
# the q = 4 member-moment table against the pair cells it replaces
# ---------------------------------------------------------------------------

MOMENT_CELL_RTOL, MOMENT_SEMINORM_RTOL = 1e-12, 1e-13


def _assert_moments_meet_pair_cells(vals, p=2.0):
    """The moment table of scalar (N, m) values against `lq_table` and its
    p-variation against `vp_lq_seminorm`; returns the guarded cells."""
    table, (ii, jj) = _moment_table(vals, 4.0)
    # atol 0: a zero cell of the pair cells is a zero cell of the moments
    assert np.allclose(table, lq_table(vals, 4.0), rtol=MOMENT_CELL_RTOL, atol=0.0)
    # every guarded cell is `lq_norm` of its raw increment, bit for bit
    for i, j in zip(ii, jj):
        want = np.float64(lq_norm(vals[:, j] - vals[:, i], 4.0))
        assert table[i, j].tobytes() == want.tobytes(), (i, j)
    got, want = p_variation(table, p), vp_lq_seminorm(vals, p, 4.0)
    assert got == pytest.approx(want, rel=MOMENT_SEMINORM_RTOL, abs=0.0)
    return ii.size


def _stability_first_levels(monkeypatch, **overrides):
    """Run `stability_base` and return (the values each moment table was
    built from, the guarded cells of each, the pair-cell member-cells each
    reduced)."""
    built, inside = [], []
    real_table, real_cells = rsde._moment_table, norms._pair_cells

    def cells(increments, n_members, q, ii, jj):
        if inside:
            inside[-1] += n_members * ii.size
        return real_cells(increments, n_members, q, ii, jj)

    def table(values, q):
        inside.append(0)
        try:
            out = real_table(values, q)
        finally:
            member_cells = inside.pop()
        built.append((np.array(values), out[1][0].size, member_cells))
        return out

    monkeypatch.setattr(rsde, "_moment_table", table)
    monkeypatch.setattr(norms, "_pair_cells", cells)
    run_scenario(default_config("stability_base", **overrides))
    return built


@pytest.mark.parametrize("seed", [7, 11, 19])
def test_moment_tables_meet_pair_cells_on_stability_base_inputs(monkeypatch, seed):
    # Y - Yt and Y' - Yt' of every report at the scenario's defaults; seed
    # 19 was not among those the guard was tried on
    built = _stability_first_levels(monkeypatch, seed=seed)
    monkeypatch.undo()
    cells = 0
    for vals, guarded, _ in built:
        assert _assert_moments_meet_pair_cells(vals) == guarded
        cells += vals.shape[1] * (vals.shape[1] - 1) // 2
    assert 0 < sum(guarded for _, guarded, _ in built) < 0.1 * cells


def test_stability_base_builds_24_moment_tables(monkeypatch):
    # at the defaults: two first levels for each of the 12 reports, whose
    # pair cells are the guarded cells and no more; a silent fallback to pair
    # cells would show here and not only as lost speed
    built = _stability_first_levels(monkeypatch)
    assert [vals.shape[:2] for vals, _, _ in built] == [(128, 97)] * 24
    for _, guarded, member_cells in built:
        assert 0 < guarded < 97 * 96 // 2
        assert member_cells == 128 * guarded
    # other q stay on `vp_lq_seminorm`
    monkeypatch.undo()
    assert _stability_first_levels(monkeypatch, n=24, ensemble=16, q=6.0) == []


def test_moment_table_centres_away_a_large_level():
    w = simulate_brownian(1.0, 64, seed=9, n_members=50).values[..., 0]
    _assert_moments_meet_pair_cells(1e6 + 1e-6 * w)


def test_moment_table_guards_a_slowly_drifting_path(monkeypatch):
    # a drift of 1 over the grid under noise of 1e-7: the short increments
    # are tiny next to the distance from the time-mean, where the sums cancel
    t = make_uniform_grid(1.0, 96).times
    w = simulate_brownian(1.0, 96, seed=4, n_members=128).values[..., 0]
    vals = t[None, :] + 1e-7 * w
    assert _assert_moments_meet_pair_cells(vals) > 0
    # without the guard the same sums miss the pair cells
    monkeypatch.setitem(norms._MOMENT_RTOL, 4.0, np.inf)
    unguarded, (ii, _) = _moment_table(vals, 4.0)
    assert ii.size == 0
    assert not np.allclose(unguarded, lq_table(vals, 4.0), rtol=MOMENT_CELL_RTOL, atol=0.0)


def test_moment_table_of_an_all_zero_difference_is_zero():
    vals = np.zeros((16, 33))
    table, _ = _moment_table(vals, 4.0)
    assert np.array_equal(table, np.zeros((33, 33)))
    assert p_variation(table, 2.0) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_moment_table_of_a_non_finite_member_is_all_pair_cells(bad):
    vals = simulate_brownian(1.0, 40, seed=2, n_members=32).values[..., 0]
    vals[5, 17] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        table, (ii, _) = _moment_table(vals, 4.0)
        want = lq_table(vals, 4.0)
        got = p_variation(table, 2.0)
        assert _kind(got) == _kind(vp_lq_seminorm(vals, 2.0, 4.0)) == _kind(bad)
    assert ii.size == 41 * 40 // 2
    assert np.array_equal(table, want, equal_nan=True)


@pytest.mark.parametrize("layout", LAYOUTS, ids=["fortran", "time_major"])
def test_moment_table_does_not_depend_on_memory_layout(layout):
    vals = simulate_brownian(1.0, 48, seed=6, n_members=64).values[..., 0]
    vals = vals + 0.5 * make_uniform_grid(1.0, 48).times  # some guarded cells
    relaid = layout(vals)
    assert not relaid.flags.c_contiguous
    (got, (gi, gj)), (want, (wi, wj)) = _moment_table(relaid, 4.0), _moment_table(vals, 4.0)
    assert gi.size > 0
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(gi, wi) and np.array_equal(gj, wj)


@pytest.mark.parametrize("budget", [1, "m", "3m", 2**20])
@pytest.mark.parametrize("q,dim", [(2.0, 2), (4.0, 1)])
def test_moment_table_does_not_depend_on_its_row_blocks(monkeypatch, q, dim, budget):
    # a drift under noise, so that both tables have guarded cells; budgets 1
    # and m give one row per block, 3m three rows and 2^20 every row, against
    # the default blocks
    t = make_uniform_grid(1.0, 96).times
    w = simulate_brownian(1.0, 96, seed=3, n_members=64, dim=dim).values
    vals = t[None, :, None] + 1e-7 * w
    m = vals.shape[1]
    want, (wi, wj) = _moment_table(vals, q)
    assert wi.size > 0
    budget = {"m": m, "3m": 3 * m}.get(budget, budget)
    monkeypatch.setattr(norms, "_PAIR_CELL_BUDGET", budget)
    got, (gi, gj) = _moment_table(vals, q)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(gi, wi) and np.array_equal(gj, wj)


# ---------------------------------------------------------------------------
# one argument rule for the public seminorms
# ---------------------------------------------------------------------------


def _seminorm_calls(lift, other):
    x = lift.path.values
    return {
        "lq_table": lambda q=4.0: lq_table(x, q),
        "vp_lq_seminorm": lambda q=4.0, p=2.5: vp_lq_seminorm(x, p, q),
        "second_level_seminorm": lambda q=4.0, p=2.5: second_level_seminorm(lift, p, q),
        "rough_path_distance": lambda q=4.0, p=2.5: rough_path_distance(lift, other, p, q),
    }


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"q": 0.5}, "q >= 1, got q=0.5"),
        ({"q": 0.0}, "q >= 1, got q=0.0"),
        ({"q": float("nan")}, "q >= 1, got q=nan"),
        ({"q": float("inf")}, "q >= 1, got q=inf"),
    ],
)
def test_public_seminorms_refuse_bad_arguments_in_one_line(kwargs, match):
    calls = _seminorm_calls(_lift(3, 2, seed=5), _lift(3, 2, seed=6))
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} needs .*{match}$".replace("(", "\\(")):
            call(**kwargs)


def test_seminorm_exponents_below_one_are_refused():
    lift, other = _lift(3, 2, seed=5), _lift(3, 2, seed=6)
    calls = _seminorm_calls(lift, other)
    with pytest.raises(ValueError, match="^vp_lq_seminorm needs finite p and q >= 1, got p=0.5$"):
        calls["vp_lq_seminorm"](p=0.5)
    for name in ("second_level_seminorm", "rough_path_distance"):
        with pytest.raises(ValueError, match=f"^{name} needs finite p/2 and q >= 1, got p/2=0.75$"):
            calls[name](p=1.5)
        with pytest.raises(ValueError, match="got p/2=0.25, q=0.5$"):
            calls[name](p=0.5, q=0.5)


def test_seminorms_of_a_one_point_window_are_zero():
    lift, other = _lift(3, 2, seed=5), _lift(3, 2, seed=6)
    x = lift.path.values[:, 4:5]
    assert np.array_equal(lq_table(x, 4.0), np.zeros((1, 1)))
    assert vp_lq_seminorm(x, 2.5, 4.0) == 0.0
    assert _second_seminorm(lift, 2.5, 4.0, 4, 4) == 0.0
    assert _distance(lift, other, 2.5, 4.0, 4, 4) == 0.0

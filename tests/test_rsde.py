"""The RSDE solver: one-step scheme, Picard mode, jumps, stability."""

import collections
import dataclasses
import functools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from roughsew import calculus, paths, rsde, scenarios
from roughsew.calculus import smooth_fn
from roughsew.grids import make_uniform_grid, p_variation
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
)
from roughsew.norms import _pair_seminorm, vp_lq_seminorm
from roughsew.rsde import (
    _WINDOW_THRESHOLD,
    CoefficientSet,
    RSDEProblem,
    _plan_windows,
    build_event_schedule,
    picard_solve,
    solve,
    stability_experiment,
)
from roughsew.scenarios import default_config, run_scenario

from oracles import (
    add_germ,
    add_germ_einsum,
    brownian_milstein_whole_ensemble,
    euler_maruyama_reference,
    event_schedule_loop,
    magnitude_table,
    pair_rows,
    picard_allocating_loop,
    picard_full_sweep,
    plan_windows_by_columns,
    plan_windows_one_step,
    shifted_increments,
    solve_member_major,
    stability_experiment_by_bundle,
    window_control,
)


def _linear_coeffs():
    return CoefficientSet(f=smooth_fn("linear"))


def _germ_once(coeffs, y, dt, dm, dx, xx):
    """The germ kernel from y on one event with the given increments."""
    sched = rsde.EventSchedule(
        np.array([dt]), np.atleast_2d(dm), np.asarray(dx)[None], np.asarray(xx)[None],
        dest=np.array([1]), event_start=np.array([0, 1]), jump_indices=np.array([], dtype=np.int64),
    )
    fs = coeffs.f_components()
    out = np.empty_like(y)
    rsde._germ_kernel(coeffs, fs, sched)(y, y, out, rsde._germ_scratch(fs, y.shape), 0, False)
    return out


def test_step_zero_increments_is_identity():
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine"), sigma=smooth_fn("sin_bundle"), f=smooth_fn("sin_bundle")
    )
    y = np.array([0.3, -1.2, 7.0])
    out = _germ_once(coeffs, y, 0.0, 0.0, np.zeros((3, 1)), np.zeros((3, 1, 1)))
    assert np.array_equal(out, y)


def test_step_rough_germ_example():
    # f(y) = y, one step with increment dx and second level dx^2/2:
    # y -> y (1 + dx + dx^2/2), the second-order Taylor germ of y e^dx
    coeffs = _linear_coeffs()
    y0, dx = 2.0, 0.1
    out = _germ_once(coeffs, np.array([y0]), 0.0, 0.0, np.array([[dx]]), np.array([[[0.5 * dx**2]]]))
    assert out[0] == pytest.approx(y0 * (1.0 + dx + 0.5 * dx**2), abs=1e-15)


def _germ_drivers(dim):
    b, s = smooth_fn("tanh_affine", a=0.4, b=0.9), smooth_fn("sin_bundle", a=0.5, b=1.1, c=0.2)
    if dim == 1:  # a jump driver, so jump events are among the increments
        mix = simulate_mixed(1.0, 32, seed=37, n_members=16, rate=3.0)
        lift, mart = mix.lift, mix.martingale
        f = smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1)
    else:  # a planar rough driver next to a scalar martingale
        lift = ito_lift_brownian(simulate_brownian(1.0, 32, seed=39, n_members=16, dim=2), seed=39)
        mart = simulate_brownian(1.0, 32, seed=41, n_members=16)
        f = (smooth_fn("sin_bundle", a=0.7, c=0.1), smooth_fn("tanh_affine", a=0.5, b=0.8, c=0.2))
    return CoefficientSet(b=b, sigma=s, f=f), lift, mart


@pytest.mark.parametrize("dim", [1, 2])
def test_germ_kernel_matches_the_oracle_germs_bitwise(dim):
    # at d = 2 too: the sums run over the directions in einsum's order
    coeffs, lift, mart = _germ_drivers(dim)
    sched = build_event_schedule(lift, mart)
    fs = coeffs.f_components()
    germ = rsde._germ_kernel(coeffs, fs, sched)
    y = np.linspace(-1.5, 1.5, 16)
    # solve: one event at a time, shape (N,), from y into another row
    out, scratch = np.empty_like(y), rsde._germ_scratch(fs, y.shape)
    for e in range(sched.dt.size):
        args = (sched.dt[e], sched.dm[e], sched.dx[e], sched.xx[e])
        for zero_starts in (False, True):
            germ(y, y, out, scratch, e, zero_starts)
            for oracle in (add_germ, add_germ_einsum):
                assert out.tobytes() == oracle(y, y, coeffs, fs, *args).tobytes()
    # Picard: every event at once, time-major (L, N), from 0.0
    ys = np.cos(np.arange(sched.dt.size))[:, None] * y[None, :]
    out = np.empty_like(ys)
    germ(0.0, ys, out, rsde._germ_scratch(fs, ys.shape), slice(None), True)
    zero = np.zeros_like(ys)
    args = (sched.dt[:, None], sched.dm, sched.dx, sched.xx)
    for oracle in (add_germ, add_germ_einsum):
        assert out.tobytes() == oracle(zero, ys, coeffs, fs, *args).tobytes()


def _counted(fn, role, calls):
    """fn whose f, df and d2f count their calls in calls[role, name]."""

    def count(name, g):
        def counted(y):
            calls[role, name] += 1
            return g(y)

        return counted

    return dataclasses.replace(fn, **{k: count(k, getattr(fn, k)) for k in ("f", "df", "d2f")})


@pytest.mark.parametrize("dim", [1, 2])
def test_solvers_evaluate_each_coefficient_once_per_event(dim):
    # solve: one f per coefficient and one df per rough component per event;
    # Picard: the same per iteration that has germ rows, over those rows at
    # once
    coeffs, lift, mart = _germ_drivers(dim)
    calls = collections.Counter()
    fs = tuple(_counted(fn, f"f{i}", calls) for i, fn in enumerate(coeffs.f_components()))
    counted = CoefficientSet(
        b=_counted(coeffs.b, "b", calls), sigma=_counted(coeffs.sigma, "sigma", calls),
        f=fs if dim > 1 else fs[0],
    )
    roles = ["b", "sigma", *(f"f{i}" for i in range(dim))]

    def once_each(k):
        return collections.Counter(
            {**{(r, "f"): k for r in roles}, **{(f"f{i}", "df"): k for i in range(dim)}}
        )

    y0 = np.linspace(-0.5, 0.5, lift.path.n_members)
    res = solve(counted, y0, lift, mart)
    assert calls == once_each(res.diagnostics["n_events"])
    calls.clear()
    res = picard_solve(counted, y0, lift, mart)
    # an iteration k of a window of E_w events has germ rows k..E_w-1 while
    # k < E_w; the rest, when they run, take no germ
    starts = build_event_schedule(lift, mart).event_start
    with_rows = [
        min(k, int(starts[t] - starts[s]))
        for (s, t), k in zip(res.diagnostics["windows"], res.diagnostics["iterations"])
    ]
    assert calls == once_each(sum(with_rows))
    assert sum(with_rows) < sum(res.diagnostics["iterations"])


def test_a_constant_derivative_enters_as_its_scalar(monkeypatch):
    # the registry's linear entry has the constant derivative a: the solvers
    # multiply by the scalar and never build an array of it
    calls = []
    real_call = calculus._Constant.__call__
    monkeypatch.setattr(
        calculus._Constant, "__call__", lambda fn, y: calls.append(y.shape) or real_call(fn, y)
    )
    coeffs = _linear_set()
    lift, mart = _schedule_cases()["x_and_m_jumps"]
    solve(coeffs, 0.2, lift, mart)
    picard_solve(coeffs, 0.2, lift, mart)
    assert calls == []
    assert np.array_equal(coeffs.f.df(np.zeros(3)), np.full(3, 0.7))


def _mixed_linear_set(dim, order):
    """The drivers of `_germ_drivers(dim)` with a registry `linear` among the
    rough directions: alone at d = 1, first or last next to a non-linear
    direction at d = 2."""
    coeffs, lift, mart = _germ_drivers(dim)
    lin = smooth_fn("linear", a=0.6, c=-0.15)
    fs = (lin,) if dim == 1 else (lin, coeffs.f[0])[::order]
    mixed = CoefficientSet(b=coeffs.b, sigma=coeffs.sigma, f=fs if dim > 1 else fs[0])
    return mixed, lift, mart


@pytest.mark.parametrize("dim, order", [(1, 1), (2, 1), (2, -1)], ids=["d1", "d2_first", "d2_last"])
def test_linear_directions_match_the_oracles_bitwise(dim, order, monkeypatch):
    # the kernel writes a linear f as a * y, then += c, into its scratch row:
    # the two operations of a * y + c, so the bits are the oracles'
    coeffs, lift, mart = _mixed_linear_set(dim, order)
    calls = []
    real_call = calculus._Affine.__call__
    monkeypatch.setattr(
        calculus._Affine, "__call__", lambda fn, y: calls.append(np.shape(y)) or real_call(fn, y)
    )
    y0 = np.linspace(-0.5, 0.5, lift.path.n_members)
    solve(coeffs, y0, lift, mart)
    picard_solve(coeffs, y0, lift, mart)
    assert calls == []  # only the oracles below call the linear f
    n = lift.grid.n_steps
    _assert_solve_matches_oracles(coeffs, y0, lift, mart, [(0, n), (n // 3, 2 * n // 3)])
    _assert_picard_matches_oracles(coeffs, y0, lift, mart)


def test_solve_constant_when_no_coefficients():
    bm = simulate_brownian(1.0, 16, seed=1, n_members=3)
    lift = ito_lift_brownian(bm)
    res = solve(CoefficientSet(), 0.7, lift, bm)
    assert np.all(res.values == 0.7)


def test_solve_sigma_only_is_euler_maruyama_bitwise():
    bm = simulate_brownian(1.0, 64, seed=3, n_members=32)
    lift = ito_lift_brownian(bm)
    b = smooth_fn("tanh_affine", a=0.5, b=1.0, c=0.1)
    s = smooth_fn("sin_bundle", a=0.8, b=1.0, c=0.4)
    res = solve(CoefficientSet(b=b, sigma=s), 0.3, lift, bm)
    ref = euler_maruyama_reference(
        np.full(32, 0.3), b.f, s.f, bm.grid.steps(), bm.increments()[..., 0]
    )
    assert np.array_equal(res.values, ref)


def test_solve_smooth_exponential_closed_form():
    coeffs = _linear_coeffs()
    lift = smooth_lift("polynomial", 1.0, 256)
    res = solve(coeffs, 1.0, lift)
    exact = np.exp(lift.path.values[0, :, 0])
    assert np.max(np.abs(res.values[0] - exact)) < 5e-5


def test_solve_brownian_geometric_strong_error():
    bm = simulate_brownian(1.0, 512, seed=5, n_members=256)
    lift = ito_lift_brownian(bm)
    coeffs = _linear_coeffs()
    res = solve(coeffs, 1.0, lift, bm)
    exact = np.exp(bm.values[:, -1, 0] - 0.5)
    rmse = np.sqrt(np.mean((res.values[:, -1] - exact) ** 2))
    assert rmse < 0.02


def test_solve_flow_property_bitwise():
    bm = simulate_brownian(1.0, 64, seed=7, n_members=8)
    lift = ito_lift_brownian(bm)
    coeffs = CoefficientSet(b=smooth_fn("tanh_affine"), sigma=smooth_fn("sin_bundle"))
    full = solve(coeffs, 0.2, lift, bm)
    first = solve(coeffs, 0.2, lift, bm, stop=32)
    second = solve(coeffs, first.values[:, 32], lift, bm, start=32)
    assert np.array_equal(second.values[:, 32:], full.values[:, 32:])


def test_solve_never_builds_the_second_level_prefix():
    # the solver reads per-step second levels only; the Chen prefix is derived
    # on first use, so a solve must leave it unbuilt
    bm = simulate_brownian(1.0, 16, seed=9, n_members=3)
    lift = ito_lift_brownian(bm)
    solve(CoefficientSet(f=smooth_fn("sin_bundle", a=0.5)), 0.1, lift, bm)
    assert "second_prefix" not in lift.__dict__


def test_solution_jump_structure_from_left_limits():
    mix = simulate_mixed(1.0, 64, seed=11, n_members=16, rate=3.0)
    b = smooth_fn("tanh_affine", a=0.4, b=0.9)
    s = smooth_fn("sin_bundle", a=0.5, b=1.1, c=0.2)
    f = smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1)
    res = solve(CoefficientSet(b=b, sigma=s, f=f), 0.2, mix.lift, mix.martingale)
    jumps = res.jump_indices
    assert jumps.size > 0
    left = res.left_values
    assert np.all(np.isfinite(left))
    dmj = mix.martingale.values[:, jumps, 0] - mix.martingale.left_values[..., 0]
    dxj = mix.lift.path.jump_sizes()[..., 0]
    dxxj = mix.lift.jump_second[..., 0, 0]
    pred = left + s.f(left) * dmj + f.f(left) * dxj + f.df(left) * f.f(left) * dxxj
    assert np.max(np.abs(res.values[:, jumps] - pred)) <= 1e-12


def test_solve_flags_divergent_members():
    # an unbounded drift with a coarse grid overflows; the solver warns and
    # records which members diverged instead of raising
    bm = simulate_brownian(1.0, 4, seed=13, n_members=2)
    lift = ito_lift_brownian(bm)
    stiff = CoefficientSet(b=smooth_fn("linear", a=1e200))
    with pytest.warns(UserWarning, match="diverged"):
        res = solve(stiff, 10.0, lift, bm)
    assert res.diagnostics["diverged"].all()


def test_picard_flags_divergent_members():
    # the same overflow through the fixed-point mode: every member is flagged
    # with the same warning and diagnostics as the one-step scheme
    bm = simulate_brownian(1.0, 4, seed=13, n_members=2)
    lift = ito_lift_brownian(bm)
    stiff = CoefficientSet(b=smooth_fn("linear", a=1e200))
    with pytest.warns(UserWarning) as caught:
        res = picard_solve(stiff, 10.0, lift, bm)
    assert [str(w.message) for w in caught] == ["2 member(s) diverged (NaN/overflow)"]
    assert res.diagnostics["diverged"].all()
    assert res.diagnostics["n_events"] == 4
    # once no member is finite the window ends instead of running to max_iter
    assert res.diagnostics["iterations"] == [2, 1, 1, 1]


def test_picard_diverged_member_leaves_finite_members_alone():
    # two members on one driving path: the second overflows, the first must
    # iterate exactly as it does alone, with no max_iter warning
    bm1 = simulate_brownian(1.0, 128, seed=21)
    bm2 = MartingalePath(
        grid=bm1.grid, values=np.repeat(bm1.values, 2, axis=0), bracket=bm1.bracket
    )
    coeffs = CoefficientSet(b=smooth_fn("linear", a=2.0), sigma=smooth_fn("sin_bundle", a=0.5))
    solo = picard_solve(coeffs, 0.3, ito_lift_brownian(bm1), bm1)
    with pytest.warns(UserWarning) as caught:
        mixed = picard_solve(coeffs, [0.3, 1e308], ito_lift_brownian(bm2), bm2)
    assert [str(w.message) for w in caught] == ["1 member(s) diverged (NaN/overflow)"]
    assert mixed.diagnostics["diverged"].tolist() == [False, True]
    assert len(solo.diagnostics["windows"]) > 1
    assert mixed.diagnostics["windows"] == solo.diagnostics["windows"]
    assert mixed.diagnostics["iterations"] == solo.diagnostics["iterations"]
    assert max(solo.diagnostics["iterations"]) > 2
    assert np.array_equal(mixed.values[0], solo.values[0])


def _schedule_cases():
    mix = simulate_mixed(1.0, 24, seed=31, n_members=5, rate=3.0)
    cp = simulate_compound_poisson(1.0, 3.0, 24, seed=33, n_members=5)
    # a Brownian on the jump path's grid: the base points bridged over its jump times
    bridge = np.random.default_rng(33)
    bm_cp = paths._bridged(simulate_brownian(1.0, 24, 33, n_members=5), cp.path.grid, bridge)
    bm = simulate_brownian(1.0, 24, seed=35, n_members=5)
    return {
        "x_and_m_jumps": (mix.lift, mix.martingale),
        "lift_jumps_only": (mix.lift, None),
        "m_jumps_only": (ito_lift_brownian(bm_cp), cp.martingale),
        "no_jumps": (ito_lift_brownian(bm), bm),
    }


_SCHEDULE_CASES = ["x_and_m_jumps", "lift_jumps_only", "m_jumps_only", "no_jumps"]


def _loop_schedule(lift, mart):
    """`event_schedule_loop` on (lift, mart): member-major event arrays."""
    path = lift.path
    return event_schedule_loop(
        lift.grid.steps(), path.values, lift.step_second, path.jump_indices,
        path.left_values, lift.jump_second,
        m=None if mart is None else mart.values[..., 0],
        m_jumps=() if mart is None else mart.jump_indices,
        m_left=None if mart is None or mart.left_values is None else mart.left_values[..., 0],
    )


def _loop_dest(ref, n):
    """Grid events land on their grid index, left-limit events on the row
    after the grid that belongs to their jump."""
    left_row = n + 1 + np.searchsorted(ref["jump_indices"], ref["grid_index"])
    return np.where(ref["lands_on_grid"], ref["grid_index"], left_row)


def _time_major(a):
    """The same values laid out time-major: axis 1 outermost in memory."""
    return None if a is None else np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, 0)), 0, 1)


def _time_major_drivers(lift, mart):
    """(lift, mart) with every per-grid-point array laid out time-major."""
    p = lift.path
    path = SamplePath(
        grid=p.grid, values=_time_major(p.values), jump_indices=p.jump_indices,
        left_values=_time_major(p.left_values),
    )
    lift = RoughLift(
        path=path, step_second=_time_major(lift.step_second),
        jump_second=_time_major(lift.jump_second),
    )
    if mart is not None:
        mart = MartingalePath(
            grid=mart.grid, values=_time_major(mart.values), jump_indices=mart.jump_indices,
            left_values=_time_major(mart.left_values), bracket=_time_major(mart.bracket),
        )
    return lift, mart


_LAYOUTS = {"member_major": lambda lift, mart: (lift, mart), "time_major": _time_major_drivers}


def _all_coeffs():
    return CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.4, b=0.9),
        sigma=smooth_fn("sin_bundle", a=0.5, b=1.1, c=0.2),
        f=smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1),
    )


@pytest.mark.parametrize("case", _SCHEDULE_CASES)
def test_event_schedule_matches_step_loop_oracle(case):
    lift, mart = _schedule_cases()[case]
    ref = _loop_schedule(lift, mart)
    sched = build_event_schedule(lift, mart)
    assert (ref["jump_indices"].size > 0) == (case != "no_jumps")
    # the schedule is time-major, the oracle member-major
    for key in ("dm", "dx", "xx"):
        assert np.array_equal(np.moveaxis(getattr(sched, key), 0, 1), ref[key]), key
    for key in ("dt", "event_start", "jump_indices"):
        assert np.array_equal(getattr(sched, key), ref[key]), key
    assert np.array_equal(sched.dest, _loop_dest(ref, lift.grid.n_steps))
    # every event's increments are contiguous rows
    assert all(a.flags.c_contiguous for a in (sched.dm, sched.dx, sched.xx))


def _linear_set():
    # every coefficient a registry `linear`, whose derivative the kernel reads
    # as a scalar
    return CoefficientSet(
        b=smooth_fn("linear", a=-0.3, c=0.1), sigma=smooth_fn("linear", a=0.2),
        f=smooth_fn("linear", a=0.7),
    )


def _same_bytes(a, b):
    """Equal shapes and bytes: unlike ==, this tells -0.0 from +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_solve_matches_oracles(coeffs, y0, lift, mart, ranges):
    """`solve` against the member-major loop with both oracle germs, bytewise."""
    n = lift.grid.n_steps
    ref = _loop_schedule(lift, mart)
    args = (ref["dt"], ref["dm"], ref["dx"], ref["xx"], _loop_dest(ref, n), ref["event_start"])
    n_jumps = ref["jump_indices"].size
    for start, stop in ranges:
        res = solve(coeffs, y0, lift, mart, start=start, stop=stop)
        for germ in (add_germ, add_germ_einsum):
            values, left = solve_member_major(
                germ, coeffs, coeffs.f_components(), y0, *args, n_jumps, start=start, stop=stop
            )
            assert _same_bytes(res.values, values), (germ.__name__, start)
            assert _same_bytes(res.left_values, left), (germ.__name__, start)
    return res


def _expected_distances(distances, end_terms, tol):
    """The recorded distances `picard_solve` owes the oracle's iterations:
    the end term where it is at or above tol, the full distance otherwise."""
    return [
        [e if e >= tol else d for d, e in zip(dists, ends)]
        for dists, ends in zip(distances, end_terms)
    ]


def _assert_picard_matches_full_sweep(coeffs, y0, lift, mart, **kw):
    """`picard_solve` against the loop that takes every germ of a window in
    every iteration: values, left values, diagnostics and warnings, bytewise."""
    runs = []
    for solver in (picard_solve, functools.partial(picard_full_sweep, rsde)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solver(coeffs, y0, lift, mart, **kw)
        runs.append((res, [str(w.message) for w in caught]))
    (res, said), (ref, want) = runs
    assert said == want
    assert _same_bytes(res.values, ref.values) and _same_bytes(res.left_values, ref.left_values)
    got, exp = dict(res.diagnostics), dict(ref.diagnostics)
    assert _same_bytes(got.pop("diverged", np.zeros(0)), exp.pop("diverged", np.zeros(0)))
    assert _same_bytes(np.array(sum(got.pop("distances"), [])),
                       np.array(sum(exp.pop("distances"), [])))
    assert got == exp
    return res


def _assert_picard_matches_oracles(coeffs, y0, lift, mart):
    """`picard_solve` against the allocating loop with both oracle germs, and
    against the full-sweep loop, bytewise."""
    tol = 1e-9  # both sides' default
    res = _assert_picard_matches_full_sweep(coeffs, y0, lift, mart)
    for germ in (add_germ, add_germ_einsum):
        values, left, iterations, distances, end_terms = picard_allocating_loop(
            rsde, germ, coeffs, y0, lift, mart
        )
        assert _same_bytes(res.values, values), germ.__name__
        assert _same_bytes(res.left_values, left), germ.__name__
        assert res.diagnostics["iterations"] == iterations
        want = _expected_distances(distances, end_terms, tol)
        assert _same_bytes(np.array(sum(res.diagnostics["distances"], [])),
                           np.array(sum(want, [])))
    return res


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("case", _SCHEDULE_CASES)
def test_solve_matches_member_major_loop_oracle_bitwise(case, layout):
    lift, mart = _LAYOUTS[layout](*_schedule_cases()[case])
    n = lift.grid.n_steps
    y0 = np.linspace(-0.5, 0.5, lift.path.n_members)
    for coeffs in (_all_coeffs(), _linear_set()):
        # the full range and a restart
        _assert_solve_matches_oracles(coeffs, y0, lift, mart, [(0, n), (n // 3, 2 * n // 3)])


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("case", _SCHEDULE_CASES)
def test_picard_matches_the_allocating_loop_oracle_bitwise(case, layout):
    lift, mart = _LAYOUTS[layout](*_schedule_cases()[case])
    y0 = np.linspace(-0.5, 0.5, lift.path.n_members)
    for coeffs in (_all_coeffs(), _linear_set()):
        _assert_picard_matches_oracles(coeffs, y0, lift, mart)


def _full_sweep_cases():
    bm = simulate_brownian(1.0, 4, seed=13, n_members=2)
    stiff = CoefficientSet(b=smooth_fn("linear", a=1e200))
    small = simulate_brownian(0.1, 8, seed=5, n_members=16)
    mix = simulate_mixed(1.0, 128, 7, n_members=64, rate=2.0, jump_params=(0.3, 0.45))
    planar, lift2, mart2 = _germ_drivers(2)
    cases = {
        "diverged": (stiff, 10.0, ito_lift_brownian(bm), bm, {}),
        "jump_mix": (_all_coeffs(), 0.2, mix.lift, mix.martingale, dict(tol=1e-10, max_iter=80)),
        "planar": (planar, np.linspace(-0.5, 0.5, 16), lift2, mart2, {}),
    }
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.4, b=0.9), f=smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1)
    )
    for max_iter in (1, 2, 3):  # windows that stop at max_iter, with one step and more
        cases[f"max_iter_{max_iter}"] = (
            coeffs, 0.2, ito_lift_brownian(small), None, dict(tol=1e-14, max_iter=max_iter)
        )
    return cases


@pytest.mark.parametrize("case", list(_full_sweep_cases()))
def test_picard_matches_the_full_sweep_oracle_bitwise(case):
    coeffs, y0, lift, mart, kw = _full_sweep_cases()[case]
    res = _assert_picard_matches_full_sweep(coeffs, y0, lift, mart, **kw)
    if case == "jump_mix":
        assert max(res.diagnostics["iterations"]) > 3


def _nan_above_half(y):
    """A drift that pulls y up to 0.5, is NaN above 0.5 and 0.0 at NaN: an
    iterate that overshoots 0.5 makes the next one NaN from there on, and
    the one after finite again."""
    out = np.where(y < 0.0, -0.1 * y, 40.0 * (0.5 - y))
    out[y > 0.5] = np.nan
    out[np.isnan(y)] = 0.0
    return out


def _confirming_iteration_case(case):
    """(coeffs, y0, lift, mart, kw, the window whose event count is max_iter
    or None) of a case around the iteration that finds no germ row left."""
    if case == "max_iter_events":
        # a tol no update above 0.0 reaches, and max_iter the event count of
        # the longest window that runs to its confirming iteration: that
        # window stops at max_iter, one iteration before it would find no
        # germ row left
        coeffs, lift, mart = _germ_drivers(1)
        y0 = np.linspace(-0.5, 0.5, 16)
        free = picard_solve(coeffs, y0, lift, mart, tol=1e-300).diagnostics
        starts = build_event_schedule(lift, mart).event_start
        events = [int(starts[t] - starts[s]) for s, t in free["windows"]]
        at = max(
            (k for k, e in enumerate(events) if free["iterations"][k] == e + 1),
            key=events.__getitem__,
        )
        return coeffs, y0, lift, mart, dict(tol=1e-300, max_iter=events[at]), at
    tanh = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.4, b=0.9), f=smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1)
    )
    small = ito_lift_brownian(simulate_brownian(0.1, 8, seed=5, n_members=16))
    pair = ito_lift_brownian(simulate_brownian(0.1, 8, seed=5, n_members=2))
    if case == "tol_zero":  # an update of 0.0 is not below tol, so every window runs on
        return tanh, 0.2, small, None, dict(tol=0.0, max_iter=9), None
    if case == "nan_update":
        # a member finite at the window's end whose update is NaN from an
        # interior grid point on, and the rest of the distance path around it
        zero = np.zeros_like
        recovering = CoefficientSet(b=calculus.SmoothFn(_nan_above_half, zero, zero))
        return recovering, np.array([-10.0, 0.3]), pair, None, {}, None
    return tanh, np.array([np.inf, np.nan]), pair, None, {}, None  # all_non_finite


@pytest.mark.parametrize("case", ["tol_zero", "nan_update", "all_non_finite", "max_iter_events"])
def test_picard_records_the_confirming_iteration_as_the_full_sweep_does(case):
    # values, left values, diagnostics and warnings against the oracle that
    # runs every iteration, then what the case is about
    coeffs, y0, lift, mart, kw, at = _confirming_iteration_case(case)
    res = _assert_picard_matches_full_sweep(coeffs, y0, lift, mart, **kw)
    iterations, distances = res.diagnostics["iterations"], res.diagnostics["distances"]
    if case == "tol_zero":
        assert iterations == [9] * len(iterations) and len(iterations) > 1
        assert all(d[-1] == 0.0 for d in distances)
        with pytest.warns(UserWarning) as caught:
            picard_solve(coeffs, y0, lift, mart, **kw)
        assert len(caught) == len(iterations)
        assert all("(last update at least 0.000e+00)" in str(w.message) for w in caught)
    elif case == "nan_update":
        flat = np.array(sum(distances, []))
        assert np.isnan(flat).any() and np.isfinite(res.values).all()
        assert distances[0][-1] == 0.0
    elif case == "all_non_finite":
        assert iterations == [1] * len(iterations)
        assert np.isnan(np.array(sum(distances, []))).all()
    else:
        starts = build_event_schedule(lift, mart).event_start
        events = [int(starts[t] - starts[s]) for s, t in res.diagnostics["windows"]]
        assert iterations[at] == kw["max_iter"] == events[at] > 1
        assert any(k == e + 1 and d[-1] == 0.0
                   for k, e, d in zip(iterations, events, distances))


def _zero_driver(n_members, dim, n=12, jumps=(4, 9)):
    """A driver whose every increment is +0.0, with declared jumps in both
    the lift and the martingale."""
    grid = make_uniform_grid(1.0, n)
    ix = np.array(jumps, dtype=np.int64)
    zeros, left = np.zeros((n_members, n + 1, dim)), np.zeros((n_members, ix.size, dim))
    path = SamplePath(grid=grid, values=zeros, jump_indices=ix, left_values=left)
    lift = RoughLift(path=path, step_second=np.zeros((n_members, n, dim, dim)))
    mart = MartingalePath(
        grid=grid, values=zeros[..., :1], jump_indices=ix, left_values=left[..., :1],
        bracket=np.zeros((1, n + 1, 1, 1)),
    )
    return lift, mart


@pytest.mark.parametrize(
    "rough, dim", [(False, 1), (True, 1), (True, 2)], ids=["b_sigma", "rough_d1", "rough_d2"]
)
def test_solvers_keep_the_sign_of_zero_bitwise(rough, dim):
    # y0 holds -0.0 and every increment is 0.0, so every term is a signed
    # zero; coefficients with c = -0.0 map -0.0 to -0.0 and carry the sign
    ident = smooth_fn("linear", c=-0.0)
    coeffs = CoefficientSet(b=ident, sigma=smooth_fn("sin_bundle", c=-0.0))
    if rough:
        fs = (ident, smooth_fn("linear", a=2.0, c=-0.0))[:dim]
        coeffs = CoefficientSet(b=coeffs.b, sigma=coeffs.sigma, f=fs if dim > 1 else fs[0])
    lift, mart = _zero_driver(6, dim)
    y0 = np.array([-0.0, 0.0, -0.0, 0.25, -0.0, -1.5])
    n = lift.grid.n_steps
    res = _assert_solve_matches_oracles(coeffs, y0, lift, mart, [(0, n), (n // 3, n)])
    # the restart keeps y0's -0.0 on its rows; past them a b/sigma path stays
    # -0.0, while a rough sum starting from 0.0 turns it into +0.0
    assert np.signbit(res.values[0, : n // 3 + 1]).all()
    assert np.signbit(res.values[0, n]) == (not rough)
    _assert_picard_matches_oracles(coeffs, y0, lift, mart)


@pytest.mark.parametrize("solver", [solve, picard_solve])
@pytest.mark.parametrize("case", ["x_and_m_jumps", "no_jumps"])
def test_solvers_are_layout_independent_bitwise(case, solver):
    lift, mart = _schedule_cases()[case]
    coeffs = _all_coeffs()
    y0 = np.linspace(-0.5, 0.5, lift.path.n_members)
    a = solver(coeffs, y0, lift, mart)
    b = solver(coeffs, y0, *_time_major_drivers(lift, mart))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.left_values, b.left_values)
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("solver", [solve, picard_solve])
def test_solution_values_are_views_of_the_time_major_state(solver):
    lift, mart = _schedule_cases()["x_and_m_jumps"]
    res = solver(_all_coeffs(), 0.2, lift, mart)
    # values and left limits are transposed row ranges of one state array
    state = res.values.base
    assert state.shape == (lift.grid.n_steps + 1 + res.jump_indices.size, lift.path.n_members)
    assert res.left_values.base is state
    assert np.shares_memory(res.values, state) and np.shares_memory(res.left_values, state)


def test_window_control_contains_time_and_grows():
    bm = simulate_brownian(1.0, 64, seed=15, n_members=64)
    lift = ito_lift_brownian(bm)
    w_small = window_control(lift, bm, 2.0, 4.0, 0, 8)[-1]
    w_big = window_control(lift, bm, 2.0, 4.0, 0, 64)[-1]
    assert w_big >= 1.0  # the time term alone contributes T
    assert w_big > w_small > 0.0


@pytest.mark.parametrize("with_mart", [True, False])
@pytest.mark.parametrize("p,q", [(2.0, 4.0), (2.5, 3.0)])
def test_window_control_row_matches_per_window_seminorms(with_mart, p, q):
    # entry u - s - 1 of the row is the control of [s, u], summed term by term
    # from the scalar seminorms of that window alone: the first levels of
    # its slice, the second level's through indices shifted by s
    mix = simulate_mixed(1.0, 16, seed=29, n_members=12, rate=3.0)
    lift = mix.lift
    mart = mix.martingale if with_mart else None
    s, t = 2, lift.grid.n_steps - 1
    row = window_control(lift, mart, p, q, s, t)
    assert row.shape == (t - s,)
    times = lift.grid.times
    second = shifted_increments(lift.second, s)
    for u in range(s + 1, t + 1):
        ref = float(times[u] - times[s])
        ref += vp_lq_seminorm(lift.path.values[:, s : u + 1], p, q) ** p
        ref += _pair_seminorm(second, lift.second_prefix.shape[0], u - s, p / 2.0, q) ** (p / 2.0)
        if with_mart:
            bracket = mart.bracket[:, s : u + 1, 0, 0]
            ref += vp_lq_seminorm(bracket, p / 2.0, q / 2.0) ** (p / 2.0)
        assert row[u - s - 1] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert np.all(np.diff(row) >= 0.0)


def _one_step_windows(lift, mart, p=2.0, q=4.0):
    return plan_windows_one_step(
        lambda s, t: window_control(lift, mart, p, q, s, t),
        lift.grid.n_steps,
        _WINDOW_THRESHOLD,
    )


@functools.lru_cache(maxsize=None)
def _jump_mix_driver(n_members, seed):
    return simulate_mixed(1.0, 128, seed, n_members=n_members, rate=2.0, jump_params=(0.3, 0.45))


@pytest.mark.parametrize("n_members", [64, 256])
@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_plan_windows_match_one_step_search_oracle(n_members, seed):
    # the jump_mix driver: windows grown a column at a time are the windows
    # of a doubling search over per-window controls built from scratch
    mix = _jump_mix_driver(n_members, seed)
    assert _plan_windows(mix.lift, mix.martingale, 2.0, 4.0) == _one_step_windows(
        mix.lift, mix.martingale
    )


@pytest.mark.parametrize(
    "p,q,with_mart",
    [(2.0, 4.0, False), (2.5, 3.0, True), (2.5, 3.0, False), (2.0, 2.0, True), (2.0, 2.0, False)],
)
@pytest.mark.parametrize("n_members", [64, 256])
@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_plan_windows_match_one_step_search_oracle_off_default(seed, n_members, p, q, with_mart):
    # the same drivers at other exponents and without the martingale; at
    # q = 2 the oracle's first-level table comes off the Gram path
    mix = _jump_mix_driver(n_members, seed)
    lift, mart = mix.lift, mix.martingale if with_mart else None
    assert _plan_windows(lift, mart, p, q) == _one_step_windows(lift, mart, p, q)


def test_plan_windows_match_one_step_search_oracle_on_a_two_dim_lift():
    bm = simulate_brownian(1.0, 128, seed=43, n_members=64, dim=2)
    lift, mart = ito_lift_brownian(bm, seed=43), simulate_brownian(1.0, 128, seed=45, n_members=64)
    windows = _plan_windows(lift, mart, 2.0, 4.0)
    assert len(windows) > 1
    assert windows == _one_step_windows(lift, mart)


def _planner_cells(monkeypatch, lift, mart=None):
    """`_plan_windows(lift, mart, 2.0, 4.0)` and every cell it reduced, in order."""
    cells = []
    lq_cells = rsde._lq_cells

    def recorded(increments, q):
        out = lq_cells(increments, q)
        cells.append(out.copy())
        return out

    monkeypatch.setattr(rsde, "_lq_cells", recorded)
    windows = _plan_windows(lift, mart, 2.0, 4.0)
    monkeypatch.undo()
    return windows, np.concatenate(cells)


@pytest.mark.parametrize("seed", [1, 2])
def test_plan_windows_cells_do_not_depend_on_memory_layout(monkeypatch, seed):
    # a Fortran-ordered d = 3 lift's columns hold strided components; the
    # cells sum them on C-order memory, as for the C-ordered lift
    lift = ito_lift_brownian(simulate_brownian(1.0, 200, seed=seed, n_members=64, dim=3), seed=seed)
    fortran = RoughLift(
        SamplePath(lift.grid, np.asfortranarray(lift.path.values)),
        np.asfortranarray(lift.step_second),
    )
    assert not fortran.path.values.flags.c_contiguous
    want_windows, want = _planner_cells(monkeypatch, lift)
    windows, cells = _planner_cells(monkeypatch, fortran)
    assert len(want_windows) > 1 and windows == want_windows
    assert _same_bytes(cells, want)


def _unit_jumps():
    """A mixed driver of unit jumps, one per member on average, on [0, 0.04]:
    its Brownian part has the step variance of 0.2 W on [0, 1], so windows
    run over several steps between the jumps, and each jump step alone is
    over the window threshold."""
    mix = simulate_mixed(0.04, 64, seed=4, n_members=4, rate=25.0, jump_params=(1.0, 0.0))
    return mix.lift, mix.martingale


def test_plan_windows_single_step_over_threshold():
    # unit jumps: each jump step alone exceeds the threshold, right after a
    # longer window, and still becomes its own window
    lift, mart = _unit_jumps()
    windows = _plan_windows(lift, mart, 2.0, 4.0)
    assert windows == _one_step_windows(lift, mart)
    over = [
        k for k, (s, t) in enumerate(windows)
        if window_control(lift, mart, 2.0, 4.0, s, s + 1)[0] > _WINDOW_THRESHOLD
    ]
    assert over
    assert all(windows[k][1] - windows[k][0] == 1 for k in over)
    assert any(k > 0 and windows[k - 1][1] - windows[k - 1][0] > 1 for k in over)


def test_plan_windows_count_a_nan_control_as_over_threshold():
    # a NaN member makes every control NaN: like the oracle's row, which
    # keeps no NaN entry as within the threshold, each step is its own window
    bm = simulate_brownian(1.0, 16, seed=47, n_members=4)
    bm.values[2, 5:] = np.nan
    lift = ito_lift_brownian(bm)
    windows = _plan_windows(lift, bm, 2.0, 4.0)
    assert windows[-1] == (15, 16) and windows[4] == (4, 5)
    assert windows == _one_step_windows(lift, bm)


def test_plan_windows_reduce_each_cell_once(monkeypatch):
    # the second-level table's reductions, seen through `lift.second`: each
    # is a slice of one lag <= `_PLAN_LAGS` of at most a chunk of cells, or
    # a slice of one column holding the longer lags; no cell is reduced
    # twice, no call reduces a window's first cell (s, s+1) alone, and
    # every cell of every column a window reads is reduced.  A window that
    # ends before n also reads the column of the first point over the
    # threshold, unless that point is its own single step.  Lags up to 4 and
    # chunks of 8 cells make lags take several chunks and long columns
    # slices of their own
    lift, mart = _unit_jumps()
    n = lift.grid.n_steps
    monkeypatch.setattr(rsde, "_PLAN_LAGS", 4)
    monkeypatch.setattr(rsde, "_PAIR_CELL_BUDGET", 4 * 8)
    calls = []
    second = lift.second

    def recorded(i, j):
        ii, jj = np.arange(n + 1)[i], np.arange(n + 1)[j]
        calls.append(list(zip(*np.broadcast_arrays(ii, jj))))
        return second(i, j)

    monkeypatch.setattr(lift, "second", recorded)
    windows = _plan_windows(lift, mart, 2.0, 4.0)
    firsts = {(s, s + 1) for s, _ in windows}
    assert not [c for c in calls if len(c) == 1 and c[0] in firsts]
    cells = [cell for c in calls for cell in c]
    assert len(set(cells)) == len(cells)
    for c in calls:
        lags = {j - i for i, j in c}
        if min(lags) <= 4:  # a slice of one lag
            assert len(lags) == 1 and len(c) <= 8
            assert all(b == (i + 1, j + 1) for (i, j), b in zip(c, c[1:]))
        else:  # a slice of one column, past lag 4
            assert len({j for _, j in c}) == 1 and min(lags) == 5
            assert all(b == (i + 1, j) for (i, j), b in zip(c, c[1:]))
    read = set()
    for s, t in windows:
        over = window_control(lift, mart, 2.0, 4.0, s, s + 1)[0] > _WINDOW_THRESHOLD
        end = t + 1 if t < n and not over else t
        read |= {(i, u) for u in range(s + 1, end + 1) for i in range(s, u)}
    assert read <= set(cells)
    assert any(t < n for _, t in windows[:-1])
    assert max(t - s for s, t in windows) > 4
    assert any(len(c) > 1 and c[0][1] == c[1][1] for c in calls)
    assert max(sum(j - i == lag for c in calls for i, j in c[:1]) for lag in range(1, 5)) > 1


def _planner_reads(planner, *args):
    """The windows of planner(*args), and the length and cells of every
    column its `rsde._pvar_dp` calls read, in order."""
    lengths, cells = [], []
    dp = rsde._pvar_dp

    def read(columns):
        return dp(lengths.append(len(c)) or cells.extend(c) or c for c in columns)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rsde, "_pvar_dp", read)
        windows = planner(*args)
    return windows, lengths, np.array(cells)


def _assert_plan_reads_the_column_planners_cells(lift, mart, p=2.0, q=4.0):
    """`_plan_windows` against `plan_windows_by_columns`, one run each: the
    same windows, and every cell its DPs read bit for bit."""
    windows, lengths, cells = _planner_reads(_plan_windows, lift, mart, p, q)
    want = _planner_reads(plan_windows_by_columns, rsde, lift, mart, p, q)
    assert windows == want[0] and lengths == want[1]
    assert _same_bytes(cells, want[2])
    return windows


@functools.lru_cache(maxsize=1)  # the tests below run seed by seed
def _jump_mix_blocks(seed):
    """The member blocks of the `jump_mix` run at the benchmark's size."""
    return tuple(
        paths._mixed_blocks(
            scenarios._JUMP_BLOCK, 1.0, 128, seed, 256, rate=2.0, jump_params=(0.3, 0.45)
        )
    )


@pytest.mark.parametrize(
    "p,q,with_mart",
    [(2.0, 4.0, True), (2.0, 4.0, False), (2.5, 3.0, True), (2.5, 3.0, False), (2.0, 2.0, True),
     (2.0, 2.0, False)],
)
@pytest.mark.parametrize("seed", range(7, 15))
def test_plan_windows_read_the_column_planners_cells_on_jump_mix_blocks(seed, p, q, with_mart):
    # the run's default exponents and the five other sets of the one-step
    # search tests
    for block in _jump_mix_blocks(seed):
        mart = block.martingale if with_mart else None
        assert len(_assert_plan_reads_the_column_planners_cells(block.lift, mart, p, q)) > 1


def _smooth_ensemble_lift():
    """64 smooth members c sin(t) on a grid of 40 steps to T = 0.1: one
    window spans the grid, so its columns run past `_PLAN_LAGS` and the
    column slice past it holds a lone cell (when u = `_PLAN_LAGS` + 1)."""
    grid = make_uniform_grid(0.1, 40)
    scale = np.random.default_rng(3).uniform(0.5, 1.5, 64)
    values = scale[:, None, None] * np.sin(grid.times)[None, :, None]
    step = np.diff(values, axis=1)
    return RoughLift(SamplePath(grid, values), 0.5 * step[..., None] * step[..., None, :]), None


def _planner_drivers():
    """(lift, mart) builders for the planner's edge drivers."""

    def two_dim():
        bm = simulate_brownian(1.0, 128, seed=43, n_members=64, dim=2)
        return ito_lift_brownian(bm, seed=43), simulate_brownian(1.0, 128, seed=45, n_members=64)

    def fortran_d3():
        bm = simulate_brownian(1.0, 200, seed=1, n_members=64, dim=3)
        lift = ito_lift_brownian(bm, seed=1)
        return RoughLift(
            SamplePath(lift.grid, np.asfortranarray(lift.path.values)),
            np.asfortranarray(lift.step_second),
        ), None

    def nan_member():
        bm = simulate_brownian(1.0, 16, seed=47, n_members=4)
        bm.values[2, 5:] = np.nan
        return ito_lift_brownian(bm), bm

    return {"two_dim": two_dim, "fortran_d3": fortran_d3, "nan_member": nan_member,
            "unit_jumps": _unit_jumps, "smooth_spanning": _smooth_ensemble_lift}


@pytest.mark.parametrize("driver", list(_planner_drivers()))
def test_plan_windows_read_the_column_planners_cells(driver):
    lift, mart = _planner_drivers()[driver]()
    windows = _assert_plan_reads_the_column_planners_cells(lift, mart)
    if driver == "smooth_spanning":
        assert windows == [(0, lift.grid.n_steps)]


@pytest.mark.parametrize("seed", [7, 11])
def test_picard_distance_from_one_reduction_matches_the_table_distance(monkeypatch, seed):
    # the whole-ensemble `jump_mix` driver at N = 256: one union grid of
    # every member's jump times, longer than any of the scenario's blocks
    mix, coeffs = _jump_mix_driver(256, seed), _all_coeffs()
    lift, mart = mix.lift, mix.martingale
    new = picard_solve(coeffs, 0.2, lift, mart, tol=1e-10, max_iter=80)
    # the update distance from a table built row by row per iteration
    def row_built(increments, n_members, t, p, q, pairs=None):
        return p_variation(magnitude_table(pair_rows(increments, 0, t), t + 1, q), p)

    monkeypatch.setattr(rsde, "_pair_seminorm", row_built)
    old = picard_solve(coeffs, 0.2, lift, mart, tol=1e-10, max_iter=80)
    assert np.array_equal(new.values, old.values)
    assert np.array_equal(new.left_values, old.left_values)
    for key in ("windows", "iterations", "distances"):
        assert new.diagnostics[key] == old.diagnostics[key], key
    assert sum(new.diagnostics["iterations"]) > 2 * len(new.diagnostics["windows"])


@pytest.mark.parametrize("seed", [7, 11])
def test_picard_records_end_terms_that_cannot_stop_an_iteration(seed):
    # the whole-ensemble `jump_mix` driver at N = 256, one union grid of
    # every member's jump times: most iterations end with an end term at or
    # above tol, whose seminorm is skipped; nothing else moves against the
    # oracle that takes every distance (one oracle germ: both are checked
    # against each other on smaller drivers)
    mix, coeffs, tol = _jump_mix_driver(256, seed), _all_coeffs(), 1e-10
    lift, mart = mix.lift, mix.martingale
    res = picard_solve(coeffs, 0.2, lift, mart, tol=tol, max_iter=80)
    values, left, iterations, distances, end_terms = picard_allocating_loop(
        rsde, add_germ, coeffs, 0.2, lift, mart, tol=tol, max_iter=80
    )
    assert res.diagnostics["windows"] == _plan_windows(lift, mart, 2.0, 4.0)
    assert res.diagnostics["iterations"] == iterations
    assert _same_bytes(res.values, values) and _same_bytes(res.left_values, left)
    want = _expected_distances(distances, end_terms, tol)
    assert _same_bytes(np.array(sum(res.diagnostics["distances"], [])), np.array(sum(want, [])))
    ends = sum(end_terms, [])
    assert 2 * sum(e >= tol for e in ends) > len(ends)
    # every window still stops on a full distance below tol
    assert all(d[-1] < tol for d in res.diagnostics["distances"])


def test_picard_warning_at_max_iter_reports_an_end_term_as_a_lower_bound():
    # one iteration per window: the first window's end term is at or above
    # tol, so its entry is that lower bound; the second's is below tol, so
    # its entry is the full distance
    bm = simulate_brownian(0.1, 8, seed=5, n_members=16)
    lift = ito_lift_brownian(bm)
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.4, b=0.9), f=smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1)
    )
    tol = 0.05
    with pytest.warns(UserWarning) as caught:
        res = picard_solve(coeffs, 0.2, lift, tol=tol, max_iter=1)
    _, _, _, distances, end_terms = picard_allocating_loop(
        rsde, add_germ, coeffs, 0.2, lift, tol=tol, max_iter=1
    )
    first, second = res.diagnostics["distances"]
    assert res.diagnostics["windows"] == [(0, 5), (5, 8)]
    assert first == end_terms[0] and end_terms[0][0] >= tol
    assert second == distances[1] and end_terms[1][0] < tol <= distances[1][0]
    assert [str(w.message) for w in caught] == [
        f"Picard iteration hit max_iter=1 on window [0, 5] (last update at least "
        f"{first[0]:.3e}); keeping the last iterate",
        f"Picard iteration hit max_iter=1 on window [5, 8] (last update "
        f"{second[0]:.3e}); keeping the last iterate",
    ]


@pytest.mark.parametrize(
    "p,q", [(0.9, 4.0), (2.0, 0.5), (np.inf, 4.0), (2.0, np.inf), (2.0, np.nan)]
)
def test_picard_refuses_p_or_q_below_one_before_planning(monkeypatch, p, q):
    def no_plan(*args):
        raise AssertionError("planned before the refusal")

    monkeypatch.setattr(rsde, "_plan_windows", no_plan)
    bm = simulate_brownian(1.0, 16, seed=29, n_members=4)
    msg = f"^picard_solve needs finite p >= 1 and q >= 1, got p={p}, q={q}$"
    with pytest.raises(ValueError, match=msg):
        picard_solve(_all_coeffs(), 0.0, ito_lift_brownian(bm), bm, p=p, q=q)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_picard_refuses_max_iter_below_one_before_planning(monkeypatch, max_iter):
    def no_plan(*args):
        raise AssertionError("planned before the refusal")

    monkeypatch.setattr(rsde, "_plan_windows", no_plan)
    bm = simulate_brownian(1.0, 16, seed=29, n_members=4)
    msg = f"^picard_solve needs max_iter >= 1, got max_iter={max_iter}$"
    with pytest.raises(ValueError, match=msg):
        picard_solve(_all_coeffs(), 0.0, ito_lift_brownian(bm), bm, max_iter=max_iter)


@pytest.mark.parametrize("p,q", [(1.5, 4.0), (2.0, 1.5), (np.inf, 4.0), (2.0, np.inf)])
def test_stability_refuses_p_or_q_below_two_before_solving(monkeypatch, p, q):
    def no_solve(*args):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(rsde, "solve", no_solve)
    lift = smooth_lift("linear", 1.0, 8)
    base = RSDEProblem(0.1, lift)
    msg = f"^stability_experiment needs finite p/2 and q/2 >= 1, got p={p}, q={q}$"
    with pytest.raises(ValueError, match=msg):
        stability_experiment(_all_coeffs(), base, [(base, None)], p=p, q=q)


def test_jump_mix_solves_one_lift_per_block(monkeypatch):
    # N = 130 leaves a ragged last block; in each block the full solve,
    # stop=mid, start=mid and picard_solve all run on the block's lift
    seen, prologue = [], rsde._prologue

    def recorded(coeffs, y0, lift, mart, start):
        seen.append(lift)
        return prologue(coeffs, y0, lift, mart, start)

    monkeypatch.setattr(rsde, "_prologue", recorded)
    run_scenario(default_config("jump_mix", n=32, ensemble=130))
    lifts = list({id(lift): lift for lift in seen}.values())
    assert [lift.path.n_members for lift in lifts] == [64, 64, 2]
    assert list(map(id, seen)) == [id(lift) for lift in lifts for _ in range(4)]


def test_jump_mix_reports_each_gate_once_as_its_max_over_blocks(monkeypatch):
    cfg = default_config("jump_mix", n=32, ensemble=130)
    blocks = list(paths._mixed_blocks(64, 1.0, 32, cfg.seed, 130, 2.0, (0.3, 0.45)))
    steps = [mix.lift.grid.n_steps for mix in blocks]
    assert len(set(steps)) > 1
    rows = run_scenario(cfg)
    assert [r["metric"] for r in rows] == [
        "solution_jump_residual", "flow_restart_gap", "solve_picard_gap"
    ]
    assert all(r["n"] == max(steps) and r["N"] == 130 for r in rows)
    jr, flow, gap = (r["value"] for r in rows)
    assert jr <= 1e-12 and flow == 0.0 and gap <= 1e-6
    # the max is over every block: a NaN gap in one block is the row's
    real, seen = scenarios._picard_gap, []

    def nan_in_the_second_block(*args):
        seen.append(real(*args))
        return float("nan") if len(seen) == 2 else seen[-1]

    monkeypatch.setattr(scenarios, "_picard_gap", nan_in_the_second_block)
    rows = run_scenario(cfg)
    assert len(seen) == 3 and np.isnan(rows[2]["value"])
    assert [r["value"] for r in rows[:2]] == [jr, flow]


def test_solvers_leave_no_state_on_the_lift():
    cases = _schedule_cases()
    for case in ("x_and_m_jumps", "no_jumps"):
        lift, mart = cases[case]
        solve(_all_coeffs(), 0.1, lift, mart)
        picard_solve(_all_coeffs(), 0.1, lift, mart)
        fields = {f.name for f in dataclasses.fields(lift)}
        assert set(vars(lift)) <= fields | {"second_prefix"}, case


def test_a_martingale_changed_in_place_is_read_afresh():
    def rebuilt(m):
        return MartingalePath(
            grid=m.grid, values=m.values.copy(), jump_indices=m.jump_indices,
            left_values=m.left_values.copy(), bracket=m.bracket.copy(),
        )

    lift, mart = _schedule_cases()["x_and_m_jumps"]
    coeffs, y0 = _all_coeffs(), np.linspace(-0.5, 0.5, lift.path.n_members)
    for solver in (solve, picard_solve):
        before = solver(coeffs, y0, lift, mart)
        mart.values *= 0.5
        mart.left_values *= 0.5
        mart.bracket *= 0.25
        changed = solver(coeffs, y0, lift, mart)
        fresh = solver(coeffs, y0, lift, rebuilt(mart))
        assert not np.array_equal(changed.values, before.values)
        assert _same_bytes(changed.values, fresh.values)
        assert _same_bytes(changed.left_values, fresh.left_values)
        assert changed.diagnostics == fresh.diagnostics


def test_picard_matches_onestep_brownian():
    bm = simulate_brownian(1.0, 128, seed=17, n_members=32)
    lift = ito_lift_brownian(bm)
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.3), sigma=smooth_fn("sin_bundle", a=0.6),
        f=smooth_fn("tanh_affine", a=0.5, b=0.8),
    )
    direct = solve(coeffs, 0.1, lift, bm)
    fixed = picard_solve(coeffs, 0.1, lift, bm, tol=1e-11)
    assert np.max(np.abs(direct.values - fixed.values)) <= 1e-6
    # windows tile the grid
    wins = fixed.diagnostics["windows"]
    assert wins[0][0] == 0 and wins[-1][1] == 128
    for (a, b2), (c, _) in zip(wins[:-1], wins[1:]):
        assert b2 == c


def test_picard_matches_onestep_with_jumps():
    mix = simulate_mixed(1.0, 32, seed=19, n_members=8, rate=2.0)
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.4), sigma=smooth_fn("sin_bundle", a=0.5),
        f=smooth_fn("tanh_affine", a=0.7, b=0.6),
    )
    direct = solve(coeffs, 0.25, mix.lift, mix.martingale)
    fixed = picard_solve(coeffs, 0.25, mix.lift, mix.martingale, tol=1e-11)
    assert np.max(np.abs(direct.values - fixed.values)) <= 1e-6
    # the left limits at the jumps agree too
    assert fixed.jump_indices.size > 0
    assert np.all(np.isfinite(fixed.left_values))
    assert np.max(np.abs(direct.left_values - fixed.left_values)) <= 1e-6


def test_stability_identical_data_reports_zero():
    bm = simulate_brownian(1.0, 32, seed=21, n_members=16)
    lift = ito_lift_brownian(bm)
    coeffs = CoefficientSet(b=smooth_fn("tanh_affine"), sigma=smooth_fn("sin_bundle"))
    prob = RSDEProblem(y0=0.1, lift=lift, mart=bm)
    _, [rep] = stability_experiment(coeffs, prob, [(prob, None)])
    assert rep.ratio == 0.0
    assert rep.lhs == 0.0


def test_stability_initial_condition_perturbation():
    bm = simulate_brownian(1.0, 48, seed=23, n_members=64)
    lift = ito_lift_brownian(bm)
    coeffs = CoefficientSet(b=smooth_fn("tanh_affine", a=0.3), sigma=smooth_fn("sin_bundle", a=0.5))
    eps = 1e-3
    base = RSDEProblem(y0=0.1, lift=lift, mart=bm)
    pert = RSDEProblem(y0=0.1 + eps, lift=lift, mart=bm)
    _, [rep] = stability_experiment(coeffs, base, [(pert, None)])
    assert rep.rhs == pytest.approx(eps)
    assert np.isfinite(rep.ratio)
    assert rep.ratio > 0


def test_stability_pairs_match_single_pair_calls_bitwise():
    bm = simulate_brownian(1.0, 32, seed=41, n_members=16)
    w = simulate_brownian(1.0, 32, seed=43, n_members=16)
    lift = ito_lift_brownian(bm)
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.3), sigma=smooth_fn("sin_bundle", a=0.5),
        f=smooth_fn("tanh_affine", a=0.6, b=0.8),
    )
    eps, times = 1e-2, bm.grid.times
    mart = MartingalePath(
        grid=bm.grid,
        values=bm.values + eps * w.values,
        bracket=((1.0 + eps**2) * times)[None, :, None, None],
    )
    base = RSDEProblem(0.1, lift, bm)
    pairs = [
        (RSDEProblem(0.1 + eps, lift, bm), None),
        (RSDEProblem(0.1, lift, mart), (eps**2 * times)[None, :]),
        (RSDEProblem(0.1, ito_lift_brownian(w), bm), None),
    ]
    sol, reports = stability_experiment(coeffs, base, pairs)
    assert np.array_equal(sol.values, solve(coeffs, 0.1, lift, bm).values)
    assert len(reports) == len(pairs)
    for pair, rep in zip(pairs, reports):
        assert stability_experiment(coeffs, base, [pair])[1] == [rep]
    assert len({rep.ratio for rep in reports}) == 3


def test_stability_reports_do_not_depend_on_the_solution_layout(monkeypatch):
    # solutions are member-major views of a time-major state; the reports must
    # equal those computed from C-order copies of them bit for bit
    bm = simulate_brownian(1.0, 32, seed=47, n_members=256)
    w = simulate_brownian(1.0, 32, seed=49, n_members=256)
    coeffs = CoefficientSet(
        b=smooth_fn("tanh_affine", a=0.3), sigma=smooth_fn("sin_bundle", a=0.5),
        f=smooth_fn("tanh_affine", a=0.6, b=0.8),
    )
    base = RSDEProblem(0.1, ito_lift_brownian(bm), bm)
    pairs = [(RSDEProblem(0.1, ito_lift_brownian(w), bm), None)]
    got = stability_experiment(coeffs, base, pairs)[1]
    real_solve = rsde.solve

    def c_order_solve(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        assert not res.values.flags.c_contiguous
        res.values = np.ascontiguousarray(res.values)
        return res

    monkeypatch.setattr(rsde, "solve", c_order_solve)
    assert stability_experiment(coeffs, base, pairs)[1] == got


def test_stability_releases_each_perturbed_solution(monkeypatch):
    # a group's result is gone once its bundles' values are copied, before
    # the next group's solve starts; the base result owns the base members'
    # rows only, not its group's stack
    results = []
    real_solve = rsde.solve

    def tracking_solve(*args, **kwargs):
        assert all(ref() is None for ref in results)
        res = real_solve(*args, **kwargs)
        results.append(weakref.ref(res))
        return res

    monkeypatch.setattr(rsde, "solve", tracking_solve)
    bm = simulate_brownian(1.0, 16, seed=39, n_members=8)
    lift = ito_lift_brownian(bm)
    base = RSDEProblem(y0=0.1, lift=lift, mart=bm)
    perts = [(RSDEProblem(y0=0.1 + eps, lift=lift, mart=bm), None) for eps in (1e-2, 1e-3, 1e-4)]
    for seed in (41, 43):
        other = ito_lift_brownian(simulate_brownian(1.0, 16, seed=seed, n_members=8))
        perts.append((RSDEProblem(y0=0.1, lift=other, mart=bm), None))
    base_sol, reports = stability_experiment(_all_coeffs(), base, perts)
    assert len(results) == 3 and len(reports) == 5
    assert all(ref() is None for ref in results)
    assert base_sol.values.shape == (8, 17) and base_sol.values.flags.owndata
    assert base_sol.left_values.shape == (8, 0) and base_sol.left_values.flags.owndata


def test_stability_base_solves_its_base_once(monkeypatch):
    members = []
    real_solve = rsde.solve

    def counting_solve(coeffs, y0, lift, mart=None):
        members.append(np.broadcast_shapes(np.shape(y0), (mart.n_members,))[0])
        return real_solve(coeffs, y0, lift, mart)

    monkeypatch.setattr(rsde, "solve", counting_solve)
    run_scenario(default_config("stability_base"))
    # the base, whose solve the Picard gap row reuses, stacked with its four
    # y0 and four martingale perturbations on the base lift; then the four
    # tilted lifts, one solve each
    assert members == [9 * 128] + [128] * 4


@pytest.mark.parametrize("seed", [7, 11, 12])
def test_stability_base_reports_equal_a_solve_per_bundle(monkeypatch, seed):
    real, calls = rsde.stability_experiment, []

    def both(coeffs, base, perts, p, q):
        got = real(coeffs, base, perts, p=p, q=q)
        calls.append((got, stability_experiment_by_bundle(rsde, coeffs, base, perts, p=p, q=q)))
        return got

    monkeypatch.setattr(rsde, "stability_experiment", both)
    run_scenario(default_config("stability_base", seed=seed))
    [((sol, reports), (want_sol, want))] = calls
    assert len(reports) == 12 and reports == want
    assert _same_bytes(np.ascontiguousarray(sol.values), np.ascontiguousarray(want_sol.values))
    assert sol.diagnostics == want_sol.diagnostics


def _assert_stacks_solve_alone(monkeypatch, coeffs, base, perts, stacks):
    """The reports and base result against the solve-per-bundle oracle, and
    the stacked groups: `stacks` lists the bundles of each (0 the base, k
    perts[k - 1]), and each bundle's result from its group is its own
    `solve`'s, byte for byte.  Returns the stacked groups' results."""
    split, real_split = [], rsde._split
    monkeypatch.setattr(
        rsde, "_split", lambda res, n: split.append(real_split(res, n)) or split[-1]
    )
    sol, reports = stability_experiment(coeffs, base, perts)
    want_sol, want = stability_experiment_by_bundle(rsde, coeffs, base, perts)
    assert reports == want
    assert _same_bytes(np.ascontiguousarray(sol.values), np.ascontiguousarray(want_sol.values))
    probs = [base] + [pert for pert, _ in perts]
    assert [len(results) for results in split] == [len(stack) for stack in stacks]
    for stack, results in zip(stacks, split):
        for k, res in zip(stack, results):
            alone = solve(coeffs, probs[k].y0, probs[k].lift, probs[k].mart)
            for name in ("values", "left_values"):
                got, expected = (np.ascontiguousarray(getattr(r, name)) for r in (res, alone))
                assert _same_bytes(got, expected), (k, name)
            assert res.diagnostics == alone.diagnostics
    return split


@pytest.mark.parametrize(
    "rough, dim", [(False, 1), (True, 1), (True, 2)], ids=["b_sigma", "rough_d1", "rough_d2"]
)
def test_stacked_bundles_keep_the_sign_of_zero_bitwise(monkeypatch, rough, dim):
    # one bundle's y0 holds -0.0 and the others' do not: the stack keeps the
    # rough sums' zero starts on its first event for all its members, which
    # changes no bit of a member that does not start at -0.0
    ident = smooth_fn("linear", c=-0.0)
    coeffs = CoefficientSet(b=ident, sigma=smooth_fn("sin_bundle", c=-0.0))
    if rough:
        fs = (ident, smooth_fn("linear", a=2.0, c=-0.0))[:dim]
        coeffs = CoefficientSet(b=coeffs.b, sigma=coeffs.sigma, f=fs if dim > 1 else fs[0])
    lift, mart = _zero_driver(6, dim)
    y0 = np.array([0.5, 0.0, 0.25, 0.25, 1.0, -1.5])
    signed = np.array([-0.0, 0.0, -0.0, 0.25, -0.0, -1.5])
    base = RSDEProblem(y0, lift, mart)
    perts = [(RSDEProblem(signed, lift, mart), None), (RSDEProblem(y0 + 0.5, lift, mart), None)]
    [[_, got, _]] = _assert_stacks_solve_alone(monkeypatch, coeffs, base, perts, [[0, 1, 2]])
    assert np.signbit(got.values[0, -1]) == (not rough)


def test_stability_groups_bundles_by_lift_and_martingale_jumps(monkeypatch):
    # bundles stack when they hold one lift object and martingales with one
    # set of declared jumps, or none: the same martingale values with no
    # declared jump are a group of their own.  The lift has jumps and N
    # rows, so each stack repeats its values, left limits and second levels
    mix = simulate_mixed(1.0, 24, seed=31, n_members=6, rate=3.0)
    lift, mart = mix.lift, mix.martingale
    assert lift.path.jump_indices.size and mart.jump_indices.size
    undeclared = MartingalePath(grid=mart.grid, values=mart.values, bracket=mart.bracket)
    perts = [
        (RSDEProblem(0.3, lift, mart), None),
        (RSDEProblem(0.2, lift, undeclared), None),
        (RSDEProblem(0.2, lift), None),
        (RSDEProblem(0.3, lift), None),
    ]
    base = RSDEProblem(0.2, lift, mart)
    _assert_stacks_solve_alone(monkeypatch, _all_coeffs(), base, perts, [[0, 1], [3, 4]])


@pytest.mark.parametrize(
    "case, msg",
    [
        ("lift_grid", r"the lift of perts\[1\] is not on the base lift's grid"),
        ("martingale_grid", r"the martingale of perts\[1\] is not on the base lift's grid"),
        ("members", r"perts\[1\] has 8 members, the base 16"),
    ],
)
def test_stability_refuses_a_bundle_off_the_base_grid_or_size_before_solving(
    monkeypatch, case, msg
):
    # before the check, both cases failed after both solves with numpy's
    # "operands could not be broadcast together" on the solutions' shapes
    def no_solve(*args):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(rsde, "solve", no_solve)
    bm = simulate_brownian(1.0, 32, seed=3, n_members=16)
    base = RSDEProblem(0.1, ito_lift_brownian(bm), bm)
    n, n_members = (32, 8) if case == "members" else (48, 16)
    other = simulate_brownian(1.0, n, seed=5, n_members=n_members)
    lift = base.lift if case == "martingale_grid" else ito_lift_brownian(other)
    perts = [(RSDEProblem(0.2, base.lift, bm), None), (RSDEProblem(0.1, lift, other), None)]
    with pytest.raises(ValueError, match=f"^stability_experiment: {msg}$"):
        stability_experiment(_all_coeffs(), base, perts)


@pytest.mark.parametrize("seed", [7, 11])
def test_brownian_milstein_blocks_match_the_whole_ensemble_exactly(monkeypatch, seed):
    # n_max = 64 and 48-member blocks: 130 members run as 48, 48 and 34
    cfg = default_config("brownian_milstein", n=8, levels=4, ensemble=130, seed=seed)
    whole = brownian_milstein_whole_ensemble(cfg, scenarios)
    monkeypatch.setattr(scenarios, "_BLOCK_BUDGET", 64 * 48)
    blocks = []
    real_solve = rsde.solve

    def recording_solve(coeffs, y0, lift, *args, **kwargs):
        blocks.append(lift.path.n_members)
        return real_solve(coeffs, y0, lift, *args, **kwargs)

    monkeypatch.setattr(rsde, "solve", recording_solve)
    assert run_scenario(cfg) == whole
    # four levels per block, then the Picard gap row's own solve
    assert blocks == [48] * 4 + [48] * 4 + [34] * 4 + [64]


def test_brownian_milstein_event_arrays_are_views_of_the_time_major_block(monkeypatch):
    # each member block is laid out time-major once, so every level's event
    # schedule reads the lift's second level in place; the Picard gap row's
    # small member-major lift is copied
    monkeypatch.setattr(scenarios, "_BLOCK_BUDGET", 64 * 48)
    in_place = []
    real_solve = rsde.solve

    def checking_solve(coeffs, y0, lift, *args, **kwargs):
        sched = build_event_schedule(lift, *args)
        assert all(sched.dx[e].flags.c_contiguous for e in range(sched.dt.size))
        in_place.append(np.shares_memory(sched.xx, lift.step_second))
        return real_solve(coeffs, y0, lift, *args, **kwargs)

    monkeypatch.setattr(rsde, "solve", checking_solve)
    run_scenario(default_config("brownian_milstein", n=8, levels=4, ensemble=130))
    assert in_place == [True] * 12 + [False]


def test_brownian_milstein_peak_memory_is_per_block(monkeypatch):
    # 2048-member blocks at n_max = 128: 5000 members run as three blocks.
    # Measured: the traced peak is 4.5-4.6 block arrays (the block's values,
    # the finest lift and its temporaries); the whole ensemble held at once
    # would need about 11.
    monkeypatch.setattr(scenarios, "_BLOCK_BUDGET", 2**18)
    cfg = default_config("brownian_milstein", n=16, levels=4, ensemble=5000)
    block_array = 2048 * (128 + 1) * 8  # one (rows, n_max + 1) float64 array
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * block_array


def test_solve_validates_driver_dimension():
    bm = simulate_brownian(1.0, 16, seed=25, n_members=2, dim=2)
    lift = ito_lift_brownian(bm, seed=25)
    with pytest.raises(ValueError, match="one rough coefficient per driver direction"):
        solve(CoefficientSet(f=smooth_fn("sin_bundle")), 0.0, lift)


@pytest.mark.parametrize("solver", [solve, picard_solve])
def test_solvers_refuse_a_planar_martingale(solver):
    # the state is scalar, so sigma(Y) dM needs a scalar M; a planar one was
    # read through its first component
    bm = simulate_brownian(1.0, 16, seed=25, n_members=4, dim=2)
    coeffs = CoefficientSet(sigma=smooth_fn("sin_bundle"))
    with pytest.raises(ValueError, match="one-dimensional martingales"):
        solver(coeffs, 0.0, ito_lift_brownian(simulate_brownian(1.0, 16, seed=27)), bm)


def test_solve_validates_range():
    bm = simulate_brownian(1.0, 16, seed=27, n_members=2)
    lift = ito_lift_brownian(bm)
    with pytest.raises(ValueError):
        solve(CoefficientSet(), 0.0, lift, bm, start=8, stop=4)

"""Controlled paths, smooth functions, brackets, and the Ito formula."""

import numpy as np
import pytest

from roughsew.calculus import (
    ControlledPath,
    SmoothFn,
    bracket,
    compose,
    constant_controlled,
    controlled_from_lift,
    ito_formula_residual,
    mixed_bracket_check,
    rough_bracket,
    smooth_fn,
)
from roughsew.conventions import sym
from roughsew.grids import TimeGrid
from roughsew.paths import (
    SamplePath,
    forward_lift_jump_path,
    ito_lift_brownian,
    simulate_brownian,
    simulate_compound_poisson,
    smooth_lift,
)

from oracles import clipped_polynomial, controlled_integral, controlled_remainder


# ---------------------------------------------------------------------------
# smooth function registry
# ---------------------------------------------------------------------------


def _central_diff(f, y, h=1e-6):
    return (f(y + h) - f(y - h)) / (2.0 * h)


@pytest.mark.parametrize(
    "name,params",
    [
        ("linear", {"a": 1.7, "c": -0.3}),
        ("sin_bundle", {"a": 0.8, "b": 1.4, "c": 0.2}),
        ("tanh_affine", {"a": 1.2, "b": 0.9, "c": 0.1}),
        ("clipped_square", {}),
    ],
)
def test_smooth_fn_derivatives_match_finite_differences(name, params):
    fn = smooth_fn(name, **params)
    y = np.linspace(-2.0, 2.0, 41)  # interior of every clip range
    assert np.allclose(fn.df(y), _central_diff(fn.f, y), atol=1e-7)
    assert np.allclose(fn.d2f(y), _central_diff(fn.df, y), atol=1e-5)


def test_clipped_square_is_the_horner_oracle_bitwise():
    # a naive 2 y gives df(-0.0) = -0.0, and a naive 2 * mask gives d2f(NaN) = 0
    y = np.array(
        [-0.0, 0.0, 0.3, -2.7, 16.0, -16.0, 17.0, -40.0, np.inf, -np.inf, np.nan, -np.nan]
    )
    fn = smooth_fn("clipped_square")
    for got, want in zip((fn.f, fn.df, fn.d2f), clipped_polynomial((0.0, 0.0, 1.0), 16.0)):
        assert got(y).tobytes() == want(y).tobytes()


def test_smooth_fn_registry_and_unknown_name():
    for name in ("linear", "sin_bundle", "tanh_affine", "clipped_square"):
        assert isinstance(smooth_fn(name), SmoothFn)
    for name in ("gaussian_bump", "exp_clipped"):
        with pytest.raises(ValueError, match=f"unknown smooth function '{name}'"):
            smooth_fn(name)


@pytest.mark.parametrize(
    "name,typo,reads",
    [
        ("linear", "slope", "a, c"),
        ("sin_bundle", "amp", "a, b, c"),
        ("tanh_affine", "scale", "a, b, c"),
        ("clipped_square", "r", "nothing"),
    ],
)
def test_smooth_fn_refuses_a_parameter_its_entry_does_not_read(name, typo, reads):
    # before, linear(slope=2) silently gave slope 1 and sin_bundle(amp=5) amplitude 1
    with pytest.raises(ValueError) as err:
        smooth_fn(name, **{typo: 2.0})
    assert str(err.value) == f"smooth_fn {name!r} does not read {typo} (it reads: {reads})"


# ---------------------------------------------------------------------------
# controlled paths
# ---------------------------------------------------------------------------


def test_canonical_controlled_path_has_zero_remainder():
    bm = simulate_brownian(1.0, 32, seed=3, n_members=4)
    cp = controlled_from_lift(ito_lift_brownian(bm))
    x = cp.lift.path.values
    for (s, t) in [(0, 32), (5, 6), (10, 25)]:
        assert np.max(np.abs(controlled_remainder(cp.values, cp.derivative, x, s, t))) == 0.0


def test_compose_chain_rule():
    bm = simulate_brownian(1.0, 16, seed=5, n_members=3)
    cp = controlled_from_lift(ito_lift_brownian(bm))
    fn = smooth_fn("sin_bundle", a=1.1, b=0.7)
    out = compose(fn, cp)
    assert np.allclose(out.values, fn.f(cp.values))
    assert np.allclose(out.derivative, fn.df(cp.values)[..., None] * cp.derivative)


def test_composed_remainder_is_second_order():
    # R_{s,t} for f(X) on a smooth driver shrinks like the square of the step
    lift = smooth_lift("linear", 1.0, 64)
    cp = compose(smooth_fn("sin_bundle"), controlled_from_lift(lift))
    x = lift.path.values
    r_wide = np.max(np.abs(controlled_remainder(cp.values, cp.derivative, x, 0, 32)))
    r_half = np.max(np.abs(controlled_remainder(cp.values, cp.derivative, x, 0, 16)))
    assert r_half < 0.35 * r_wide


def test_constant_controlled_shapes_and_scalar_guard():
    bm = simulate_brownian(1.0, 8, seed=7, n_members=2, dim=2)
    lift = ito_lift_brownian(bm, seed=7)
    cp = constant_controlled(lift, np.full((1, 9), 3.0))
    assert cp.values.shape == (1, 9, 1)
    assert cp.derivative.shape == (1, 9, 1, 2)
    assert np.all(cp.derivative == 0.0)
    assert cp.scalar().shape == (1, 9)
    two_channel = ControlledPath(
        lift=lift, values=np.zeros((1, 9, 2)), derivative=np.zeros((1, 9, 2, 2))
    )
    with pytest.raises(ValueError):
        two_channel.scalar()


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_canonical_bracket_recovers_time_deterministically():
    # (B, Id) against the Ito lift: the germ's second-level correction cancels
    # dB^2 leaving the bracket increment, so [B]_T = T up to roundoff,
    # member by member -- no statistics involved
    bm = simulate_brownian(1.5, 64, seed=9, n_members=16)
    cp = controlled_from_lift(ito_lift_brownian(bm))
    br = bracket(cp, cp)
    assert np.max(np.abs(br[:, -1, 0, 0] - 1.5)) < 1e-12


def test_empirical_bracket_is_statistical():
    # derivative-free controlled path: the bracket is the raw quadratic
    # variation, which fluctuates around T
    bm = simulate_brownian(1.0, 256, seed=11, n_members=2000)
    lift = ito_lift_brownian(bm)
    cp = constant_controlled(lift, bm.values[..., 0])
    qv = bracket(cp, cp)[:, -1, 0, 0]
    se = qv.std(ddof=1) / np.sqrt(qv.shape[0])
    assert abs(qv.mean() - 1.0) < 3 * se
    assert qv.std() > 0.01  # genuinely empirical


def test_rough_bracket_geometric_lifts_vanish():
    assert np.max(np.abs(rough_bracket(smooth_lift("linear", 2.0, 32)))) == 0.0
    assert np.max(np.abs(rough_bracket(smooth_lift("sine_cosine_pair", 3.0, 64)))) < 1e-12


def test_rough_bracket_pure_jump_equals_realized_jump_sum():
    res = simulate_compound_poisson(1.0, 4.0, 16, seed=13, n_members=8)
    lift = forward_lift_jump_path(res.path)
    term = rough_bracket(lift)[:, -1, 0, 0]
    dx = np.diff(res.path.values[..., 0], axis=1)
    # non-jump steps contribute exact zeros, so the full cumulative sum is the
    # jump sum itself, addend for addend
    ref = np.cumsum(dx * dx, axis=1)[:, -1]
    assert np.array_equal(term, ref)


def test_mixed_bracket_pure_jump_grid_identity():
    # M pure jump, Z controlled on M's own lift, jumps on grid columns: the
    # grid bracket and the jump-sum formula are the same finite sum
    grid = TimeGrid(np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
    values = np.array([[[0.0], [0.0], [0.7], [0.7], [0.7], [-0.4]]])
    path = SamplePath(grid=grid, values=values, jump_indices=np.array([2, 5]))
    lift = forward_lift_jump_path(path)
    z = compose(smooth_fn("sin_bundle", a=1.0, b=0.9), controlled_from_lift(lift))
    grid_value, jump_sum, residual = mixed_bracket_check(
        path.values, path.jump_indices, path.jump_sizes(), z
    )
    assert np.array_equal(grid_value, jump_sum)
    assert np.all(residual == 0.0)


def test_mixed_bracket_refuses_planar_inputs():
    # a planar M was read through its first component
    bm = simulate_brownian(1.0, 16, seed=15, n_members=4, dim=2)
    lift = ito_lift_brownian(simulate_brownian(1.0, 16, seed=16))
    z = constant_controlled(lift, np.full((1, 17), 0.5))
    with pytest.raises(ValueError, match="m_values must be scalar"):
        mixed_bracket_check(bm.values, np.array([], dtype=np.int64), np.zeros((4, 0, 2)), z)
    sizes = np.ones((4, 2, 2))
    # the jump sizes are per jump, so the refusal names the (N, J) shapes
    with pytest.raises(
        ValueError,
        match=r"m_jump_sizes must be scalar, \(N, J\), \(N, J, 1\) or \(N, J, 1, 1\); "
        r"got \(4, 2, 2\)",
    ):
        mixed_bracket_check(bm.values[..., :1], np.array([3, 9]), sizes, z)


def test_bracket_heavy_tail_warning():
    bm = simulate_brownian(1.0, 16, seed=15, n_members=8)
    vals = bm.values.copy()
    vals[0] *= 200.0  # one member dominates the fourth moment
    spiked = simulate_brownian(1.0, 16, seed=15, n_members=8)
    spiked.values[:] = vals
    lift = ito_lift_brownian(spiked)
    cp = constant_controlled(lift, spiked.values[..., 0])
    with pytest.warns(UserWarning):
        bracket(cp, cp)


# ---------------------------------------------------------------------------
# integration by parts and the Ito formula
# ---------------------------------------------------------------------------


def _integration_by_parts_residual(a, b):
    """Max defect of Y_t Z_t = Y_0 Z_0 + int a db + (int b da)^T + [a, b]_t."""
    prod = np.einsum("nta,ntb->ntab", a.values, b.values)
    xx = a.lift.step_second
    i_ab = controlled_integral(a.values, a.derivative, b.values, b.derivative, xx)
    i_ba = controlled_integral(b.values, b.derivative, a.values, a.derivative, xx)
    i_ba = np.swapaxes(i_ba, -1, -2)
    resid = (prod - prod[:, :1]) - i_ab - i_ba - bracket(a, b)
    return float(np.max(np.abs(resid)))


def test_integration_by_parts_grid_identity_brownian():
    bm = simulate_brownian(1.0, 64, seed=17, n_members=8)
    cp = controlled_from_lift(ito_lift_brownian(bm))
    a = compose(smooth_fn("sin_bundle"), cp)
    b = compose(smooth_fn("tanh_affine"), cp)
    assert _integration_by_parts_residual(a, b) <= 1e-12


def test_integration_by_parts_grid_identity_two_dim():
    lift = smooth_lift("sine_cosine_pair", 2.0, 32)
    cp = controlled_from_lift(lift)
    assert _integration_by_parts_residual(cp, cp) <= 1e-12


def test_ito_formula_pure_jump_residual_exactly_zero():
    res = simulate_compound_poisson(1.0, 4.0, 24, seed=21, n_members=16)
    lift = forward_lift_jump_path(res.path)
    z = compose(smooth_fn("sin_bundle", a=0.9, b=1.1, c=0.2), controlled_from_lift(lift))
    fn = smooth_fn("clipped_square")
    resid = ito_formula_residual(fn, z)
    assert np.all(resid == 0.0)


def test_ito_formula_smooth_driver_residual_small():
    lift = smooth_lift("polynomial", 1.0, 256)
    cp = controlled_from_lift(lift)
    fn = smooth_fn("tanh_affine")
    resid = ito_formula_residual(fn, cp)
    assert np.max(np.abs(resid)) < 1e-4


def test_ito_formula_brownian_square_residual_shrinks():
    fn = smooth_fn("clipped_square")
    l1 = []
    for n in (32, 128):
        bm = simulate_brownian(1.0, n, seed=23, n_members=512)
        lift = ito_lift_brownian(bm)
        cp = constant_controlled(lift, bm.values[..., 0])
        resid = ito_formula_residual(fn, cp, bracket_path=bm.grid.times[None, :])
        l1.append(np.mean(np.abs(resid)))
    assert l1[1] < 0.75 * l1[0]


def test_ito_formula_refuses_a_planar_bracket_path():
    # a planar bracket was read through its (0, 0) entry
    bm = simulate_brownian(1.0, 16, seed=23, n_members=4)
    cp = constant_controlled(ito_lift_brownian(bm), bm.values[..., 0])
    planar = simulate_brownian(1.0, 16, seed=23, n_members=4, dim=2).bracket
    assert planar.shape == (1, 17, 2, 2)
    fn = smooth_fn("tanh_affine")
    with pytest.raises(ValueError, match="bracket_path must be scalar"):
        ito_formula_residual(fn, cp, bracket_path=planar)
    resid = ito_formula_residual(fn, cp, bracket_path=bm.bracket)
    assert np.array_equal(resid, ito_formula_residual(fn, cp, bracket_path=bm.bracket[..., 0, 0]))


def test_bracket_running_sum_matches_concatenate_cumsum():
    # (N, n, d, d) steps of the germ dX (x) dX - 2 Sym(XX), summed from zero
    bm = simulate_brownian(1.0, 32, seed=43, n_members=4, dim=2)
    lift = ito_lift_brownian(bm, seed=43)
    dx = np.diff(bm.values, axis=1)
    steps = np.einsum("ntj,ntk->ntjk", dx, dx) - 2.0 * sym(lift.step_second)
    ref = np.concatenate([np.zeros((4, 1, 2, 2)), np.cumsum(steps, axis=1)], axis=1)
    assert np.array_equal(rough_bracket(lift), ref)

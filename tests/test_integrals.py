"""Left-point integrals: Ito, rough-stochastic, Young, and jump structure."""

import numpy as np
import pytest

from roughsew.grids import TimeGrid, make_uniform_grid
from roughsew.integrals import (
    ito_integrate,
    jump_structure_check,
    rough_stoch_integrate,
    young_integrate,
)
from roughsew.paths import (
    RoughLift,
    SamplePath,
    forward_lift_jump_path,
    ito_lift_brownian,
    simulate_brownian,
    simulate_compound_poisson,
    smooth_lift,
)
from roughsew.scenarios import _subsampled_brownian

from oracles import fine_grid_ito_reference, left_point_steps_integral


def test_ito_integrate_known_deterministic_integrand():
    # int_0^T c dM = c (M_T - M_0)
    bm = simulate_brownian(1.0, 32, seed=1, n_members=6)
    c = 2.5
    y = np.full((6, 33), c)
    out = ito_integrate(y, bm)
    assert np.allclose(out[:, -1], c * bm.values[:, -1, 0], atol=1e-14)
    assert np.all(out[:, 0] == 0.0)


def test_ito_integrate_bdb_identity_error_shrinks():
    # the discrete sum differs from (B_T^2 - T)/2 by the compensated QV,
    # which shrinks as the grid refines
    errs = []
    for n in (32, 256):
        bm = simulate_brownian(1.0, n, seed=3, n_members=512)
        b = bm.values[..., 0]
        out = ito_integrate(b, bm)
        exact = 0.5 * (b[:, -1] ** 2 - 1.0)
        errs.append(np.sqrt(np.mean((out[:, -1] - exact) ** 2)))
    assert errs[1] < 0.5 * errs[0]


def test_ito_integrate_matches_fine_grid_oracle():
    # same Brownian increments, coarse integrand held left-constant on the
    # fine grid: the two cumulative sums agree exactly at shared points
    bm = simulate_brownian(1.0, 64, seed=5, n_members=4)
    b = bm.values[..., 0]
    out = ito_integrate(b, bm)
    coarse_vals, ref = fine_grid_ito_reference(lambda x: x, b, bm.grid.times, refine=1)
    assert np.array_equal(coarse_vals, b)
    assert np.allclose(out, ref, atol=1e-14)


def test_ito_and_young_integrate_match_step_products():
    bm = simulate_brownian(1.0, 40, seed=19, n_members=6)
    b = bm.values[..., 0]
    y = np.sin(b)
    # member-wise integrand, then one integrand row broadcast over members
    assert np.array_equal(ito_integrate(y, bm), left_point_steps_integral(y, b))
    assert np.array_equal(
        ito_integrate(y[:1], bm), left_point_steps_integral(y[:1], b)
    )
    assert np.array_equal(
        ito_integrate(y[:1, :, None], bm), left_point_steps_integral(y[:1], b)
    )
    # a (Nb, n+1, 1, 1) bracket integrator, Nb = 1 and Nb = N
    assert bm.bracket.shape == (1, 41, 1, 1)
    assert np.array_equal(
        young_integrate(y, bm.bracket, bm.grid),
        left_point_steps_integral(y, bm.bracket[..., 0, 0]),
    )
    res = simulate_compound_poisson(1.0, 4.0, 40, seed=23, n_members=6, align_jumps=False)
    br = res.martingale.bracket
    assert br.shape == (6, 41, 1, 1)
    for integrand in (y, y[:1]):
        assert np.array_equal(
            young_integrate(integrand, br, bm.grid),
            left_point_steps_integral(integrand, br[..., 0, 0]),
        )
    # strided integrand and integrator views, as the refinement scenarios pass
    sub = _subsampled_brownian(bm, 2)
    ys = y[:, ::2]
    assert not sub.values.flags.c_contiguous and sub.grid.n_steps == 20
    assert np.array_equal(
        ito_integrate(ys, sub), left_point_steps_integral(ys, sub.values[..., 0])
    )
    assert np.array_equal(
        young_integrate(ys, sub.bracket, sub.grid),
        left_point_steps_integral(ys, sub.bracket[..., 0, 0]),
    )


def test_integrals_refuse_non_scalar_integrators():
    # a d = 2 Brownian bracket (1, n+1, 2, 2) is not cut to its [B]^11 entry
    bm = simulate_brownian(1.0, 16, seed=19, n_members=3, dim=2)
    y = np.sin(bm.values[..., 0])
    with pytest.raises(ValueError, match="integrator must be scalar"):
        young_integrate(y, bm.bracket, bm.grid)
    with pytest.raises(ValueError, match="integrator must be scalar"):
        young_integrate(y, bm.values, bm.grid)  # (N, n+1, 2), as ito_germ(y, x)


def test_rough_stoch_integrate_smooth_driver_chain_rule():
    # dY = Y dX with X_t = t: rough integral of (e^x, e^x) reproduces e^T - 1
    # to the O(h^2) germ error
    n = 1024
    lift = smooth_lift("linear", 1.0, n)
    x = lift.path.values[..., 0]
    y = np.exp(x)
    out = rough_stoch_integrate(y, y, lift)
    assert out[0, -1] == pytest.approx(np.e - 1.0, abs=1e-6)


def test_rough_stoch_integrate_reduces_to_ito_for_zero_derivative():
    bm = simulate_brownian(1.0, 64, seed=7, n_members=8)
    lift = ito_lift_brownian(bm)
    y = np.sin(bm.values[..., 0])
    plain = ito_integrate(y, bm)
    rough = rough_stoch_integrate(y, np.zeros_like(y), lift)
    assert np.array_equal(plain, rough)


def test_rough_integrals_refuse_multidim_drivers():
    bm = simulate_brownian(1.0, 16, seed=9, n_members=2, dim=2)
    lift = ito_lift_brownian(bm, seed=9)
    with pytest.raises(ValueError, match="one-dimensional drivers, got d=2"):
        rough_stoch_integrate(bm.values[..., 0], bm.values[..., 0], lift)
    # the jump check refuses the same integrand on a d = 2 pure-jump lift
    cp = simulate_compound_poisson(1.0, 4.0, 16, seed=9, n_members=2).path
    v = cp.values
    path = SamplePath(cp.grid, np.concatenate([v, np.sin(v)], axis=-1), cp.jump_indices)
    jlift = forward_lift_jump_path(path)
    y = np.cos(v[..., 0])
    z = np.zeros(y.shape)
    for yy in (y, y[..., None]):
        with pytest.raises(ValueError, match="one-dimensional drivers, got d=2"):
            jump_structure_check(yy, yy, z, jlift)


def test_young_integrate_pure_jump_bracket():
    # int Y d[M] over a compound Poisson bracket = sum Y_{u-} (dM_u)^2
    res = simulate_compound_poisson(1.0, 4.0, 16, seed=11, n_members=8)
    mart = res.martingale
    y = np.cos(res.path.values[..., 0])
    out = young_integrate(y, mart.bracket[..., 0, 0], mart.grid)
    jumps = res.path.jump_indices
    dbr = np.diff(mart.bracket[..., 0, 0], axis=1)
    manual = np.zeros(out.shape[0])
    for j in jumps:
        manual += y[:, j - 1] * dbr[:, j - 1]
    assert np.allclose(out[:, -1], manual, atol=1e-13)


def test_young_integrate_time_integrator():
    grid = make_uniform_grid(1.0, 1000)
    y = np.sin(grid.times)[None, :]
    out = young_integrate(y, grid.times[None, :], grid)
    assert out[0, -1] == pytest.approx(1.0 - np.cos(1.0), abs=2e-3)


def test_jump_structure_compound_poisson():
    res = simulate_compound_poisson(1.0, 4.0, 32, seed=13, n_members=8)
    lift = forward_lift_jump_path(res.path)
    x = res.path.values[..., 0]
    y = np.sin(x)
    yp = np.cos(x)
    z = rough_stoch_integrate(y, yp, lift)
    assert jump_structure_check(y, yp, z, lift) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_jump_structure_channels_on_scalar_driver(m):
    res = simulate_compound_poisson(1.0, 4.0, 32, seed=13, n_members=8)
    lift = forward_lift_jump_path(res.path)
    x = res.path.values[..., 0]
    y = np.stack([np.sin(x), np.cos(x), x * x][:m], axis=-1)
    yp = np.stack([np.cos(x), -np.sin(x), 2.0 * x][:m], axis=-1)
    z = rough_stoch_integrate(y, yp, lift)
    assert z.shape == x.shape + (m,) and lift.path.jump_indices.size
    assert jump_structure_check(y, yp, z, lift) <= 1e-12


def test_jump_structure_hand_built_second_level_jump():
    # a two-step path whose second level itself jumps: Delta Z must pick up
    # Y'_{t-} Delta XX as well
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    values = np.array([[[0.0], [0.2], [1.2]]])
    steps = np.zeros((1, 2, 1, 1))
    steps[0, 1, 0, 0] = 0.3
    path = SamplePath(grid=grid, values=values, jump_indices=np.array([2]))
    lift = RoughLift(path, steps, jump_second=np.full((1, 1, 1, 1), 0.3))
    y = np.array([[1.0, 2.0, 2.0]])
    yp = np.array([[0.5, 1.5, 1.5]])
    z = rough_stoch_integrate(y, yp, lift)
    # direct check: dZ over the jump step = 2 * 1.0 + 1.5 * 0.3
    assert z[0, 2] - z[0, 1] == pytest.approx(2.45)
    assert jump_structure_check(y, yp, z, lift) <= 1e-12


def test_ito_isometry_small_ensemble_sanity():
    bm = simulate_brownian(1.0, 64, seed=17, n_members=20000)
    y = np.sin(bm.values[..., 0])
    out = ito_integrate(y, bm)
    lhs = np.mean(out[:, -1] ** 2)
    rhs_path = young_integrate(y**2, bm.bracket[..., 0, 0], bm.grid)
    rhs = np.mean(rhs_path[:, -1])
    diff = out[:, -1] ** 2 - rhs_path[:, -1]
    se = diff.std(ddof=1) / np.sqrt(diff.shape[0])
    assert abs(lhs - rhs) < 3 * se

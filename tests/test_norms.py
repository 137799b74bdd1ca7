"""Ensemble norms: L^q magnitudes, increment tables, and V^p seminorms."""

import numpy as np
import pytest

from roughsew.calculus import smooth_fn
from roughsew.grids import increment_table, p_variation
from roughsew.norms import (
    MAX_TABLE_POINTS,
    chen_residual,
    lq_norm,
    lq_table,
    rough_path_distance,
    second_level_seminorm,
    two_param_seminorm,
    vp_lq_seminorm,
)
from roughsew.paths import ito_lift_brownian, simulate_brownian, smooth_lift
from roughsew.rsde import CoefficientSet, RSDEProblem, solve, stability_experiment

from oracles import (
    increment_table_broadcast,
    lq_table_rows,
    remainder_mean_table_rows,
    second_level_table_cells,
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


def test_lq_norm_estimate_and_validation():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 3))
    est = lq_norm(x, 2.0, return_estimate=True)
    assert est.value == pytest.approx(lq_norm(x, 2.0))
    assert est.std_error > 0
    assert est.n_members == 500
    with pytest.raises(ValueError):
        lq_norm(x, 0.5)


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
        p_variation(increment_table(vals[0]), 2.0)
    )


def test_two_param_seminorm_is_p_variation():
    tab = increment_table(np.array([0.0, 1.0, -1.0]))
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


def test_rough_path_distance_zero_on_identical_lifts():
    bm = simulate_brownian(1.0, 16, seed=41, n_members=8)
    lift = ito_lift_brownian(bm)
    assert rough_path_distance(lift, lift, 2.5) == 0.0


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


# ---------------------------------------------------------------------------
# the one table builder against the per-table loops it replaced
# ---------------------------------------------------------------------------

# (members, dim): a single-member and a multi-member ensemble in d = 1 and 2
ENSEMBLE_CASES = [(1, 1), (1, 2), (9, 1), (9, 2)]
ORACLE_RTOL = 1e-13


def _lift(n_members, dim, seed, n=12):
    bm = simulate_brownian(1.0, n, seed=seed, n_members=n_members, dim=dim)
    return ito_lift_brownian(bm, substeps=4, seed=seed)


def _second_table_oracle(lift, q, s, t, other=None):
    pair = None if other is None else (other.path.values, other.second_prefix)
    return second_level_table_cells(
        lift.path.values, lift.second_prefix, q, s, t, other=pair
    )


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_lq_table_matches_row_loop_oracle(n_members, dim):
    vals = _lift(n_members, dim, seed=3).path.values
    for q, s, t in [(2.0, 0, None), (4.0, 2, 9), (1.5, 5, 5)]:
        got = lq_table(vals, q, s=s, t=t)
        want = lq_table_rows(vals, q, s=s, t=t)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=ORACLE_RTOL, atol=0.0)


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_second_level_seminorm_matches_cell_loop_oracle(n_members, dim):
    lift = _lift(n_members, dim, seed=5)
    for p, q, s, t in [(2.5, 2.0, 0, 12), (3.0, 4.0, 3, 10)]:
        want = p_variation(_second_table_oracle(lift, q, s, t), p / 2.0)
        got = second_level_seminorm(lift, p, q, s=s, t=t)
        assert got == pytest.approx(want, rel=ORACLE_RTOL, abs=0.0)


@pytest.mark.parametrize("n_members,dim", ENSEMBLE_CASES)
def test_rough_path_distance_matches_cell_loop_oracle(n_members, dim):
    a, b = _lift(n_members, dim, seed=7), _lift(n_members, dim, seed=8)
    for p, q, s, t in [(2.5, 2.0, 0, 12), (3.0, 4.0, 2, 11)]:
        first = p_variation(
            lq_table_rows(a.path.values - b.path.values, q, s=s, t=t), p
        )
        second = p_variation(_second_table_oracle(a, q, s, t, other=b), p / 2.0)
        got = rough_path_distance(a, b, p, q, s=s, t=t)
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
    rep = stability_experiment(coeffs, base, pert, p=p, q=q)
    ra = solve(coeffs, base.y0, base.lift)
    rb = solve(coeffs, pert.y0, pert.lift)
    tab = remainder_mean_table_rows(
        ra.values, ra.derivative, base.lift.path.values,
        rb.values, rb.derivative, pert.lift.path.values,
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
    assert np.array_equal(increment_table(vals), want)


def test_second_accepts_an_index_row_bitwise():
    lift = _lift(4, 2, seed=13)
    row = lift.second(3, np.arange(4, 13))
    assert row.shape == (4, 9, 2, 2)
    for k, t in enumerate(range(4, 13)):
        assert np.array_equal(row[:, k], lift.second(3, t))

"""Acceptance gates, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them all) and then asserts.  Sizes and tolerances are fixed here on purpose:
these are the numbers the statistical gates were calibrated for, so do not
shrink them to make the suite faster -- that is what the desk-scale ``verify``
suites are for.  Expensive scenario runs are shared across criteria through
module-scoped fixtures.  Wall-clock: a few minutes, dominated by the
N = 10^4-10^5 ensembles.
"""
import numpy as np
import pytest

from oracles import (
    brute_force_p_variation,
    control_from_table,
    control_mass,
    increment_table_broadcast,
)

from roughsew.grids import (
    alternating_midpoints,
    make_uniform_grid,
    p_variation,
)
from roughsew.scenarios import default_config, run_scenario


def _gate(num, name, checks):
    """checks: list of (ok, detail); prints one line, asserts all."""
    ok = all(c[0] for c in checks)
    detail = "; ".join(d for _, d in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name} ({detail})")
    assert ok, f"criterion {num:02d} failed: {name} ({detail})"


def _rows(scenario, **overrides):
    return run_scenario(default_config(scenario, **overrides))


def _value(rows, metric):
    got = [r for r in rows if r["metric"] == metric]
    assert len(got) == 1, f"expected one {metric!r} row, found {len(got)}"
    return got[0]["value"]


def _row(rows, metric):
    got = [r for r in rows if r["metric"] == metric]
    assert len(got) == 1, f"expected one {metric!r} row, found {len(got)}"
    return got[0]


# -- shared scenario runs ----------------------------------------------------


@pytest.fixture(scope="module")
def sewing_rows():
    # criterion 11 sizes: levels h = 0..8, N = 10^4; the same run carries the
    # 50-partition additivity spread on the 512-step grid for criterion 2
    return _rows("sewing_rate", ensemble=10_000, params={"depth": 8, "partitions": 50})


@pytest.fixture(scope="module")
def smooth_exp_rows():
    return _rows("smooth_exponential")


@pytest.fixture(scope="module")
def milstein_rows():
    # n = 64 * 2^6 = 4096 = 2^12 at the top level, N = 10^4
    return _rows("brownian_milstein", n=64, levels=7, ensemble=10_000)


@pytest.fixture(scope="module")
def em_rows():
    return _rows("em_reduction")


@pytest.fixture(scope="module")
def jump_mix_rows():
    return _rows("jump_mix")


@pytest.fixture(scope="module")
def stability_rows():
    return _rows("stability_base")


# -- the thirteen criteria ---------------------------------------------------


def test_criterion_01_chen_relation():
    rows = _rows("chen_check", params={"triples": 1000})
    worst = _value(rows, "chen_max_residual")
    per = {
        r["metric"][len("chen_max_residual[") : -1]: r["value"]
        for r in rows
        if r["metric"].startswith("chen_max_residual[")
    }
    assert set(per) == {
        "brownian_d1",
        "brownian_d2",
        "jump_forward",
        "smooth_pair",
        "mixed_forward",
    }
    _gate(
        1,
        "Chen residual <= 1e-10, every lift family, 1000 triples",
        [(worst <= 1e-10, f"max relative residual {worst:.3e}")],
    )


def test_criterion_02_exact_additivity(sewing_rows):
    spread = _row(sewing_rows, "partition_spread[rough]")
    _gate(
        2,
        "X dX + XX germ partition-independent <= 1e-10 (50 partitions, 512 grid)",
        [
            (spread["n"] == 512, f"grid n {spread['n']}"),
            (spread["value"] <= 1e-10, f"spread {spread['value']:.3e}"),
        ],
    )


def test_criterion_03_ito_closed_form():
    rows = _rows("ito_bdb", n=64, levels=7, ensemble=10_000)
    slope = _value(rows, "fitted_slope")
    tops = [r["n"] for r in rows if r["metric"] == "L2_error"]
    _gate(
        3,
        "int B dB L2 slope in [-0.65, -0.35], N=1e4, n=64..4096",
        [
            (min(tops) == 64 and max(tops) == 4096, f"n range {min(tops)}..{max(tops)}"),
            (-0.65 <= slope <= -0.35, f"slope {slope:.3f}"),
        ],
    )


def test_criterion_04_ito_isometry():
    rows = _rows("ito_isometry", ensemble=100_000)
    checks = []
    for y in ("1", "B", "sinB"):
        for m in ("brownian", "compensated_cp"):
            r = _row(rows, f"isometry_gap[Y={y},M={m}]")
            gap, se = r["value"], r["std_error"]
            checks.append((gap <= 3.0 * se, f"Y={y},M={m}: gap {gap:.2e} vs 3SE {3 * se:.2e}"))
    _gate(4, "Ito isometry within 3 SE, 6 combinations, N=1e5", checks)


def test_criterion_05_jump_structure(jump_mix_rows):
    rows = _rows("jump_structure")
    r_cp = _value(rows, "jump_residual[compound_poisson]")
    r_hb = _value(rows, "jump_residual[hand_built]")
    # the RSDE solution's own jumps, and a restart at a mid-grid state
    r_sol = _value(jump_mix_rows, "solution_jump_residual")
    flow = _value(jump_mix_rows, "flow_restart_gap")
    _gate(
        5,
        "dZ = Y dX + Y' dXX at jumps, residual <= 1e-12; RSDE jumps and restart exact",
        [
            (r_cp <= 1e-12, f"compound Poisson {r_cp:.3e}"),
            (r_hb <= 1e-12, f"hand-built {r_hb:.3e}"),
            (r_sol <= 1e-12, f"RSDE solution {r_sol:.3e}"),
            (flow == 0.0, f"flow-restart gap {flow:.1e}"),
        ],
    )


def test_criterion_06_geometric_and_milstein_orders(smooth_exp_rows, milstein_rows):
    order_a = _value(smooth_exp_rows, "observed_order")
    order_b = _value(milstein_rows, "observed_order")
    top_n = _row(milstein_rows, "observed_order")["n"]
    _gate(
        6,
        "dY = Y dX orders: smooth >= 1.9, Brownian strong >= 0.9",
        [
            (order_a >= 1.9, f"smooth order {order_a:.3f}"),
            (order_b >= 0.9, f"Brownian order {order_b:.3f}"),
            (top_n == 4096, f"top n {top_n}"),
        ],
    )


def test_criterion_07_solver_reductions(
    smooth_exp_rows, milstein_rows, em_rows, jump_mix_rows, stability_rows
):
    em_gap = _value(em_rows, "em_bitwise_gap")
    checks = [(em_gap == 0.0, f"EM bitwise gap {em_gap:.1e}")]
    for name, rows in (
        ("smooth_exponential", smooth_exp_rows),
        ("brownian_milstein", milstein_rows),
        ("em_reduction", em_rows),
        ("jump_mix", jump_mix_rows),
        ("stability_base", stability_rows),
    ):
        gap = _value(rows, "solve_picard_gap")
        checks.append((gap <= 1e-6, f"{name} picard gap {gap:.2e}"))
    _gate(7, "f=0 is Euler-Maruyama bitwise; solve == picard_solve <= 1e-6", checks)


def test_criterion_08_stability_sweep(stability_rows):
    checks = []
    for key in ("y0", "martingale", "lift"):
        ratios = [
            r["value"] for r in stability_rows if r["metric"] == f"stability_ratio[{key}]"
        ]
        spread = _value(stability_rows, f"ratio_spread[{key}]")
        finite = len(ratios) == 4 and all(np.isfinite(v) and v > 0 for v in ratios)
        checks.append((finite, f"{key}: 4 finite ratios"))
        checks.append((spread < 5.0, f"{key} spread {spread:.2f}"))
    _gate(8, "perturbation ratios finite, spread < 5 across eps=1e-1..1e-4", checks)


def test_criterion_09_brackets():
    rows = _rows("brackets")
    gap_row = _row(rows, "bracket_gap[brownian]")
    lin = _value(rows, "rough_bracket_max[linear]")
    pair = _value(rows, "rough_bracket_max[sine_cosine]")
    pj = _value(rows, "pure_jump_bracket_residual")
    slope = _value(rows, "mixed_bracket_slope")
    n_levels = sum(r["metric"] == "mixed_bracket_l2" for r in rows)
    _gate(
        9,
        "brackets: [B]_T ~ T, geometric zero, jump sum exact, [M,Z] decays",
        [
            (
                gap_row["value"] <= 3.0 * gap_row["std_error"],
                f"[B]_T gap {gap_row['value']:.2e} vs 3SE {3 * gap_row['std_error']:.2e}",
            ),
            (lin <= 1e-12, f"linear {lin:.1e}"),
            (pair <= 1e-12, f"sine/cosine {pair:.1e}"),
            (pj == 0.0, f"pure-jump residual {pj:.1e}"),
            (n_levels >= 4 and slope < 0.0, f"[M,Z] slope {slope:.3f} over {n_levels} levels"),
        ],
    )


def test_criterion_10_ito_formula():
    rows = _rows("ito_formula")
    s_b = _value(rows, "slope[brownian_square]")
    s_t = _value(rows, "slope[smooth_tanh]")
    z = _value(rows, "max_residual[pure_jump]")
    _gate(
        10,
        "change-of-variable residual rates",
        [
            (-0.65 <= s_b <= -0.35, f"Brownian y^2 slope {s_b:.3f}"),
            (s_t <= -0.9, f"smooth tanh slope {s_t:.3f}"),
            (z == 0.0, f"pure-jump residual {z:.1e}"),
        ],
    )


def test_criterion_11_sewing_rate(sewing_rows):
    s_ito = _value(sewing_rows, "refine_slope[ito]")
    s_qv = _value(sewing_rows, "refine_slope[qv]")
    add = _value(sewing_rows, "additive_max_distance")
    n_levels = sum(r["metric"] == "refine_distance[ito]" for r in sewing_rows)
    _gate(
        11,
        "sewing slopes < -0.2 over h=0..8, N=1e4; additive distances zero",
        [
            (n_levels == 9, f"{n_levels} levels"),
            (s_ito < -0.2, f"ito slope {s_ito:.3f}"),
            (s_qv < -0.2, f"qv slope {s_qv:.3f}"),
            (add == 0.0, f"additive max {add:.1e}"),
        ],
    )


def test_criterion_12_alternating_midpoint_bound():
    checks = []
    for n_controls in (2, 3):
        rng = np.random.default_rng(900 + n_controls)
        violations = 0
        for _ in range(40):
            n = int(rng.integers(8, 48))
            g = make_uniform_grid(1.0, n)
            ws = []
            for _ in range(n_controls):
                masses = rng.uniform(0.05, 1.0, size=n)
                prefix = np.concatenate([[0.0], np.cumsum(masses)])
                tab = np.maximum(prefix[None, :] - prefix[:, None], 0.0) ** 1.5
                ws.append(control_from_table(g, tab))
            levels = alternating_midpoints(ws, 0, n, 2 * n_controls)
            for h, pts in enumerate(levels):
                factor = 0.5 ** (h // n_controls)
                for w in ws:
                    # left-open masses: w(a, b-) = w(a, b - 1) on the grid
                    bound = factor * control_mass(w, 0, n - 1)
                    for a, b in zip(pts[:-1], pts[1:]):
                        if not control_mass(w, a, b - 1) <= bound:
                            violations += 1
        checks.append((violations == 0, f"{n_controls} controls: {violations} violations"))
    _gate(12, "halving bound exact on every level, 40 random trials each", checks)


def test_criterion_13_p_variation_oracle():
    rng = np.random.default_rng(1313)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(2, 11))  # grids with at most 10 points
        vals = rng.normal(size=(m, int(rng.integers(1, 3))))
        tab = increment_table_broadcast(vals)
        p = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0]))
        if p_variation(tab, p) != brute_force_p_variation(tab, p):
            mismatches += 1
    _gate(
        13,
        "p-variation DP equals exhaustive enumeration bitwise",
        [(mismatches == 0, f"{mismatches}/200 mismatches")],
    )

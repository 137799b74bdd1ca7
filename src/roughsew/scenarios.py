"""Experiment registry: named scenarios producing rows of (metric, value, SE).

Each scenario is a function config -> list of row dicts with the fixed schema
(scenario, level, n, N, metric, value, std_error, seed).  The command line
rescales sizes through the config; the metric definitions — what exactly an
"isometry gap" or a "fitted slope" means — live here and nowhere else, so the
verification suites and any downstream analysis agree by construction.

Refinement studies couple their levels: Brownian drivers are simulated once
on the finest grid and subsampled (views, no copies), and jump ensembles draw
their jump times/sizes before the grid is built, so the same seed yields the
identical jumps at every resolution.
"""
from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import calculus, integrals, paths, rsde, sewing
from .grids import Partition, TimeGrid, full_partition, make_uniform_grid
from .norms import chen_residual, lq_norm
from .rng import stream

__all__ = [
    "ExperimentConfig",
    "ROW_FIELDS",
    "SCHEMA_VERSION",
    "SCENARIOS",
    "default_config",
    "run_scenario",
]

ROW_FIELDS = ("scenario", "level", "n", "N", "metric", "value", "std_error", "seed")
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run and at what size; everything an output row needs to cite.

    `params` holds scenario-specific knobs (driver/coefficient overrides);
    `out_dir` is only consulted by the command line when writing files.
    """

    scenario: str
    n: int = 256
    levels: int = 1
    ensemble: int = 1024
    seed: int = 7
    p: float = 2.0
    q: float = 4.0
    params: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown scenario {self.scenario!r} (known: {known})")
        for name, low in (("n", 2), ("levels", 1), ("ensemble", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < low:
                raise ValueError(f"{name} must be >= {low}, got {v!r}")
        for name in ("p", "q"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 1 <= v < math.inf:
                raise ValueError(f"{name} must be a finite number >= 1, got {v!r}")


def _row(cfg, metric, value, std_error=0.0, level=0, n=None, N=None):
    return {
        "scenario": cfg.scenario,
        "level": int(level),
        "n": int(cfg.n if n is None else n),
        "N": int(cfg.ensemble if N is None else N),
        "metric": str(metric),
        "value": float(value),
        "std_error": float(std_error),
        "seed": int(cfg.seed),
    }


def _fit_log2_slope(sizes, errors) -> float:
    """Slope of log2(error) against log2(size), by `sewing.log2_fit`."""
    return sewing.log2_fit(np.log2(np.asarray(sizes, dtype=float)), errors)[0]


def _run_levels(fn, levels: int, threads: int) -> list:
    """fn(k) for k = 0..levels-1, optionally on a thread pool (order kept)."""
    if threads > 1 and levels > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, range(levels)))
    return [fn(k) for k in range(levels)]


def _l2_with_se(err: np.ndarray) -> tuple[float, float]:
    """Root-mean-square of err with its delta-method standard error."""
    sq = err**2
    m = float(sq.mean())
    l2 = float(np.sqrt(m))
    if sq.size < 2 or l2 == 0.0:
        return l2, 0.0
    se = float(np.std(sq, ddof=1) / np.sqrt(sq.size) / (2.0 * l2))
    return l2, se


def _subsampled_brownian(bm: paths.MartingalePath, stride: int) -> paths.MartingalePath:
    """The same Brownian ensemble on every stride-th grid point (views)."""
    grid = TimeGrid(bm.grid.times[::stride])
    return paths.MartingalePath(
        grid=grid,
        values=bm.values[:, ::stride],
        bracket=bm.bracket[:, ::stride] if bm.bracket is not None else None,
    )


# ---------------------------------------------------------------------------
# structural scenarios
# ---------------------------------------------------------------------------


def scenario_chen_check(cfg: ExperimentConfig, threads: int = 1):
    """Chen's identity on random windows for every built-in lift family."""
    seed, n = cfg.seed, cfg.n
    n_triples = int(cfg.params.get("triples", 1000))
    lifts = []
    bm1 = paths.simulate_brownian(1.0, n, seed, n_members=min(cfg.ensemble, 64), dim=1)
    lifts.append(("brownian_d1", paths.ito_lift_brownian(bm1, seed=seed)))
    bm2 = paths.simulate_brownian(1.0, n, seed + 1, n_members=min(cfg.ensemble, 16), dim=2)
    lifts.append(("brownian_d2", paths.ito_lift_brownian(bm2, seed=seed + 1)))
    cp = paths.simulate_compound_poisson(1.0, 3.0, n, seed + 2, n_members=min(cfg.ensemble, 16))
    lifts.append(("jump_forward", paths.forward_lift_jump_path(cp.path)))
    lifts.append(("smooth_pair", paths.smooth_lift("sine_cosine_pair", 3.0, n)))
    mixed = paths.simulate_mixed(1.0, n, seed + 3, n_members=min(cfg.ensemble, 16))
    lifts.append(("mixed_forward", mixed.lift))

    rows = []
    worst = 0.0
    for name, lift in lifts:
        m = lift.grid.n_steps
        g = stream(seed, "chen-triples", name)
        triples = np.sort(g.integers(0, m + 1, size=(n_triples, 3)), axis=1)
        res = 0.0
        for s, u, t in triples:
            res = max(res, chen_residual(lift, int(s), int(u), int(t)))
        rows.append(_row(cfg, f"chen_max_residual[{name}]", res, n=m, N=lift.path.n_members))
        worst = max(worst, res)
    rows.append(_row(cfg, "chen_max_residual", worst))
    return rows


def scenario_jump_structure(cfg: ExperimentConfig, threads: int = 1):
    """Jump identity dZ = Y_{t-} dX + Y'_{t-} dXX for rough integrals."""
    rows = []
    cp = paths.simulate_compound_poisson(
        1.0, 4.0, cfg.n, cfg.seed, n_members=min(cfg.ensemble, 32)
    )
    lift = paths.forward_lift_jump_path(cp.path)
    ycp = calculus.compose(
        calculus.smooth_fn("sin_bundle", a=1.0, b=0.7, c=0.3),
        calculus.controlled_from_lift(lift),
    )
    y = ycp.scalar()
    yp = ycp.derivative[..., 0, 0]
    z = integrals.rough_stoch_integrate(y, yp, lift)
    r = integrals.jump_structure_check(y, yp, z, lift)
    rows.append(_row(cfg, "jump_residual[compound_poisson]", r, N=cp.path.n_members))

    # hand-built two-step driver whose single jump carries Delta XX = 0.3
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    sp = paths.SamplePath(
        grid=grid,
        values=np.array([[[0.0], [0.2], [1.2]]]),
        jump_indices=np.array([2]),
    )
    step2 = np.zeros((1, 2, 1, 1))
    step2[0, 1, 0, 0] = 0.3
    lift2 = paths.lift_from_steps(
        sp, step2, jump_second=np.full((1, 1, 1, 1), 0.3), name="hand-built-jump"
    )
    y2 = np.array([[1.0, 2.0, 2.0]])
    yp2 = np.array([[0.5, 1.5, 1.5]])
    z2 = integrals.rough_stoch_integrate(y2, yp2, lift2)
    r2 = integrals.jump_structure_check(y2, yp2, z2, lift2)
    rows.append(_row(cfg, "jump_residual[hand_built]", r2, n=2, N=1))
    rows.append(_row(cfg, "jump_residual", max(r, r2)))
    return rows


# ---------------------------------------------------------------------------
# stochastic integration
# ---------------------------------------------------------------------------


def scenario_ito_bdb(cfg: ExperimentConfig, threads: int = 1):
    """Strong error of int B dB against (B_T^2 - T)/2 across refinements."""
    T = 1.0
    n_max = cfg.n * 2 ** (cfg.levels - 1)
    bm = paths.simulate_brownian(T, n_max, cfg.seed, n_members=cfg.ensemble, dim=1)
    b_T = bm.values[:, -1, 0]
    ref = 0.5 * (b_T**2 - T)

    def level(k):
        mart = _subsampled_brownian(bm, n_max // (cfg.n * 2**k))
        term = integrals.ito_integrate(mart.values, mart).terminal
        l2, se = _l2_with_se(term - ref)
        return mart.grid.n_steps, l2, se

    out = _run_levels(level, cfg.levels, threads)
    rows = [
        _row(cfg, "L2_error", l2, se, level=k, n=n_k)
        for k, (n_k, l2, se) in enumerate(out)
    ]
    slope = _fit_log2_slope([o[0] for o in out], [o[1] for o in out])
    rows.append(_row(cfg, "fitted_slope", slope, n=n_max))
    return rows


def scenario_ito_isometry(cfg: ExperimentConfig, threads: int = 1):
    """E[(int Y dM)^2] vs E[int Y^2 d[M]] for three integrands, two drivers."""
    T, n, N, seed = 1.0, cfg.n, cfg.ensemble, cfg.seed
    bm = paths.simulate_brownian(T, n, seed, n_members=N, dim=1)
    cp = paths.simulate_compound_poisson(
        T, 5.0, n, seed, n_members=N, jump_params=(0.0, 1.0), align_jumps=False
    )
    b = bm.values[..., 0]
    integrands = (("1", np.ones((1, n + 1))), ("B", b), ("sinB", np.sin(b)))
    rows = []
    for mname, mart in (("brownian", bm), ("compensated_cp", cp.martingale)):
        br = mart.bracket[..., 0, 0]
        for yname, y in integrands:
            lhs = integrals.ito_integrate(y, mart).terminal ** 2
            rhs = integrals.young_integrate(y * y, br, mart.grid).terminal
            diff = lhs - rhs  # paired per member: one SE covers both sides
            gap = abs(float(diff.mean()))
            se = float(np.std(diff, ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else 0.0
            rows.append(_row(cfg, f"isometry_gap[Y={yname},M={mname}]", gap, se))
    return rows


def scenario_sewing_rate(cfg: ExperimentConfig, threads: int = 1):
    """Refinement decay for sewn germs; exactness for additive ones."""
    T, n, N, seed = 1.0, cfg.n, cfg.ensemble, cfg.seed
    depth = int(cfg.params.get("depth", 8))
    bm = paths.simulate_brownian(T, n, seed, n_members=N, dim=1)
    b = bm.values[..., 0]
    rows = []

    for tag, germ in (
        ("ito", sewing.ito_germ(b, b)),
        ("qv", sewing.qv_germ(b, bracket=bm.bracket[..., 0, 0])),
    ):
        rep = sewing.convergence_rate(germ, bm.grid, depth=depth, q=2.0)
        for h, dist in zip(rep.levels, rep.distances):
            rows.append(_row(cfg, f"refine_distance[{tag}]", dist, level=int(h)))
        rows.append(_row(cfg, f"refine_slope[{tag}]", rep.slope))

    # additive germs telescope; on an integer-valued walk every clipped sum
    # is exact integer arithmetic, so the distances are zero to the bit
    g = stream(seed, "integer-walk")
    steps = g.integers(-3, 4, size=(min(N, 256), n)).astype(float)
    walk = np.concatenate([np.zeros((steps.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1)
    rep_add = sewing.convergence_rate(
        sewing.increment_germ(walk), bm.grid, depth=depth, q=2.0
    )
    rows.append(
        _row(cfg, "additive_max_distance", float(np.max(rep_add.distances)), N=walk.shape[0])
    )
    rows.append(_row(cfg, "additive_slope", rep_add.slope, N=walk.shape[0]))

    # partition independence of the exactly-additive controlled germ
    # Xi = X_s dX + XX on a 512-step grid, random partitions vs the full sum
    n2 = 512
    bm2 = paths.simulate_brownian(T, n2, seed + 7, n_members=8, dim=1)
    lift2 = paths.ito_lift_brownian(bm2, seed=seed + 7)
    germ2 = sewing.rough_germ(
        bm2.values, np.ones((1, n2 + 1)), bm2.values, lift2.second_prefix
    )
    full = sewing.riemann_sum(germ2, full_partition(lift2.grid))
    g2 = stream(seed, "partitions")
    spread = 0.0
    for _ in range(int(cfg.params.get("partitions", 50))):
        interior = np.unique(g2.integers(1, n2, size=int(g2.integers(0, 256))))
        idx = np.concatenate([[0], interior, [n2]])
        total = sewing.riemann_sum(germ2, Partition(lift2.grid, idx))
        spread = max(spread, float(np.max(np.abs(total - full))))
    rows.append(_row(cfg, "partition_spread[rough]", spread, n=n2, N=8))
    return rows


# ---------------------------------------------------------------------------
# brackets and the change-of-variable formula
# ---------------------------------------------------------------------------


def scenario_brackets(cfg: ExperimentConfig, threads: int = 1):
    T, n, N, seed = 1.0, cfg.n, cfg.ensemble, cfg.seed
    rows = []

    # empirical [B]_T against its mean T
    bm = paths.simulate_brownian(T, n, seed, n_members=N, dim=1)
    lift = paths.ito_lift_brownian(bm, seed=seed)
    b_cp = calculus.constant_controlled(lift, bm.values[..., 0])
    qv = calculus.bracket(b_cp, b_cp).terminal[:, 0, 0]
    gap = abs(float(np.mean(qv)) - T)
    se = float(np.std(qv, ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    rows.append(_row(cfg, "bracket_gap[brownian]", gap, se))

    # geometric lifts have vanishing bracket
    for tag, pid in (("linear", "linear"), ("sine_cosine", "sine_cosine_pair")):
        sl = paths.smooth_lift(pid, 3.0, n)
        rb = calculus.rough_bracket(sl)
        rows.append(_row(cfg, f"rough_bracket_max[{tag}]", float(np.max(np.abs(rb.values))), N=1))

    # pure-jump bracket is the jump sum, addend for addend
    cpj = paths.simulate_compound_poisson(T, 4.0, n, seed + 1, n_members=min(N, 16))
    liftj = paths.forward_lift_jump_path(cpj.path)
    term = calculus.rough_bracket(liftj).terminal[:, 0, 0]
    js2 = cpj.path.jump_sizes()[..., 0] ** 2
    jump_sum = (
        np.cumsum(js2, axis=1)[:, -1] if js2.shape[1] else np.zeros(js2.shape[0])
    )
    rows.append(
        _row(
            cfg,
            "pure_jump_bracket_residual",
            float(np.max(np.abs(term - jump_sum))),
            N=cpj.path.n_members,
        )
    )

    # mixed bracket [M, Z]: grid value vs jump sum, refined over 4 levels.
    # Jumps are drawn before the grid, so the levels share them; the leftover
    # is the compensator drift over pre-jump steps, O(mesh).
    n_mz, errs, sizes = min(N, 64), [], []
    for k in range(max(cfg.levels, 4)):
        n_k = cfg.n * 2**k
        cpk = paths.simulate_compound_poisson(
            T, 5.0, n_k, seed + 2, n_members=n_mz,
            jump_params=(0.7, 0.4), align_jumps=True,
        )
        liftk = paths.forward_lift_jump_path(cpk.path)
        zk = calculus.compose(
            calculus.smooth_fn("sin_bundle", a=1.0, b=0.9, c=0.1),
            calculus.controlled_from_lift(liftk),
        )
        m = cpk.martingale
        _, _, resid = calculus.mixed_bracket_check(
            m.values, m.jump_indices, m.jump_sizes(), zk, q=cfg.q
        )
        errs.append(lq_norm(resid, 2.0))
        sizes.append(n_k)
        rows.append(_row(cfg, "mixed_bracket_l2", errs[-1], level=k, n=n_k, N=n_mz))
    rows.append(_row(cfg, "mixed_bracket_slope", _fit_log2_slope(sizes, errs), N=n_mz))
    return rows


def scenario_ito_formula(cfg: ExperimentConfig, threads: int = 1):
    """Change-of-variable residuals: Brownian CLT rate, smooth Taylor rate,
    and the exactly-compensated pure-jump case."""
    T, seed, N = 1.0, cfg.seed, cfg.ensemble
    rows = []
    square = calculus.smooth_fn("polynomial_clipped", coeffs=(0.0, 0.0, 1.0), r=16.0)

    n_max = cfg.n * 2 ** (cfg.levels - 1)
    bm = paths.simulate_brownian(T, n_max, seed, n_members=N, dim=1)

    def level(k):
        mart = _subsampled_brownian(bm, n_max // (cfg.n * 2**k))
        lift = paths.ito_lift_brownian(mart, seed=seed)
        cp = calculus.constant_controlled(lift, mart.values[..., 0])
        resid = calculus.ito_formula_residual(
            square, cp, bracket_path=mart.grid.times[None, :]
        )
        ab = np.abs(resid)
        se = float(np.std(ab, ddof=1) / np.sqrt(ab.size)) if ab.size > 1 else 0.0
        return mart.grid.n_steps, float(ab.mean()), se

    out = _run_levels(level, cfg.levels, threads)
    for k, (n_k, l1, se) in enumerate(out):
        rows.append(_row(cfg, "l1_residual[brownian_square]", l1, se, level=k, n=n_k))
    rows.append(
        _row(
            cfg,
            "slope[brownian_square]",
            _fit_log2_slope([o[0] for o in out], [o[1] for o in out]),
            n=n_max,
        )
    )

    tanh = calculus.smooth_fn("tanh_affine")
    sizes, errs = [], []
    for k in range(cfg.levels):
        n_k = cfg.n * 2**k
        cp = calculus.controlled_from_lift(paths.smooth_lift("polynomial", T, n_k))
        resid = calculus.ito_formula_residual(tanh, cp)
        sizes.append(n_k)
        errs.append(abs(float(resid[0])))
        rows.append(_row(cfg, "l1_residual[smooth_tanh]", errs[-1], level=k, n=n_k, N=1))
    rows.append(_row(cfg, "slope[smooth_tanh]", _fit_log2_slope(sizes, errs), N=1))

    cpj = paths.simulate_compound_poisson(T, 4.0, cfg.n, seed + 5, n_members=min(N, 32))
    liftj = paths.forward_lift_jump_path(cpj.path)
    zj = calculus.compose(
        calculus.smooth_fn("sin_bundle", a=0.9, b=1.1, c=0.2),
        calculus.controlled_from_lift(liftj),
    )
    residj = calculus.ito_formula_residual(square, zj)
    rows.append(
        _row(cfg, "max_residual[pure_jump]", float(np.max(np.abs(residj))), N=cpj.path.n_members)
    )
    return rows


# ---------------------------------------------------------------------------
# solver scenarios
# ---------------------------------------------------------------------------


def _picard_gap_row(cfg, coeffs, y0, lift, mart=None, n=None, N=None, tol=1e-10):
    sol = rsde.solve(coeffs, y0, lift, mart)
    pic = rsde.picard_solve(
        coeffs, y0, lift, mart, p=cfg.p, q=cfg.q, tol=tol, max_iter=80
    )
    gap = float(np.max(np.abs(sol.values - pic.values)))
    return _row(cfg, "solve_picard_gap", gap, n=n, N=N)


def scenario_smooth_exponential(cfg: ExperimentConfig, threads: int = 1):
    """dY = Y dX along a deterministic geometric lift vs y0 exp(dX_{0,T})."""
    coeffs = rsde.CoefficientSet(f=calculus.smooth_fn("linear"))
    y0 = 1.0
    rows, sizes, errs = [], [], []
    for k in range(cfg.levels):
        n_k = cfg.n * 2**k
        lift = paths.smooth_lift("polynomial", 1.0, n_k)
        res = rsde.solve(coeffs, y0, lift)
        x = lift.path.values[0, :, 0]
        exact = y0 * np.exp(x[-1] - x[0])
        err = abs(float(res.values[0, -1]) - exact)
        sizes.append(n_k)
        errs.append(err)
        rows.append(_row(cfg, "abs_error", err, level=k, n=n_k, N=1))
    slope = _fit_log2_slope(sizes, errs)
    rows.append(_row(cfg, "observed_order", -slope, N=1))
    rows.append(
        _picard_gap_row(cfg, coeffs, y0, paths.smooth_lift("polynomial", 1.0, 64), n=64, N=1)
    )
    return rows


def scenario_brownian_milstein(cfg: ExperimentConfig, threads: int = 1):
    """dY = Y dB with the Ito lift vs y0 exp(B_T - T/2), coupled refinements."""
    T, seed, N = 1.0, cfg.seed, cfg.ensemble
    coeffs = rsde.CoefficientSet(f=calculus.smooth_fn("linear"))
    n_max = cfg.n * 2 ** (cfg.levels - 1)
    bm = paths.simulate_brownian(T, n_max, seed, n_members=N, dim=1)
    exact = np.exp(bm.values[:, -1, 0] - 0.5 * T)
    rows, sizes, errs = [], [], []
    for k in range(cfg.levels):
        mart = _subsampled_brownian(bm, n_max // (cfg.n * 2**k))
        lift = paths.ito_lift_brownian(mart, seed=seed)
        res = rsde.solve(coeffs, 1.0, lift)
        l2, se = _l2_with_se(res.values[:, -1] - exact)
        sizes.append(mart.grid.n_steps)
        errs.append(l2)
        rows.append(_row(cfg, "L2_error", l2, se, level=k, n=sizes[-1]))
    slope = _fit_log2_slope(sizes, errs)
    rows.append(_row(cfg, "observed_order", -slope, n=n_max))

    bm_small = paths.simulate_brownian(T, 128, seed + 1, n_members=min(N, 64), dim=1)
    lift_small = paths.ito_lift_brownian(bm_small, seed=seed + 1)
    rows.append(
        _picard_gap_row(cfg, coeffs, 1.0, lift_small, n=128, N=bm_small.n_members)
    )
    return rows


def scenario_em_reduction(cfg: ExperimentConfig, threads: int = 1):
    """With no rough coefficient the scheme IS Euler-Maruyama, to the bit."""
    T, n, N, seed = 1.0, cfg.n, cfg.ensemble, cfg.seed
    bm = paths.simulate_brownian(T, n, seed, n_members=N, dim=1)
    lift = paths.ito_lift_brownian(bm, seed=seed)
    coeffs = rsde.CoefficientSet(
        b=calculus.smooth_fn("tanh_affine", a=0.5, b=1.0, c=0.1),
        sigma=calculus.smooth_fn("sin_bundle", a=0.8, b=1.0, c=0.4),
    )
    y0 = 0.3
    res = rsde.solve(coeffs, y0, lift, mart=bm)

    dt = lift.grid.steps()
    dm = bm.increments()[..., 0]
    y = np.full(N, y0)
    gap = 0.0
    for k in range(n):
        out = y
        out = out + coeffs.b.f(y) * dt[k]
        out = out + coeffs.sigma.f(y) * dm[:, k]
        y = out
        gap = max(gap, float(np.max(np.abs(res.values[:, k + 1] - y))))
    rows = [_row(cfg, "em_bitwise_gap", gap)]
    rows.append(_picard_gap_row(cfg, coeffs, y0, lift, mart=bm))
    return rows


def scenario_jump_mix(cfg: ExperimentConfig, threads: int = 1):
    """Full RSDE on a Brownian-plus-jumps driver: solution jump structure,
    flow property under restart, and the two solver modes agreeing."""
    T, n, N, seed = 1.0, cfg.n, cfg.ensemble, cfg.seed
    mixed = paths.simulate_mixed(T, n, seed, n_members=N, rate=2.0, jump_params=(0.3, 0.45))
    lift, mart = mixed.lift, mixed.martingale
    coeffs = rsde.CoefficientSet(
        b=calculus.smooth_fn("tanh_affine", a=0.4, b=0.9),
        sigma=calculus.smooth_fn("sin_bundle", a=0.5, b=1.1, c=0.2),
        f=calculus.smooth_fn("tanh_affine", a=0.8, b=0.7, c=0.1),
    )
    y0 = 0.2
    res = rsde.solve(coeffs, y0, lift, mart=mart)
    rows = []

    jumps = lift.path.jump_indices
    if jumps.size:
        left = res.left_values
        dmj = mart.jump_sizes()[..., 0]
        dxj = lift.path.jump_sizes()[..., 0]
        dxxj = lift.jump_second[..., 0, 0]
        f = coeffs.f_components()[0]
        pred = (
            left
            + coeffs.sigma.f(left) * dmj
            + f.f(left) * dxj
            + f.df(left) * f.f(left) * dxxj
        )
        jr = float(np.max(np.abs(res.values[:, jumps] - pred)))
    else:
        jr = 0.0
    rows.append(_row(cfg, "solution_jump_residual", jr, n=lift.grid.n_steps))

    mid = lift.grid.n_steps // 2
    first = rsde.solve(coeffs, y0, lift, mart=mart, stop=mid)
    second = rsde.solve(coeffs, first.values[:, mid], lift, mart=mart, start=mid)
    flow_gap = float(np.max(np.abs(second.values[:, mid:] - res.values[:, mid:])))
    rows.append(_row(cfg, "flow_restart_gap", flow_gap, n=lift.grid.n_steps))

    rows.append(
        _picard_gap_row(cfg, coeffs, y0, lift, mart=mart, n=lift.grid.n_steps)
    )
    return rows


def scenario_stability_base(cfg: ExperimentConfig, threads: int = 1):
    """Data-to-solution Lipschitz ratios under separate perturbations of
    (y0, M, X) across four decades of epsilon."""
    T, n, N, seed = 1.0, cfg.n, cfg.ensemble, cfg.seed
    grid = make_uniform_grid(T, n)
    times = grid.times
    base_lift = paths.smooth_lift("linear", T, n)
    bm = paths.simulate_brownian(T, n, seed, n_members=N, dim=1)
    coeffs = rsde.CoefficientSet(
        b=calculus.smooth_fn("tanh_affine", a=0.3, b=1.0, c=0.05),
        sigma=calculus.smooth_fn("sin_bundle", a=0.5, b=0.9, c=0.3),
        f=calculus.smooth_fn("tanh_affine", a=0.6, b=0.8),
    )
    y0 = 0.1
    base = rsde.RSDEProblem(y0=y0, lift=base_lift, mart=bm)
    w = paths.simulate_brownian(T, n, seed + 101, n_members=N, dim=1)

    rows = []
    ratios: dict[str, list[float]] = {"y0": [], "martingale": [], "lift": []}
    eps_grid = tuple(cfg.params.get("eps", (1e-1, 1e-2, 1e-3, 1e-4)))
    for i, eps in enumerate(eps_grid):
        rep = rsde.stability_experiment(
            coeffs, base, rsde.RSDEProblem(y0 + eps, base_lift, bm), p=cfg.p, q=cfg.q
        )
        ratios["y0"].append(rep.ratio)
        rows.append(_row(cfg, "stability_ratio[y0]", rep.ratio, level=i))

        mart_p = paths.MartingalePath(
            grid=grid,
            values=bm.values + eps * w.values,
            bracket=((1.0 + eps**2) * times)[None, :, None, None],
        )
        rep = rsde.stability_experiment(
            coeffs,
            base,
            rsde.RSDEProblem(y0, base_lift, mart_p),
            p=cfg.p,
            q=cfg.q,
            mdiff_bracket=(eps**2 * times)[None, :],
        )
        ratios["martingale"].append(rep.ratio)
        rows.append(_row(cfg, "stability_ratio[martingale]", rep.ratio, level=i))

        vals = base_lift.path.values + eps * (times * (1.0 - times))[None, :, None]
        dx = np.diff(vals, axis=1)
        tilted = paths.lift_from_steps(
            paths.SamplePath(grid=grid, values=vals),
            0.5 * dx[..., None] * dx[:, :, None, :],
            name="tilted-linear",
        )
        rep = rsde.stability_experiment(
            coeffs, base, rsde.RSDEProblem(y0, tilted, bm), p=cfg.p, q=cfg.q
        )
        ratios["lift"].append(rep.ratio)
        rows.append(_row(cfg, "stability_ratio[lift]", rep.ratio, level=i))

    for key, vals in ratios.items():
        arr = np.asarray(vals)
        spread = float(arr.max() / arr.min()) if np.all(arr > 0) else float("inf")
        if not np.all(np.isfinite(arr)):
            spread = float("inf")
        rows.append(_row(cfg, f"ratio_spread[{key}]", spread))

    rows.append(_picard_gap_row(cfg, coeffs, y0, base_lift, mart=bm))
    return rows


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SCENARIOS = {
    "chen_check": scenario_chen_check,
    "jump_structure": scenario_jump_structure,
    "ito_bdb": scenario_ito_bdb,
    "ito_isometry": scenario_ito_isometry,
    "sewing_rate": scenario_sewing_rate,
    "brackets": scenario_brackets,
    "ito_formula": scenario_ito_formula,
    "smooth_exponential": scenario_smooth_exponential,
    "brownian_milstein": scenario_brownian_milstein,
    "em_reduction": scenario_em_reduction,
    "jump_mix": scenario_jump_mix,
    "stability_base": scenario_stability_base,
}

# desk-scale defaults: small enough for interactive runs, large enough that
# every statistical gate has headroom at the default seed
DEFAULT_SIZES = {
    "chen_check": dict(n=256, ensemble=64, levels=1),
    "jump_structure": dict(n=64, ensemble=32, levels=1),
    "ito_bdb": dict(n=64, ensemble=2048, levels=5),
    "ito_isometry": dict(n=128, ensemble=20000, levels=1),
    "sewing_rate": dict(n=512, ensemble=2000, levels=1),
    "brackets": dict(n=256, ensemble=4096, levels=1),
    "ito_formula": dict(n=64, ensemble=4096, levels=5),
    "smooth_exponential": dict(n=8, ensemble=1, levels=6),
    "brownian_milstein": dict(n=64, ensemble=2000, levels=5),
    "em_reduction": dict(n=256, ensemble=512, levels=1),
    "jump_mix": dict(n=128, ensemble=64, levels=1),
    "stability_base": dict(n=96, ensemble=128, levels=1),
}


def default_config(scenario: str, **overrides) -> ExperimentConfig:
    kw = dict(DEFAULT_SIZES.get(scenario, {}))
    kw.update(overrides)
    return ExperimentConfig(scenario=scenario, **kw)


def run_scenario(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    return SCENARIOS[cfg.scenario](cfg, threads=threads)

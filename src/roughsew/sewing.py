"""The stochastic-sewing engine.

A germ assigns to every grid window [t_s, t_t] an ensemble of values
Xi_{s,t}; its Riemann sums over a partition P, clipped at time t, are

    Xi^P_t = sum over [u,v] in P of Xi_{u ^ t, v ^ t}.

On a finite grid the sewn limit is the full-grid Riemann sum.  `sew` walks a
sequence of nested partitions produced by alternating midpoints of the
supplied controls (time plus p-variation controls of the germ's inputs by
default), measures the uniform-in-time empirical L^q distance to the limit at
every level, and reports the observed geometric decay.  Non-decay is a
diagnostic (a warning), not an error: germs that violate the sewing
hypotheses — e.g. non-adapted ones — are expected to be run here to see the
failure.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (
    ControlFn,
    Partition,
    TimeGrid,
    alternating_midpoints,
    full_partition,
    pvar_control,
    time_control,
)
from .norms import lq_table

__all__ = [
    "Germ",
    "SewOutput",
    "RateReport",
    "riemann_sum",
    "riemann_path",
    "delta_germ",
    "sew",
    "convergence_rate",
    "log2_fit",
    "increment_germ",
    "ito_germ",
    "rough_germ",
    "qv_germ",
    "young_germ",
    "truncate_context",
]


@dataclass
class Germ:
    """A two-parameter ensemble process Xi_{s,t} driven by named context arrays.

    `fn(ctx, s, t)` must read only ctx entries at indices <= t (adaptedness:
    evaluating on a context truncated at t must reproduce every value up to t;
    the engine's diagnostics rely on this being checkable by recomputation).
    Context arrays are member-major: (N, n+1, ...).
    `control_keys` names the inputs whose p-variation should control the
    default partition refinement.
    """

    name: str
    fn: Callable[[dict, int, int], np.ndarray]
    context: dict
    control_keys: tuple = ()

    def __call__(self, s: int, t: int, ctx: dict | None = None) -> np.ndarray:
        return self.fn(self.context if ctx is None else ctx, int(s), int(t))

    @property
    def n_members(self) -> int:
        for v in self.context.values():
            if isinstance(v, np.ndarray):
                return v.shape[0]
        raise ValueError("germ context holds no arrays")


def truncate_context(ctx: dict, t: int) -> dict:
    """Context restricted to grid indices 0..t (time axis is axis 1)."""
    out = {}
    for k, v in ctx.items():
        out[k] = v[:, : t + 1] if isinstance(v, np.ndarray) and v.ndim >= 2 else v
    return out


def delta_germ(germ: Germ, s: int, u: int, t: int) -> np.ndarray:
    """Coboundary dXi_{s,u,t} = Xi_{s,t} - Xi_{s,u} - Xi_{u,t}."""
    return germ(s, t) - germ(s, u) - germ(u, t)


def riemann_sum(germ: Germ, partition: Partition) -> np.ndarray:
    """Sum of the germ over the partition's intervals, shape (N, ...)."""
    total = None
    for u, v in partition.pairs():
        val = germ(u, v)
        total = val if total is None else total + val
    return total


def riemann_path(germ: Germ, partition: Partition) -> np.ndarray:
    """Clipped sums Xi^P_t for every grid t in [partition start, end].

    Returns (N, n_window+1, ...) with entry j the clipped sum at grid index
    start + j.  Inside an interval [u, v] the clipped sum is the accumulated
    total plus Xi_{u, t}.
    """
    idx = partition.indices
    start, end = int(idx[0]), int(idx[-1])
    probe = germ(start, min(start + 1, end))
    n = probe.shape[0]
    trail = probe.shape[1:]
    out = np.zeros((n, end - start + 1) + trail)
    acc = np.zeros((n,) + trail)
    for u, v in partition.pairs():
        for t in range(u + 1, v + 1):
            out[:, t - start] = acc + germ(u, t)
        acc = out[:, v - start].copy()
    return out


def _uniform_lq_distance(a: np.ndarray, b: np.ndarray, q: float) -> float:
    """|| sup_t |a_t - b_t| ||_{L^q(ensemble)} with Frobenius magnitudes."""
    diff = a - b
    n = diff.shape[0]
    flat = diff.reshape(n, diff.shape[1], -1)
    mags = np.sqrt(np.einsum("ntk,ntk->nt", flat, flat))
    sup = mags.max(axis=1)
    return float(np.mean(sup**q) ** (1.0 / q))


def default_controls(germ: Germ, grid: TimeGrid, p: float = 2.0, q: float = 2.0) -> list[ControlFn]:
    """Time control plus a p-variation control per declared germ input.

    Input controls are built from the ensemble L^q increment table so the
    partitions are deterministic and shared by all members.
    """
    controls = [time_control(grid)]
    for key in germ.control_keys:
        arr = germ.context[key]
        if arr.ndim >= 2 and arr.shape[1] == grid.n_steps + 1:
            controls.append(pvar_control(grid, lq_table(arr, q), p, name=f"pvar[{key}]"))
    return controls


@dataclass
class SewOutput:
    """Result of sewing a germ on a finite grid."""

    value_path: np.ndarray            # (N, n+1, ...) full-grid limit I_t
    partitions: list                  # Partition per level
    distances: np.ndarray             # level -> ||sup_t |I - Xi^{P^h}|||_{L^q}
    gaps: np.ndarray                  # level h -> distance between levels h-1, h
    met_tol: bool                     # successive-level criterion was reached
    converged: bool                   # met_tol or grid exhausted, and no warning
    warning: str | None = None

    @property
    def value(self) -> np.ndarray:
        return self.value_path[:, -1]


def _level_paths(germ, grid, controls, depth, s, t):
    levels = alternating_midpoints(controls, s, t, depth)
    parts = [Partition(grid, lv) for lv in levels]
    return parts, [riemann_path(germ, p) for p in parts]


def sew(
    germ: Germ,
    grid: TimeGrid,
    controls: list[ControlFn] | None = None,
    tol: float = 1e-3,
    q: float = 2.0,
    max_depth: int | None = None,
) -> SewOutput:
    """Sew a germ: full-grid limit plus a refinement diagnostic.

    Refines along alternating-midpoint partitions until successive levels
    differ by less than `tol` relative to (1 + ||I||) in the uniform empirical
    L^q metric, or the partition exhausts the grid.  Non-decay is flagged, not
    raised: if the successive-level distance grows over three consecutive
    refinements the germ is failing the sewing hypotheses (the canonical
    culprit is a non-adapted germ) and a warning is attached and emitted.
    """
    n = grid.n_steps
    controls = controls if controls is not None else default_controls(germ, grid)
    full = riemann_path(germ, full_partition(grid))
    scale = 1.0 + _uniform_lq_distance(full, np.zeros_like(full), q)
    depth = max_depth if max_depth is not None else max(1, int(np.ceil(np.log2(n))) + 2)

    partitions: list[Partition] = []
    paths: list[np.ndarray] = []
    distances: list[float] = []
    gaps: list[float] = []
    met_tol = False
    exhausted = False
    levels = alternating_midpoints(controls, 0, n, depth)
    for h, lv in enumerate(levels):
        part = Partition(grid, lv)
        path = riemann_path(germ, part)
        partitions.append(part)
        paths.append(path)
        distances.append(_uniform_lq_distance(full, path, q))
        if h > 0:
            gaps.append(_uniform_lq_distance(paths[h - 1], path, q))
            if gaps[-1] < tol * scale:
                met_tol = True
                break
        if lv.size == n + 1:
            exhausted = True
            break
    gap_arr = np.array(gaps)
    warning = None
    if gap_arr.size >= 4 and np.any(
        (np.diff(gap_arr) > 0)[:-2]
        & (np.diff(gap_arr) > 0)[1:-1]
        & (np.diff(gap_arr) > 0)[2:]
    ):
        warning = (
            f"germ {germ.name!r}: successive-level distances grew over three "
            "consecutive refinements; the germ is not sewing (check "
            "adaptedness and the coboundary bounds)"
        )
        warnings.warn(warning)
    return SewOutput(
        value_path=full,
        partitions=partitions,
        distances=np.array(distances),
        gaps=gap_arr,
        met_tol=met_tol,
        converged=(met_tol or exhausted) and warning is None,
        warning=warning,
    )


@dataclass
class RateReport:
    """Observed geometric decay of refinement error: distances ~ C 2^(slope*h)."""

    levels: np.ndarray
    distances: np.ndarray
    slope: float
    intercept: float
    q: float


def convergence_rate(
    germ: Germ,
    grid: TimeGrid,
    controls: list[ControlFn] | None = None,
    depth: int = 8,
    q: float = 2.0,
) -> RateReport:
    """Distance-to-limit per refinement level and the fitted log2 slope.

    The slope is fitted by `log2_fit`.
    """
    controls = controls if controls is not None else default_controls(germ, grid)
    full = riemann_path(germ, full_partition(grid))
    parts, paths = _level_paths(germ, grid, controls, depth, 0, grid.n_steps)
    distances = np.array([_uniform_lq_distance(full, p, q) for p in paths])
    levels = np.arange(depth + 1)
    slope, intercept = log2_fit(levels, distances)
    return RateReport(levels, distances, slope, intercept, q)


def log2_fit(x, errors) -> tuple[float, float]:
    """Least-squares line log2(error) ~ slope * x + intercept.

    Exact zeros are excluded (germs whose sums telescope); if every error is
    zero both numbers are -inf, the sentinel for "converged identically".  A
    single nonzero error gives slope 0.  Any non-finite error (a NaN level, a
    diverged member) makes both NaN, so no rate gate can pass on it.
    """
    x = np.asarray(x, dtype=float)
    e = np.asarray(errors, dtype=float)
    if not np.all(np.isfinite(e)):
        return float("nan"), float("nan")
    pos = e > 0
    if not np.any(pos):
        return float("-inf"), float("-inf")
    y = np.log2(e[pos])
    slope, intercept = np.polyfit(x[pos], y, 1) if y.size > 1 else (0.0, y[0])
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# germ builders
# ---------------------------------------------------------------------------


def increment_germ(values: np.ndarray, name: str = "increment") -> Germ:
    """Additive germ Xi_{s,t} = dX_{s,t}; its sums are partition-independent."""
    ctx = {"x": np.asarray(values, dtype=float)}
    return Germ(name, lambda c, s, t: c["x"][:, t] - c["x"][:, s], ctx, ("x",))


def ito_germ(integrand: np.ndarray, mart_values: np.ndarray, name: str = "ito") -> Germ:
    """Left-point germ Xi_{s,t} = Y_s dM_{s,t} (scalar integrand and martingale)."""
    ctx = {
        "y": np.asarray(integrand, dtype=float),
        "m": np.asarray(mart_values, dtype=float),
    }
    if ctx["y"].ndim == 3:
        ctx["y"] = ctx["y"][..., 0]
    if ctx["m"].ndim == 3:
        ctx["m"] = ctx["m"][..., 0]
    return Germ(
        name,
        lambda c, s, t: c["y"][:, s] * (c["m"][:, t] - c["m"][:, s]),
        ctx,
        ("y", "m"),
    )


def rough_germ(
    y: np.ndarray,
    yp: np.ndarray,
    x_values: np.ndarray,
    second_prefix: np.ndarray,
    name: str = "rough",
) -> Germ:
    """One-dimensional controlled-integrand germ Y_s dX_{s,t} + Y'_s XX_{s,t}.

    The second level is reconstructed from its prefix inside the germ (Chen),
    so truncated contexts stay self-consistent.
    """
    ctx = {
        "y": np.asarray(y, dtype=float),
        "yp": np.asarray(yp, dtype=float),
        "x": np.asarray(x_values, dtype=float),
        "xx0": np.asarray(second_prefix, dtype=float),
    }
    for k in ("y", "yp", "x"):
        if ctx[k].ndim == 3:
            ctx[k] = ctx[k][..., 0]
    if ctx["xx0"].ndim == 4:
        ctx["xx0"] = ctx["xx0"][..., 0, 0]

    def fn(c, s, t):
        dx = c["x"][:, t] - c["x"][:, s]
        xx = c["xx0"][:, t] - c["xx0"][:, s] - (c["x"][:, s] - c["x"][:, 0]) * dx
        return c["y"][:, s] * dx + c["yp"][:, s] * xx

    return Germ(name, fn, ctx, ("y", "x"))


def qv_germ(values: np.ndarray, bracket: np.ndarray | None = None, name: str = "qv") -> Germ:
    """Quadratic-variation germ (dM_{s,t})^2, optionally bracket-compensated."""
    ctx = {"m": np.asarray(values, dtype=float)}
    if ctx["m"].ndim == 3:
        ctx["m"] = ctx["m"][..., 0]
    if bracket is not None:
        b = np.asarray(bracket, dtype=float)
        while b.ndim > 2:
            b = b[..., 0]
        ctx["b"] = b

    def fn(c, s, t):
        val = (c["m"][:, t] - c["m"][:, s]) ** 2
        if "b" in c:
            val = val - (c["b"][:, t] - c["b"][:, s])
        return val

    return Germ(name, fn, ctx, ("m",))


def young_germ(integrand: np.ndarray, a_values: np.ndarray, name: str = "young") -> Germ:
    """Left-point Stieltjes germ Y_s dA_{s,t} for a finite-variation integrator."""
    ctx = {
        "y": np.asarray(integrand, dtype=float),
        "a": np.asarray(a_values, dtype=float),
    }
    for k in ("y", "a"):
        if ctx[k].ndim == 3:
            ctx[k] = ctx[k][..., 0]
    return Germ(
        name,
        lambda c, s, t: c["y"][:, s] * (c["a"][:, t] - c["a"][:, s]),
        ctx,
        ("y", "a"),
    )

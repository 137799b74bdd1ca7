"""Sample paths, martingales, and rough-path lifts with jumps.

Paths are ensembles: `values` has shape (N, n+1, d) on a shared grid.  Jump
times are grid members; `jump_indices` lists them and `left_values` stores the
state immediately before each jump (for piecewise-constant paths this is the
value at the previous grid point, bit for bit).

A lift stores the prefix XX_{0, t_k} of its second level plus the jumps
Delta XX of the second level itself, and reconstructs any window XX_{s,t} in
O(1) through Chen's identity; see `conventions` for the index layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import outer_increment
from .grids import TIME_TOL, TimeGrid, insert_times, make_uniform_grid
from .rng import stream

__all__ = [
    "SamplePath",
    "MartingalePath",
    "RoughLift",
    "DriverSpec",
    "simulate_brownian",
    "ito_lift_brownian",
    "simulate_compound_poisson",
    "forward_lift_jump_path",
    "smooth_lift",
    "smooth_path_registry",
    "lift_from_steps",
    "simulate_mixed",
    "build_driver",
]


@dataclass
class SamplePath:
    """An ensemble of cadlag paths sampled on a shared grid."""

    grid: TimeGrid
    values: np.ndarray  # (N, n+1, d)
    jump_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    left_values: np.ndarray | None = None  # (N, J, d), state just before each jump

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3 or v.shape[1] != self.grid.n_steps + 1:
            raise ValueError("values must have shape (N, n+1, d)")
        self.values = v
        self.jump_indices = np.asarray(self.jump_indices, dtype=np.int64)
        if self.jump_indices.size and (
            self.jump_indices.min() < 1 or self.jump_indices.max() > self.grid.n_steps
        ):
            raise ValueError("jump indices must lie in 1..n")
        if self.left_values is None and self.jump_indices.size:
            self.left_values = v[:, self.jump_indices - 1, :].copy()
        if self.left_values is not None:
            self.left_values = np.asarray(self.left_values, dtype=float)

    @property
    def n_members(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)

    def jump_sizes(self) -> np.ndarray:
        """Delta X at each declared jump index, shape (N, J, d)."""
        if not self.jump_indices.size:
            return np.zeros((self.n_members, 0, self.dim))
        return self.values[:, self.jump_indices, :] - self.left_values


@dataclass
class MartingalePath(SamplePath):
    """A path ensemble together with its (optional) predictable bracket.

    bracket: (Nb, n+1, d, d) with Nb in {1, N}; [M]_t sampled at grid points.
    Deterministic brackets (e.g. vol vol^T t for Brownian motion) use Nb = 1.
    """

    bracket: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.bracket is not None:
            b = np.asarray(self.bracket, dtype=float)
            if b.ndim != 4 or b.shape[1] != self.grid.n_steps + 1:
                raise ValueError("bracket must have shape (Nb, n+1, d, d)")
            self.bracket = b

    def bracket_increments(self) -> np.ndarray:
        if self.bracket is None:
            raise ValueError("no bracket stored")
        return np.diff(self.bracket, axis=1)


@dataclass
class RoughLift:
    """A rough-path lift: first level `path`, second-level prefix, and its jumps.

    second_prefix[:, k] = XX_{0, t_k}, shape (Nx, n+1, d, d), Nx in {1, N}.
    jump_second[:, j] = Delta XX at path.jump_indices[j] (the jump of the
    second level itself; zero for forward lifts of pure-jump paths).
    """

    path: SamplePath
    second_prefix: np.ndarray
    jump_second: np.ndarray | None = None
    name: str = "lift"
    # per-step XX as handed to the builder; kept verbatim so that step-based
    # consumers (brackets, correction terms) see the exact array rather than a
    # prefix-difference reconstruction, which reintroduces rounding.
    step_second: np.ndarray | None = None

    def __post_init__(self):
        xx = np.asarray(self.second_prefix, dtype=float)
        d = self.path.dim
        if xx.shape[1:] != (self.path.grid.n_steps + 1, d, d):
            raise ValueError("second_prefix must have shape (Nx, n+1, d, d)")
        self.second_prefix = xx
        if self.jump_second is None:
            self.jump_second = np.zeros((xx.shape[0], self.path.jump_indices.size, d, d))
        else:
            self.jump_second = np.asarray(self.jump_second, dtype=float)
        if self.step_second is not None:
            ss = np.asarray(self.step_second, dtype=float)
            if ss.shape[1:] != (self.path.grid.n_steps, d, d):
                raise ValueError("step_second must have shape (Nx, n, d, d)")
            self.step_second = ss

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def dim(self) -> int:
        return self.path.dim

    def second(self, s: int, t: int | np.ndarray) -> np.ndarray:
        """XX_{s,t} via Chen from the stored prefix, shape (N, d, d).

        `t` may also be an index array; the result is then (N, len(t), d, d),
        entry k equal to XX_{s, t[k]} bit for bit.
        """
        x, pre = self.path.values, self.second_prefix
        dx0s, x_s, pre_s = x[:, s, :] - x[:, 0, :], x[:, s, :], pre[:, s]
        if np.ndim(t):  # a row of windows: broadcast the s terms over t
            dx0s, x_s, pre_s = dx0s[:, None], x_s[:, None], pre_s[:, None]
        return pre[:, t] - pre_s - outer_increment(dx0s, x[:, t, :] - x_s)

    def step_seconds(self) -> np.ndarray:
        """XX over every grid step, shape (Nx, n, d, d)."""
        if self.step_second is not None:
            return self.step_second
        x = self.path.values
        dx0 = x[:, :-1, :] - x[:, :1, :]
        dstep = np.diff(x, axis=1)
        return (
            self.second_prefix[:, 1:]
            - self.second_prefix[:, :-1]
            - outer_increment(dx0, dstep)
        )


def _accumulate_prefix(values: np.ndarray, step_second: np.ndarray) -> np.ndarray:
    """Prefix XX_{0, t_k} from per-step second levels via Chen, done in order
    so that reconstructing a step from the prefix returns the step bit for bit
    whenever no rounding intervenes."""
    n_members, n_plus1, d = values.shape
    nx = step_second.shape[0]
    out = np.zeros((nx, n_plus1, d, d))
    dstep = np.diff(values, axis=1)
    dx0 = values[:, :-1, :] - values[:, :1, :]
    cross = outer_increment(dx0, dstep)
    for k in range(n_plus1 - 1):
        out[:, k + 1] = out[:, k] + step_second[:, k] + cross[:, k]
    return out


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------


def simulate_brownian(
    T: float,
    n: int,
    seed: int,
    n_members: int = 1,
    dim: int = 1,
    vol: np.ndarray | float = 1.0,
    grid: TimeGrid | None = None,
) -> MartingalePath:
    """Brownian ensemble B_t = vol . W_t on a uniform (or supplied) grid.

    The bracket vol vol^T t is stored analytically with a broadcast member
    axis.  Increments are drawn in one member-major call from the stream
    (seed, "brownian").
    """
    grid = grid if grid is not None else make_uniform_grid(T, n)
    volm = np.eye(dim) * vol if np.ndim(vol) == 0 else np.asarray(vol, dtype=float)
    rng = stream(seed, "brownian", dim, n_members)
    dt = grid.steps()
    dw = rng.standard_normal((n_members, grid.n_steps, dim)) * np.sqrt(dt)[None, :, None]
    db = np.einsum("ij,nkj->nki", volm, dw)
    values = np.concatenate(
        [np.zeros((n_members, 1, dim)), np.cumsum(db, axis=1)], axis=1
    )
    bracket = np.einsum("ij,kj->ik", volm, volm)[None, None, :, :] * grid.times[
        None, :, None, None
    ]
    return MartingalePath(grid=grid, values=values, bracket=bracket)


def ito_lift_brownian(bm: MartingalePath, substeps: int = 8, seed: int = 0) -> RoughLift:
    """Ito lift of a Brownian ensemble.

    The symmetric part of each step is the exact Ito identity
    (dB (x) dB - [B]_step) / 2; for dim >= 2 the antisymmetric part (the Levy
    area) is simulated from `substeps` Brownian-bridge sub-increments per step,
    which carries an O(1/substeps) distributional bias.  In one dimension the
    lift is exact: XX_step = (dB^2 - vol^2 dt) / 2.
    """
    grid = bm.grid
    db = bm.increments()
    bracket_step = bm.bracket_increments()
    sym_part = 0.5 * (outer_increment(db, db) - bracket_step)
    d = bm.dim
    n_members, n = db.shape[0], db.shape[1]
    if d == 1:
        step_second = sym_part
    else:
        if substeps < 2:
            raise ValueError("need at least 2 substeps for the Levy area")
        rng = stream(seed, "levy-area", d, substeps, n_members)
        area = np.zeros((n_members, n, d, d))
        # per-step bridge: xi_i ~ N(0, [B]_step / m), then eta_i = xi_i + (dB - sum xi)/m
        chol = np.linalg.cholesky(bracket_step[0] / substeps) if bracket_step.shape[0] == 1 else None
        for k in range(n):
            ck = chol[k] if chol is not None else np.linalg.cholesky(
                bracket_step[:, k] / substeps
            )
            xi = rng.standard_normal((n_members, substeps, d))
            xi = np.einsum("ij,nmj->nmi", ck, xi) if chol is not None else np.einsum(
                "nij,nmj->nmi", ck, xi
            )
            eta = xi + (db[:, k, None, :] - xi.sum(axis=1, keepdims=True)) / substeps
            run = np.cumsum(eta, axis=1)
            raw = np.einsum(
                "nmj,nmk->njk", np.concatenate([np.zeros((n_members, 1, d)), run[:, :-1]], axis=1), eta
            )
            area[:, k] = 0.5 * (raw - np.swapaxes(raw, -1, -2))
        step_second = sym_part + area
    prefix = _accumulate_prefix(bm.values, step_second)
    return RoughLift(path=bm, second_prefix=prefix, name="brownian-ito", step_second=step_second)


# ---------------------------------------------------------------------------
# compound Poisson
# ---------------------------------------------------------------------------

_JUMP_MEANS = {
    "gauss": lambda p: p[0],
    "fixed": lambda p: p[0],
    "uniform": lambda p: 0.5 * (p[0] + p[1]),
}


def _draw_jump_sizes(rng, kind, params, count):
    if kind == "gauss":
        mu, sigma = params
        return mu + sigma * rng.standard_normal(count)
    if kind == "fixed":
        return np.full(count, float(params[0]))
    if kind == "uniform":
        a, b = params
        return rng.uniform(a, b, size=count)
    raise ValueError(f"unknown jump size distribution {kind!r}")


@dataclass
class CompoundPoissonResult:
    """Pure-jump path X, its compensated martingale M, and jump metadata."""

    path: SamplePath
    martingale: MartingalePath
    rate: float
    jump_mean: float


def simulate_compound_poisson(
    T: float,
    rate: float,
    n: int,
    seed: int,
    n_members: int = 1,
    jump_kind: str = "gauss",
    jump_params: tuple = (0.0, 1.0),
    align_jumps: bool = True,
    base_grid: TimeGrid | None = None,
) -> CompoundPoissonResult:
    """Compound Poisson ensemble with intensity `rate` on [0, T].

    align_jumps=True (default): every member's jump times are merged into the
    base grid exactly, so jumps sit on grid points and left limits are exact
    previous-grid-point values.  Intended for structural tests at small N.

    align_jumps=False: paths are sampled at the base grid only (jumps interior
    to a step show up in that step's increment); the quadratic variation is
    still exact at grid points because it is accumulated from the true jump
    times.  Intended for large-N Monte Carlo.

    The compensated martingale is M_t = X_t - rate * E[jump] * t with bracket
    [M]_t = sum of (Delta X_u)^2 over actual jump times u <= t.
    """
    base = base_grid if base_grid is not None else make_uniform_grid(T, n)
    rng = stream(seed, "compound-poisson", n_members)
    counts = rng.poisson(rate * T, size=n_members)
    total = int(counts.sum())
    # keep jump times clear of t = 0 so a jump index is always >= 1
    flat_times = np.clip(rng.uniform(0.0, T, size=total), 1e-9 * T, T)
    flat_sizes = _draw_jump_sizes(rng, jump_kind, jump_params, total)
    member_of = np.repeat(np.arange(n_members), counts)
    order = np.lexsort((flat_times, member_of))
    flat_times, flat_sizes, member_of = (
        flat_times[order],
        flat_sizes[order],
        member_of[order],
    )

    grid = insert_times(base, flat_times) if (align_jumps and total) else base

    times = grid.times
    values = np.zeros((n_members, times.size))
    qv = np.zeros((n_members, times.size))
    jump_idx_set = set()
    starts = np.concatenate([[0], np.cumsum(counts)])
    for i in range(n_members):
        ti = flat_times[starts[i] : starts[i + 1]]
        si = flat_sizes[starts[i] : starts[i + 1]]
        if ti.size == 0:
            continue
        csum = np.cumsum(si)
        c2 = np.cumsum(si**2)
        pos = np.searchsorted(ti, times + TIME_TOL, side="left")
        values[i] = np.where(pos > 0, csum[np.maximum(pos - 1, 0)], 0.0)
        qv[i] = np.where(pos > 0, c2[np.maximum(pos - 1, 0)], 0.0)
        if align_jumps:
            for tj in ti:
                jump_idx_set.add(grid.index_of(tj))

    jump_indices = np.array(sorted(jump_idx_set), dtype=np.int64)
    vals3 = values[:, :, None]
    left = vals3[:, jump_indices - 1, :].copy() if jump_indices.size else None
    path = SamplePath(grid=grid, values=vals3, jump_indices=jump_indices, left_values=left)

    jump_mean = float(_JUMP_MEANS[jump_kind](jump_params))
    comp = rate * jump_mean * times
    mvals = (values - comp[None, :])[:, :, None]
    # left limit of M at a jump: X just before the jump minus the (continuous)
    # compensator evaluated AT the jump time
    mleft = (
        path.left_values - comp[jump_indices][None, :, None]
        if jump_indices.size
        else None
    )
    martingale = MartingalePath(
        grid=grid,
        values=mvals,
        jump_indices=jump_indices,
        left_values=mleft,
        bracket=qv[:, :, None, None],
    )
    return CompoundPoissonResult(path=path, martingale=martingale, rate=rate, jump_mean=jump_mean)


def forward_lift_jump_path(path: SamplePath) -> RoughLift:
    """Forward (Ito-type) lift of a pure-jump path:

        XX_{s,t} = sum_{s < u <= t} dX_{s, u-} (x) Delta X_u,   Delta XX = 0.

    Requires the path to be constant between its declared jump indices (exact
    equality; the compound-Poisson simulator in aligned mode guarantees it).
    Per-step second levels are then identically zero and the whole prefix is
    carried by the Chen cross terms, which keeps the pure-jump bracket
    identity exact in floating point.
    """
    jumps = set(int(j) for j in path.jump_indices)
    dstep = path.increments()
    for k in range(path.grid.n_steps):
        if (k + 1) not in jumps and np.any(dstep[:, k] != 0.0):
            raise ValueError("path moves on a step with no declared jump")
    step_second = np.zeros(
        (path.n_members, path.grid.n_steps, path.dim, path.dim)
    )
    prefix = _accumulate_prefix(path.values, step_second)
    return RoughLift(path=path, second_prefix=prefix, name="jump-forward", step_second=step_second)


# ---------------------------------------------------------------------------
# smooth drivers
# ---------------------------------------------------------------------------


def _sine_cosine_window(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact XX_{s,t} for X_u = (sin u, cos u), shape (len(s), 2, 2)."""
    sin_s, cos_s, sin_t, cos_t = np.sin(s), np.cos(s), np.sin(t), np.cos(t)
    i_sin = cos_s - cos_t                       # int sin u du
    i_cos = sin_t - sin_s                       # int cos u du
    i_sin2 = 0.5 * (t - s) - 0.25 * (np.sin(2 * t) - np.sin(2 * s))
    i_cos2 = 0.5 * (t - s) + 0.25 * (np.sin(2 * t) - np.sin(2 * s))
    i_sincos = 0.5 * (sin_t**2 - sin_s**2)
    out = np.empty(s.shape + (2, 2))
    out[..., 0, 0] = i_sincos - sin_s * i_cos
    out[..., 0, 1] = -i_sin2 + sin_s * i_sin
    out[..., 1, 0] = i_cos2 - cos_s * i_cos
    out[..., 1, 1] = -i_sincos + cos_s * i_sin
    return out


def smooth_path_registry() -> dict:
    """Built-in smooth drivers: id -> (dim, path function of a time array)."""
    return {
        "linear": (1, lambda t: t[:, None]),
        "polynomial": (1, lambda t: (t**2)[:, None]),
        "sine_cosine_pair": (2, lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1)),
    }


def smooth_lift(path_id: str, T: float, n: int, grid: TimeGrid | None = None) -> RoughLift:
    """Canonical geometric lift of a registered smooth driver.

    One-dimensional entries use the exact identity XX_step = (dX)^2 / 2; the
    sine/cosine pair uses hand-derived closed-form window integrals (checked
    against quadrature in the tests).
    """
    reg = smooth_path_registry()
    if path_id not in reg:
        raise ValueError(f"unknown smooth driver {path_id!r}")
    dim, fn = reg[path_id]
    grid = grid if grid is not None else make_uniform_grid(T, n)
    values = fn(grid.times)[None, :, :]
    if dim == 1:
        dstep = np.diff(values, axis=1)
        step_second = 0.5 * outer_increment(dstep, dstep)
    else:
        step_second = _sine_cosine_window(grid.times[:-1], grid.times[1:])[None]
    path = SamplePath(grid=grid, values=values)
    prefix = _accumulate_prefix(values, step_second)
    return RoughLift(path=path, second_prefix=prefix, name=f"smooth-{path_id}", step_second=step_second)


def lift_from_steps(
    path: SamplePath, step_second: np.ndarray, jump_second: np.ndarray | None = None,
    name: str = "custom",
) -> RoughLift:
    """Build a lift from per-step second-level values (the custom-lift hook).

    step_second: (Nx, n, d, d) window values XX_{t_k, t_{k+1}}; jump_second
    optionally injects a nonzero jump Delta XX at each declared jump index.
    Chen's identity then holds by construction for all grid windows.
    """
    xx = np.asarray(step_second, dtype=float)
    if xx.ndim == 3:
        xx = xx[None]
    prefix = _accumulate_prefix(path.values, xx)
    return RoughLift(path=path, second_prefix=prefix, jump_second=jump_second, name=name, step_second=xx)


# ---------------------------------------------------------------------------
# mixed driver: Brownian + compound Poisson (one-dimensional)
# ---------------------------------------------------------------------------


@dataclass
class MixedResult:
    path: SamplePath
    martingale: MartingalePath
    lift: RoughLift
    brownian: MartingalePath
    poisson: CompoundPoissonResult


def simulate_mixed(
    T: float,
    n: int,
    seed: int,
    n_members: int = 1,
    rate: float = 2.0,
    jump_kind: str = "gauss",
    jump_params: tuple = (0.0, 0.5),
    vol: float = 1.0,
) -> MixedResult:
    """X = B + J with J compound Poisson, on the jump-merged grid.

    The forward lift of a step ending in a jump is the Ito lift of the
    diffusive part plus the cross term dB_step (x) Delta J; Delta XX = 0.
    Left values at jumps are B_t + J_{t-}, which is where a left limit differs
    from the previous grid point for a diffusing path.
    """
    cp = simulate_compound_poisson(
        T, rate, n, seed, n_members, jump_kind, jump_params, align_jumps=True
    )
    grid = cp.path.grid
    bm = simulate_brownian(T, grid.n_steps, seed, n_members, dim=1, vol=vol, grid=grid)
    values = bm.values + cp.path.values
    jump_indices = cp.path.jump_indices
    left = (
        bm.values[:, jump_indices, :] + cp.path.left_values
        if jump_indices.size
        else None
    )
    path = SamplePath(grid=grid, values=values, jump_indices=jump_indices, left_values=left)

    dt = grid.steps()
    db = bm.increments()
    dj = cp.path.increments()
    step_second = 0.5 * (outer_increment(db, db) - dt[None, :, None, None] * vol**2)
    step_second = step_second + outer_increment(db, dj)
    prefix = _accumulate_prefix(values, step_second)
    lift = RoughLift(path=path, second_prefix=prefix, name="mixed-forward", step_second=step_second)

    mvals = values - (cp.rate * cp.jump_mean * grid.times)[None, :, None]
    mleft = (
        left - (cp.rate * cp.jump_mean * grid.times[jump_indices])[None, :, None]
        if jump_indices.size
        else None
    )
    bracket = cp.martingale.bracket + (vol**2 * grid.times)[None, :, None, None]
    mart = MartingalePath(
        grid=grid, values=mvals, jump_indices=jump_indices, left_values=mleft, bracket=bracket
    )
    return MixedResult(path=path, martingale=mart, lift=lift, brownian=bm, poisson=cp)


# ---------------------------------------------------------------------------
# driver specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriverSpec:
    """Tagged description of a driver, buildable by `build_driver`.

    kind: "brownian" | "compound_poisson" | "smooth" | "mixed"
    params: kind-specific keyword arguments (see the simulators).
    """

    kind: str
    params: dict = field(default_factory=dict)


def build_driver(spec: DriverSpec, T: float, n: int, seed: int, n_members: int = 1):
    """Build (path-like object, lift or None) from a DriverSpec."""
    p = dict(spec.params)
    if spec.kind == "brownian":
        substeps = p.pop("substeps", 8)
        bm = simulate_brownian(T, n, seed, n_members, **p)
        return bm, ito_lift_brownian(bm, substeps=substeps, seed=seed)
    if spec.kind == "compound_poisson":
        cp = simulate_compound_poisson(T, p.pop("rate", 2.0), n, seed, n_members, **p)
        return cp, forward_lift_jump_path(cp.path)
    if spec.kind == "smooth":
        lift = smooth_lift(p.pop("path_id", "linear"), T, n)
        return lift.path, lift
    if spec.kind == "mixed":
        mixed = simulate_mixed(T, n, seed, n_members, **p)
        return mixed, mixed.lift
    raise ValueError(f"unknown driver kind {spec.kind!r}")

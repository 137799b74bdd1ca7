"""Left-point stochastic integrals on grids: Ito, rough-stochastic, Young.

All integrals are full-grid sums of the `sewing` germs (the sewn limit on a
finite grid): one germ evaluation on the step windows [t_k, t_{k+1}] plus one
running sum from zero.  Integrands are sampled at the left endpoint of every
step, which is what makes the Ito isometry an exact identity at grid level
and keeps jump structure canonical: over a step that ends in a jump of a
piecewise-constant driver, the left endpoint IS the pre-jump state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import map_dot, second_level_contract
from .grids import TimeGrid
from .paths import MartingalePath, RoughLift
from .sewing import _running_sum, ito_germ, step_path

__all__ = [
    "IntegralProcess",
    "ito_integrate",
    "rough_stoch_integrate",
    "young_integrate",
    "jump_structure_check",
]


@dataclass
class IntegralProcess:
    """A cumulative integral ensemble, zero at t_0."""

    grid: TimeGrid
    values: np.ndarray  # (N, n+1) or (N, n+1, m)
    jump_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]

    def jumps(self) -> np.ndarray:
        """Grid jumps Z_j - Z_{j-1} at the declared jump indices."""
        if not self.jump_indices.size:
            return np.zeros((self.values.shape[0], 0) + self.values.shape[2:])
        return (
            self.values[:, self.jump_indices]
            - self.values[:, self.jump_indices - 1]
        )


def _cumulative(grid, steps, jump_indices) -> IntegralProcess:
    """The integral process of per-step germ values (N, n, ...), zero at t_0."""
    return IntegralProcess(grid=grid, values=_running_sum(steps), jump_indices=jump_indices)


def ito_integrate(integrand: np.ndarray, mart: MartingalePath) -> IntegralProcess:
    """int Y dM with the left-point germ Y_s dM_{s,t} (scalar integrand, d = 1).

    The integrand must be adapted: entry [:, k] may depend on information up
    to t_k only.  E_s of each germ vanishes, so the full-grid sum is the sewn
    limit of the martingale part.
    """
    if mart.dim != 1:
        raise ValueError("ito_integrate handles one-dimensional martingales")
    return young_integrate(integrand, mart.values, mart.grid, mart.jump_indices)


def _controlled_steps(y: np.ndarray, yp: np.ndarray, dx: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Y . dX + Y' : XX per increment of the two levels, dx (N, J, d) and
    xx (N, J, d, d), with the integrand at their left points in a layout of
    `rough_stoch_integrate` (a single scalar channel collapses to scalar)."""
    d = dx.shape[-1]
    if d >= 2:
        if y.ndim != 4 or y.shape[-1] != d:
            raise ValueError(
                "multi-dimensional drivers need a map-valued integrand (N, n+1, m, d)"
            )
        return map_dot(y, dx) + second_level_contract(yp, xx)
    if y.ndim == 3 and y.shape[-1] == 1:
        y, yp = y[..., 0], yp[..., 0]
    dx, xx = dx[..., 0], xx[..., 0, 0]
    if y.ndim == 3:  # scalar driver, m integrand channels
        dx, xx = dx[..., None], xx[..., None]
    return y * dx + yp * xx


def rough_stoch_integrate(y: np.ndarray, yp: np.ndarray, lift: RoughLift) -> IntegralProcess:
    """int (Y, Y') dX against a rough lift, left-point germ Y dX + Y' XX.

    One-dimensional drivers take scalar channels: y (N, n+1) or (N, n+1, m)
    with yp of matching shape.  For dim >= 2 the integrand must be map-valued:
    y (N, n+1, m, d), yp (N, n+1, m, d, d) with the layout of `conventions`.
    """
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    dx = np.diff(lift.path.values, axis=1)
    steps = _controlled_steps(y[:, :-1], yp[:, :-1], dx, lift.step_second)
    return _cumulative(lift.grid, steps, lift.path.jump_indices)


def young_integrate(integrand: np.ndarray, integrator: np.ndarray, grid: TimeGrid,
                    jump_indices=None) -> IntegralProcess:
    """Left-point Stieltjes integral int Y dA for a finite-variation path A.

    integrator: (N, n+1), (N, n+1, 1) or a bracket (N, n+1, 1, 1); over a
    pure-jump A the sum reduces to sum_{u <= t} Y_{u-} Delta A_u exactly,
    since the left endpoint of the jump step carries the pre-jump state.
    """
    if jump_indices is None:
        jump_indices = np.array([], dtype=np.int64)
    values = step_path(ito_germ(integrand, integrator), grid)
    return IntegralProcess(grid=grid, values=values, jump_indices=jump_indices)


def jump_structure_check(
    y: np.ndarray, yp: np.ndarray, z: IntegralProcess, lift: RoughLift
) -> float:
    """Max residual of the canonical jump structure of a rough integral:

        Delta Z_t - (Y_{t-} Delta X_t + Y'_{t-} Delta XX_t)

    over all declared jump times and members.  Left limits are previous grid
    values (exact for drivers whose jump times are grid members and whose
    integrands are constant over the jump step).  Integrands take the layouts
    of `rough_stoch_integrate`.  Returns the max absolute residual; 0 up to
    float identity for the built-in pure-jump lifts.
    """
    jumps = lift.path.jump_indices
    if not jumps.size:
        return 0.0
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    pred = _controlled_steps(
        y[:, jumps - 1], yp[:, jumps - 1], lift.path.jump_sizes(), lift.jump_second
    )
    resid = z.jumps() - pred
    return float(np.max(np.abs(resid))) if resid.size else 0.0

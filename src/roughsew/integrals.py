"""Left-point stochastic integrals on grids: Ito, rough-stochastic, Young.

All integrals are full-grid sums of the `sewing` germs (the sewn limit on a
finite grid): one germ evaluation on the step windows [t_k, t_{k+1}] plus one
running sum from zero.  Each returns its path as a plain (N, n+1, ...) array,
zero at t_0; the terminal value is [:, -1].  Integrands are sampled at the
left endpoint of every step, which is what makes the Ito isometry an exact
identity at grid level and keeps jump structure canonical: over a step that
ends in a jump of a piecewise-constant driver, the left endpoint IS the
pre-jump state.  Rough integrals take one-dimensional drivers, with scalar
or m-channel integrands.
"""
from __future__ import annotations

import numpy as np

from .grids import TimeGrid
from .paths import MartingalePath, RoughLift
from .sewing import _running_sum, ito_germ, step_path

__all__ = [
    "ito_integrate",
    "rough_stoch_integrate",
    "young_integrate",
    "jump_structure_check",
]


def ito_integrate(integrand: np.ndarray, mart: MartingalePath) -> np.ndarray:
    """int Y dM with the left-point germ Y_s dM_{s,t} (scalar integrand, d = 1).

    The integrand must be adapted: entry [:, k] may depend on information up
    to t_k only.  E_s of each germ vanishes, so the full-grid sum is the sewn
    limit of the martingale part.
    """
    if mart.dim != 1:
        raise ValueError("ito_integrate handles one-dimensional martingales")
    return young_integrate(integrand, mart.values, mart.grid)


def _controlled_steps(y: np.ndarray, yp: np.ndarray, dx: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Y dX + Y' XX per increment of the two levels, dx (N, J, 1) and
    xx (N, J, 1, 1), with the integrand at their left points in a layout of
    `rough_stoch_integrate` (a single scalar channel collapses to scalar)."""
    if dx.shape[-1] != 1:
        raise ValueError(f"rough integrals handle one-dimensional drivers, got d={dx.shape[-1]}")
    if y.ndim == 3 and y.shape[-1] == 1:
        y, yp = y[..., 0], yp[..., 0]
    dx, xx = dx[..., 0], xx[..., 0, 0]
    if y.ndim == 3:  # m integrand channels
        dx, xx = dx[..., None], xx[..., None]
    return y * dx + yp * xx


def rough_stoch_integrate(y: np.ndarray, yp: np.ndarray, lift: RoughLift) -> np.ndarray:
    """int (Y, Y') dX against a one-dimensional rough lift, left-point germ
    Y dX + Y' XX: y (N, n+1) or (N, n+1, m) with yp of matching shape.
    Returns the (N, n+1) or (N, n+1, m) path."""
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    dx = np.diff(lift.path.values, axis=1)
    return _running_sum(_controlled_steps(y[:, :-1], yp[:, :-1], dx, lift.step_second))


def young_integrate(integrand: np.ndarray, integrator: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Left-point Stieltjes integral int Y dA for a finite-variation path A.

    integrator: (N, n+1), (N, n+1, 1) or a bracket (N, n+1, 1, 1); over a
    pure-jump A the sum reduces to sum_{u <= t} Y_{u-} Delta A_u exactly,
    since the left endpoint of the jump step carries the pre-jump state.
    """
    return step_path(ito_germ(integrand, integrator), grid)


def jump_structure_check(y: np.ndarray, yp: np.ndarray, z: np.ndarray, lift: RoughLift) -> float:
    """Max residual of the canonical jump structure of a rough integral z:

        Delta Z_t - (Y_{t-} Delta X_t + Y'_{t-} Delta XX_t)

    over the lift's declared jump times and all members.  Left limits are
    previous grid values (exact for drivers whose jump times are grid members
    and whose integrands are constant over the jump step).  Integrands take
    the layouts of `rough_stoch_integrate`.  Returns the max absolute
    residual; 0 up to float identity for the built-in pure-jump lifts.
    """
    jumps = lift.path.jump_indices
    if not jumps.size:
        return 0.0
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    pred = _controlled_steps(
        y[:, jumps - 1], yp[:, jumps - 1], lift.path.jump_sizes(), lift.jump_second
    )
    resid = z[:, jumps] - z[:, jumps - 1] - pred
    return float(np.max(np.abs(resid))) if resid.size else 0.0

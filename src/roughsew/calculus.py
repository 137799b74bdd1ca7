"""Controlled paths, composition, brackets, and the Ito formula on grids.

A controlled path (Y, Y') carries its Gubinelli derivative against a fixed
lift, values (N, n+1, m) and derivative (N, n+1, m, d) and no other form;
remainders are R_{s,t} = dY_{s,t} - Y'_s dX_{s,t}.  Brackets are sewn
from the germ  dY (x) dZ - 2 (Y' (x) Z') Sym(XX),  and the Ito formula's jump
compensation runs over the lift's declared jump times with left limits at the
previous grid point.  Moment hygiene: bracket statistics want q >= 4; the ops
emit a heavy-tail warning when the empirical fourth moment is dominated by a
single member.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conventions import sym
from .paths import RoughLift
from .sewing import _running_sum, _scalar

__all__ = [
    "ControlledPath",
    "SmoothFn",
    "smooth_fn",
    "controlled_from_lift",
    "constant_controlled",
    "compose",
    "bracket",
    "rough_bracket",
    "mixed_bracket_check",
    "ito_formula_residual",
]


@dataclass
class ControlledPath:
    """(Y, Y') controlled by the lift's first level.

    values: (N, n+1, m); derivative: (N, n+1, m, d) with the controlling
    direction last (see `conventions`).
    """

    lift: RoughLift
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.derivative = np.asarray(self.derivative, dtype=float)
        if self.values.ndim != 3 or self.derivative.ndim != 4:
            raise ValueError("values must have shape (N, n+1, m) and derivative (N, n+1, m, d)")

    @property
    def n_channels(self) -> int:
        return self.values.shape[2]

    def scalar(self) -> np.ndarray:
        """The (N, n+1) view of a single-channel controlled path."""
        if self.n_channels != 1:
            raise ValueError("not a single-channel controlled path")
        return self.values[..., 0]


def controlled_from_lift(lift: RoughLift) -> ControlledPath:
    """The canonical controlled path (X, Id) of the lift's own first level."""
    d = lift.dim
    ident = np.broadcast_to(np.eye(d), (1, lift.grid.n_steps + 1, d, d))
    return ControlledPath(lift=lift, values=lift.path.values, derivative=ident)


def constant_controlled(lift: RoughLift, values: np.ndarray) -> ControlledPath:
    """(Y, 0): the adapted, derivative-free single-channel controlled path of
    the (N, n+1) `values`."""
    vals = np.asarray(values, dtype=float)[..., None]
    return ControlledPath(lift=lift, values=vals, derivative=np.zeros(vals.shape + (lift.dim,)))


# ---------------------------------------------------------------------------
# smooth functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothFn:
    """A scalar C^3 function applied elementwise, with exact derivatives."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class _Constant:
    """y -> an array of `value` shaped like y: a registry entry's constant
    derivative, kept as its value so the solver can multiply by the scalar
    instead of building the array per event."""

    value: float

    def __call__(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.value)


@dataclass(frozen=True, eq=False)
class _Affine:
    """y -> a * y + c: the registry's linear f, kept as its slope and offset
    so the solver can write it into a reused row with the same two
    operations instead of building two arrays per event."""

    a: float
    c: float

    def __call__(self, y):
        return self.a * y + self.c


#: the clipped square freezes outside (-_CLIP, _CLIP)
_CLIP = 16.0


# the parameters each `smooth_fn` entry reads
_SMOOTH_PARAMS = {
    "linear": ("a", "c"),
    "sin_bundle": ("a", "b", "c"),
    "tanh_affine": ("a", "b", "c"),
    "clipped_square": (),
}


def smooth_fn(name: str, **params) -> SmoothFn:
    """Build a registry function.  Available entries:

    - linear(a=1.0, c=0.0):            a*y + c  (unbounded)
    - sin_bundle(a=1.0, b=1.0, c=0.0): a*sin(b*y + c)
    - tanh_affine(a=1.0, b=1.0, c=0.0): a*tanh(b*y) + c
    - clipped_square():                clip(y, -16, 16)^2

    Each carries exact df/d2f evaluators; the clipped square is exact inside
    (-16, 16) and freezes outside, which keeps its C^3 data finite.  A
    parameter the entry does not read is refused.
    """
    known = _SMOOTH_PARAMS.get(name, params)
    for key in params:
        if key not in known:
            reads = ", ".join(known) or "nothing"
            raise ValueError(f"smooth_fn {name!r} does not read {key} (it reads: {reads})")
    if name == "linear":
        a, c = params.get("a", 1.0), params.get("c", 0.0)
        return SmoothFn(
            _Affine(a, c), _Constant(a), lambda y: np.zeros_like(np.asarray(y, dtype=float))
        )
    if name == "sin_bundle":
        a, b, c = params.get("a", 1.0), params.get("b", 1.0), params.get("c", 0.0)
        return SmoothFn(
            lambda y: a * np.sin(b * y + c),
            lambda y: a * b * np.cos(b * y + c),
            lambda y: -a * b * b * np.sin(b * y + c),
        )
    if name == "tanh_affine":
        a, b, c = params.get("a", 1.0), params.get("b", 1.0), params.get("c", 0.0)

        def _f(y):
            return a * np.tanh(b * y) + c

        def _df(y):
            return a * b / np.cosh(b * y) ** 2

        def _d2f(y):
            th = np.tanh(b * y)
            return -2.0 * a * b * b * th * (1.0 - th * th)

        return SmoothFn(_f, _df, _d2f)
    if name == "clipped_square":
        # Horner's rule at the clipped y, bit for bit: its + 0.0 maps -0.0 to
        # 0.0, and its 0.0 y carries a NaN into the constant d2f

        def _df(y):
            y = np.asarray(y, dtype=float)
            return (2.0 * np.clip(y, -_CLIP, _CLIP) + 0.0) * (np.abs(y) < _CLIP)

        def _d2f(y):
            y = np.asarray(y, dtype=float)
            return (0.0 * np.clip(y, -_CLIP, _CLIP) + 2.0) * (np.abs(y) < _CLIP)

        return SmoothFn(lambda y: np.square(np.clip(y, -_CLIP, _CLIP)), _df, _d2f)
    raise ValueError(f"unknown smooth function {name!r}")


def compose(fn: SmoothFn, cp: ControlledPath) -> ControlledPath:
    """(f(Y), Df(Y) Y'): composition along the chain rule, elementwise in channels."""
    vals = fn.f(cp.values)
    deriv = fn.df(cp.values)[..., None] * cp.derivative
    return ControlledPath(lift=cp.lift, values=vals, derivative=deriv)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def _heavy_tail_warning(steps: np.ndarray, what: str):
    """Warn when a single member carries most of the empirical 4th moment."""
    n = steps.shape[0]
    if n < 8:
        return
    flat = steps.reshape(n, -1)
    fourth = np.sum(flat**2, axis=1) ** 2
    total = fourth.sum()
    if total > 0 and fourth.max() / total > 0.5:
        warnings.warn(
            f"{what}: empirical fourth moment dominated by a single member; "
            "bracket statistics are unreliable at this ensemble size"
        )


def bracket(a: ControlledPath, b: ControlledPath) -> np.ndarray:
    """[a, b]: cumulative sums of the germ dY (x) dZ - 2 (Y' (x) Z') Sym(XX),
    XX the second level of a's lift, as an (N, n+1, ma, mb) path.
    """
    lift = a.lift
    dy = np.diff(a.values, axis=1)
    dz = np.diff(b.values, axis=1)
    sxx = sym(lift.step_second)
    first = np.einsum("nta,ntb->ntab", dy, dz)
    second = 2.0 * np.einsum("ntaj,ntbk,ntjk->ntab", a.derivative[:, :-1], b.derivative[:, :-1], sxx)
    steps = first - second
    _heavy_tail_warning(steps, "bracket")
    return _running_sum(steps)


def rough_bracket(lift: RoughLift) -> np.ndarray:
    """[X] of the lift itself, an (N, n+1, d, d) path: cumulative sums of the
    germ dX (x) dX - 2 Sym(XX_step).

    Geometric lifts give identically zero; the forward lift of a pure-jump
    path gives the exact jump sum of (Delta X)^(x2).
    """
    dx = np.diff(lift.path.values, axis=1)
    steps = np.einsum("ntj,ntk->ntjk", dx, dx) - 2.0 * sym(lift.step_second)
    return _running_sum(steps)


def mixed_bracket_check(
    m_values: np.ndarray,
    m_jump_indices: np.ndarray,
    m_jump_sizes: np.ndarray,
    z: ControlledPath,
):
    """Compare the grid bracket [M, Z]_T against the jump-sum formula
    sum_{s <= T} Delta M_s Delta Z_s (scalar channels).

    Returns (grid_value, jump_sum, residual) as (N,) arrays; the caller turns
    the residual into an L^{q/2} refinement study.  A continuous M has no
    declared jumps, so its jump sum is zero and the residual is the full grid
    bracket.
    """
    mv = _scalar(m_values, "m_values")
    zv = z.scalar()
    dm = np.diff(mv, axis=1)
    dz = np.diff(zv, axis=1)
    # M carries no Gubinelli derivative against Z's lift, so the bracket germ
    # collapses to the plain product of increments.
    grid_value = np.sum(dm * dz, axis=1)

    jump_sum = np.zeros(max(mv.shape[0], zv.shape[0]))
    if np.asarray(m_jump_indices).size:
        jidx = np.asarray(m_jump_indices, dtype=np.int64)
        dmj = _scalar(m_jump_sizes, "m_jump_sizes", axis="J")
        dzj = zv[:, jidx] - zv[:, jidx - 1]
        jump_sum = np.sum(dmj * dzj, axis=1)
    residual = grid_value - jump_sum
    _heavy_tail_warning(residual[:, None], "mixed bracket")
    return grid_value, jump_sum, residual


# ---------------------------------------------------------------------------
# the Ito formula
# ---------------------------------------------------------------------------


def ito_formula_residual(
    fn: SmoothFn,
    cp: ControlledPath,
    bracket_path: np.ndarray | None = None,
) -> np.ndarray:
    """Terminal residual of the Ito formula for a scalar controlled path:

        f(Y_T) - f(Y_0) - int Df(Y) dY - 1/2 int D2f(Y) d[Y]
                - sum_jumps [ f(Y) - f(Y_-) - Df(Y_-) dY - 1/2 D2f(Y_-) dY^2 ]

    where the first integral carries the controlled germ of (Df(Y), D2f(Y) Y')
    against (Y, Y') and [Y] is the grid bracket unless an analytic bracket
    path, shape (Nb, n+1), is supplied (e.g. t for a Brownian integrator,
    turning the check into the classical formula).  Returns (N,) residuals.

    A supplied bracket must carry the jumps, as the grid bracket does.  On a
    jump step the compensator takes 1/2 D2f(Y_-) dY^2 back out, so the step
    adds  -D2f(Y_-) (Y' (x) Y') : XX - 1/2 D2f(Y_-) (d[Y] - dY^2)  to the
    residual.  That vanishes for the grid bracket's step
    dY^2 - 2 (Y' (x) Y') : Sym(XX), so on jump steps `bracket_path` must
    include the squared jump dY^2; a continuous bracket alone leaves the jump
    terms in the residual at every grid size.

    The accumulation is fused per step with shared subexpressions, so on a
    jump step of a pure-jump forward lift the integral terms and the jump
    compensator cancel bitwise and the residual is exactly zero.
    """
    lift = cp.lift
    y = cp.scalar()
    yp = cp.derivative[:, :-1, 0, :]  # (N, n, d)
    dy = np.diff(y, axis=1)
    dfv = np.diff(fn.f(y), axis=1)
    dfy = fn.df(y[:, :-1])
    d2fy = fn.d2f(y[:, :-1])
    xx = lift.step_second

    a = dfy * dy
    sec = np.einsum("ntj,ntk,ntjk->nt", d2fy[..., None] * yp, yp, xx)
    germ = a + sec

    dy2 = dy * dy
    if bracket_path is None:
        dbr = dy2 - 2.0 * np.einsum("ntj,ntk,ntjk->nt", yp, yp, sym(xx))
    else:
        dbr = np.diff(_scalar(bracket_path, "bracket_path"), axis=1)
    half = 0.5 * (d2fy * dbr)

    resid_steps = (dfv - germ) - half
    jumps = lift.path.jump_indices
    if jumps.size:
        k = jumps - 1  # step k spans [t_k, t_{k+1}]
        comp = (dfv[:, k] - a[:, k]) - 0.5 * (d2fy[:, k] * dy2[:, k])
        resid_steps[:, k] = resid_steps[:, k] - comp
    return np.sum(resid_steps, axis=1)

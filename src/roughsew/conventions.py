"""Shared array-layout conventions and the contraction helpers that encode them.

Every module in the package uses these layouts; they are defined once here so
an index convention can never drift between the integrators.

Paths and ensembles
-------------------
* A time grid has n + 1 points ``t_0 = 0 < ... < t_n = T``.
* An ensemble of N paths in R^d is an array of shape ``(N, n + 1, d)``.
  Deterministic data may use N = 1 and broadcast.
* Scalar-valued processes (integrals, controlled scalars) drop the trailing
  axis: shape ``(N, n + 1)``.

Second level of a rough path
----------------------------
``XX[j, k]`` approximates ``int (X^j_u - X^j_s) dX^k_u``: the FIRST index is
the direction of the earlier increment (the Gubinelli direction), the SECOND
is the direction of integration.  Chen's identity in this convention reads

    XX_{s,t} = XX_{s,u} + XX_{u,t} + outer(dX_{s,u}, dX_{u,t}).

Lifts store the prefix ``XX[:, k] = XX_{0, t_k}`` of shape ``(N, n+1, d, d)``
and reconstruct any window in O(1) via Chen.

Controlled paths and integrand maps
-----------------------------------
A controlled path with values in R^m carries a Gubinelli derivative of shape
``(..., m, d)`` whose LAST axis is the controlling direction:

    dY_{s,t} = Y'_s . dX_{s,t} + R_{s,t}        (contract the last axis).

An integrand for the rough stochastic integral is a linear map R^d -> R^m,
stored as ``(..., m, d)`` with derivative ``(..., m, d, d)``; the germ is

    Xi_{s,t} = Y_s . dX_{s,t} + Y'_s : XX_{s,t},

where the double contraction pairs the derivative's LAST axis with the FIRST
(Gubinelli) axis of XX and the map axis with the second:

    (Y' : XX)^a = Y'^a_{i j} XX^{j i}.

In one dimension everything collapses to ``Y dX + Y' XX`` and the scalar
fast paths below apply.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "outer_increment",
    "apply_derivative",
    "map_dot",
    "second_level_contract",
    "sym",
]


def outer_increment(a, b):
    """outer(a, b) on the trailing axis, batched: (..., d), (..., d) -> (..., d, d)."""
    return np.einsum("...j,...k->...jk", a, b)


def apply_derivative(yp, dx):
    """Contract a Gubinelli derivative with an increment on the last axis.

    yp: (..., m, d) or (..., d) for scalar values; dx: (..., d).
    Returns (..., m) resp. (...,).
    """
    return np.einsum("...j,...j->...", yp, dx) if yp.ndim == dx.ndim else np.einsum(
        "...ij,...j->...i", yp, dx
    )


def map_dot(y, dx):
    """Apply an integrand map to an increment: (..., m, d) . (..., d) -> (..., m)."""
    return np.einsum("...ij,...j->...i", y, dx)


def second_level_contract(yp, xx):
    """Germ second-order term (Y' : XX)^a = Y'^a_{ij} XX^{ji}.

    yp: (..., m, d, d); xx: (..., d, d).  Returns (..., m).
    """
    return np.einsum("...aij,...ji->...a", yp, xx)


def sym(m):
    """Symmetric part of the trailing two axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


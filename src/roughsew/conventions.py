"""Shared array-layout conventions and the helpers that encode them.

Every module in the package uses these layouts; they are defined once here so
an index convention can never drift between the integrators.

Paths and ensembles
-------------------
* A time grid has n + 1 points ``t_0 = 0 < ... < t_n = T``.
* An ensemble of N paths in R^d is an array of shape ``(N, n + 1, d)``.
  Deterministic data may use N = 1 and broadcast.
* Scalar-valued processes (integrals, the values ``constant_controlled``
  takes) drop the trailing axis: shape ``(N, n + 1)``.  A controlled path
  keeps its channel axis (see below).

Second level of a rough path
----------------------------
``XX[j, k]`` approximates ``int (X^j_u - X^j_s) dX^k_u``: the FIRST index is
the direction of the earlier increment (the Gubinelli direction), the SECOND
is the direction of integration.  Chen's identity in this convention reads

    XX_{s,t} = XX_{s,u} + XX_{u,t} + outer(dX_{s,u}, dX_{u,t}).

Lifts store the per-step values ``XX_{t_k, t_{k+1}}`` of shape ``(N, n, d, d)``,
derive the prefix ``XX[:, k] = XX_{0, t_k}`` of shape ``(N, n+1, d, d)`` from
them on first use, and reconstruct any window in O(1) via Chen.

Controlled paths
----------------
A controlled path with values ``(N, n + 1, m)`` in R^m carries a Gubinelli
derivative of shape ``(N, n + 1, m, d)`` whose LAST axis is the controlling
direction:

    dY_{s,t} = Y'_s . dX_{s,t} + R_{s,t}        (contract the last axis).

In one dimension everything collapses to ``Y dX + Y' XX``, the germ of the
rough stochastic integral.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "outer_increment",
    "sym",
]


def outer_increment(a, b):
    """outer(a, b) on the trailing axis, batched: (..., d), (..., d) -> (..., d, d)."""
    return np.einsum("...j,...k->...jk", a, b)


def sym(m):
    """Symmetric part of the trailing two axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


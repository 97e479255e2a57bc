"""Scalar helpers of the spot-tree recursion.

The volatility recursion, the saturating exponential and the payoff codes,
one value at a time.  ``model`` (path prices) and ``Payoff.value`` use them
directly; the batched engine (``_engine``) and the history lattice
(``measures.Lattice``) apply the same formulas elementwise, in the same
operation order.

Volatility kinds: 0 constant (params[0] = sigma), 1 ARCH(1)
(omega0, alpha1, floor), 2 GARCH(1,1) (omega0, alpha1, beta1, floor).
Payoff kinds: 0 constant (pa), 1 call (strike pa), 2 put, 3 Asian call,
4 Asian put, 5 piecewise-linear on the terminal price (knots pxs/pys,
slope pa beyond the last knot).
"""

from __future__ import annotations

import math
from math import sqrt

_INF = float("inf")


def exp(x: float) -> float:
    """exp with C semantics: saturate to inf instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def sigma_initial(kind: int, params) -> float:
    if kind == 0:
        return params[0]
    s = sqrt(params[0])
    floor = params[2] if kind == 1 else params[3]
    return floor if s < floor else s


def sigma_next(kind: int, params, sigma_prev: float, eps_prev: float) -> float:
    if kind == 0:
        return params[0]
    s2 = params[0] + params[1] * (sigma_prev * eps_prev) * (sigma_prev * eps_prev)
    if kind == 2:
        s2 = s2 + params[2] * sigma_prev * sigma_prev
    s = sqrt(s2)
    floor = params[2] if kind == 1 else params[3]
    return floor if s < floor else s


def _pwl(x: float, xs, ys, right_slope: float) -> float:
    k = len(xs)
    if x <= xs[0]:
        return ys[0]
    if x >= xs[k - 1]:
        return ys[k - 1] + right_slope * (x - xs[k - 1])
    i = 0
    while i + 1 < k and xs[i + 1] <= x:
        i += 1
    return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])


def payoff_value(pkind: int, pa: float, pxs, pys, s_n: float, path_sum: float,
                 n_plus_1: float) -> float:
    if pkind == 0:
        return pa
    if pkind == 1:
        d = s_n - pa
        return d if d > 0.0 else 0.0
    if pkind == 2:
        d = pa - s_n
        return d if d > 0.0 else 0.0
    if pkind == 3:
        d = path_sum / n_plus_1 - pa
        return d if d > 0.0 else 0.0
    if pkind == 4:
        d = pa - path_sum / n_plus_1
        return d if d > 0.0 else 0.0
    return _pwl(s_n, pxs, pys, pa)

"""Exposure estimation from an observed price sample via order statistics.

Given observations S_0, ..., S_N, sort the whole pool (S_0 included) into
order statistics S_(0) <= ... <= S_(N) and pick a monotone statistic chain
1 >= g_1 >= g_2 >= ... >= g_N > 0 built from the ratios S_(i)/S_(N).
The exposures follow from requiring the all-down price floor to track the
chain:

    a_1 = 1 - tau0 * (S_(0)/S_0) * g_1,      a_i = 1 - g_i / g_{i-1}

so that s0 * prod_{s<=i}(1 - a_s) = tau0 * S_(0) * g_i for every i, in
particular s0 * prod(1 - a_i) = tau0 * S_(0) * g_N.  Statistic kinds:

    constant_one   g_i = 1; with tau0 = 1 this minimizes the super-hedge
                   prices among valid chains on the same sample
    capped_ratio   g_i = g(S_(N-i)/S_(N)) with g(x) = (S_0/S_(0)) * x capped
                   at 1; makes prod(1 - a_i) = S_(0)/S_(N) exactly
    identity_tail  g_{N-i} = S_(i)/S_(N) for i <= k, 1 above the tail
    custom         an explicit table, validated, never repaired

Prices of the four standard claims under the estimate evaluate the closed
forms at the estimated exposures; the direct formulas in terms of the
statistic are computed independently and must agree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .model import _number
from .pricing import (Payoff, PriceInterval, closed_form_price,
                      non_arbitrage_interval)

_IDENTITY_RTOL = 1e-10
_AGREEMENT_RTOL = 1e-12

_STAT_KINDS = ("constant_one", "capped_ratio", "identity_tail", "custom")


@dataclass(frozen=True)
class PriceSample:
    s0: float
    obs: tuple[float, ...]

    def __post_init__(self):
        if len(self.obs) < 1:
            raise ValidationError("sample needs at least one observation")
        for p in (self.s0, *self.obs):
            if not (math.isfinite(p) and p > 0):
                raise ValidationError(f"nonpositive or non-finite price {p!r}")

    @property
    def n(self) -> int:
        return len(self.obs)

    @property
    def pool(self) -> tuple[float, ...]:
        return (self.s0, *self.obs)


@dataclass(frozen=True)
class StatisticSpec:
    kind: str
    tau0: float = 1.0
    tail_k: int | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _STAT_KINDS:
            raise ValidationError(f"unknown statistic kind {self.kind!r}")
        if not 0.0 < self.tau0 <= 1.0:
            raise ValidationError("tau0 must lie in (0, 1]")
        if self.kind == "identity_tail" and self.tail_k is None:
            raise ValidationError("identity_tail needs tail_k")
        if self.kind == "custom" and self.table is None:
            raise ValidationError("custom statistic needs a table")


@dataclass(frozen=True)
class EstimatedParams:
    a: tuple[float, ...]
    statistic: StatisticSpec
    order_stats: tuple[float, ...]
    g_values: tuple[float, ...]
    s0: float


def order_statistics(sample: PriceSample) -> tuple[float, ...]:
    """Sorted pool S_(0) <= ... <= S_(N), stable, duplicates preserved."""
    return tuple(sorted(sample.pool))


def statistic_values(spec: StatisticSpec, order_stats: Sequence[float],
                     s0: float | None = None) -> tuple[float, ...]:
    """Evaluate the chain g_1..g_N and validate its monotonicity."""
    n = len(order_stats) - 1
    if n < 1:
        raise ValidationError("order statistics too short")
    s_top = order_stats[n]
    if spec.kind == "constant_one":
        g = [1.0] * n
    elif spec.kind == "capped_ratio":
        if s0 is None:
            raise ValidationError("capped_ratio needs the sample s0")
        slope = s0 / order_stats[0]
        # the cap branch (ratio above S_(0)/s0) is exactly the clamp at 1;
        # min() also absorbs the half-ulp where slope*x rounds past 1
        g = [min(slope * (order_stats[n - i] / s_top), 1.0)
             for i in range(1, n + 1)]
    elif spec.kind == "identity_tail":
        k = spec.tail_k
        if not 0 <= k <= n - 1:
            raise ValidationError(f"tail_k {k} out of 0..{n - 1}")
        g = [1.0] * n
        for i in range(0, k + 1):
            g[n - i - 1] = order_stats[i] / s_top  # g_{N-i}
    else:
        g = list(spec.table)
        if len(g) != n:
            raise ValidationError(
                f"custom table length {len(g)} does not match N={n}")
    if g[0] > 1.0:
        raise ValidationError("g_1 exceeds 1")
    for i in range(1, n):
        if g[i] > g[i - 1]:
            raise ValidationError(
                f"statistic chain not monotone at position {i + 1}")
    if not g[-1] > 0.0:
        raise ValidationError("g_N must be positive")
    return tuple(g)


def estimate_a(sample: PriceSample, spec: StatisticSpec) -> EstimatedParams:
    """Exposure estimates from the statistic chain."""
    stats = order_statistics(sample)
    g = statistic_values(spec, stats, sample.s0)
    head = spec.tau0 * (stats[0] / sample.s0) * g[0]
    if head > 1.0:
        raise ValidationError(
            f"tau0 * (S_(0)/s0) * g_1 = {head} exceeds 1; a_1 would be negative")
    a = [1.0 - head]
    for i in range(1, sample.n):
        a.append(1.0 - g[i] / g[i - 1])
    for v in a:
        if not 0.0 <= v < 1.0:
            raise ValidationError(f"estimated exposure {v} out of [0,1)")
    prod = 1.0
    for v in a:
        prod *= (1.0 - v)
    target = spec.tau0 * stats[0] * g[-1]
    if abs(sample.s0 * prod - target) > _IDENTITY_RTOL * max(1.0, abs(target)):
        raise ValidationError("estimate violates its defining identity")
    return EstimatedParams(tuple(a), spec, stats, g, sample.s0)


def _direct_price(params: EstimatedParams, kind: str, strike: float) -> float:
    """Price formulas written directly in the statistic, not the exposures."""
    s0 = params.s0
    tau0 = params.statistic.tau0
    floor = tau0 * params.order_stats[0] * params.g_values[-1]
    if kind == "call":
        if floor >= strike:
            return max(s0 - strike, 0.0)
        return s0 * (1.0 - floor / s0)
    if kind == "put":
        return max(strike - floor, 0.0)
    g_sum = 0.0
    for g in params.g_values:
        g_sum += g
    mean = (s0 + tau0 * params.order_stats[0] * g_sum) / float(len(params.a) + 1)
    if kind == "asian_put":
        return max(strike - mean, 0.0)
    if mean >= strike:
        return max(s0 - strike, 0.0)
    return s0 - mean


def estimated_price(sample: PriceSample, spec: StatisticSpec, kind: str,
                    strike: float) -> tuple[float, PriceInterval]:
    """Super-hedge price and non-arbitrage interval under the estimate.

    The closed form at the estimated exposures and the statistic-direct
    formula are computed independently and cross-checked.
    """
    if kind not in ("call", "put", "asian_call", "asian_put"):
        raise ValidationError(f"unsupported payoff kind {kind!r}")
    params = estimate_a(sample, spec)
    payoff = Payoff(kind, strike=float(strike))
    value = closed_form_price(payoff, sample.s0, params.a)
    direct = _direct_price(params, kind, strike)
    scale = max(1.0, sample.s0, strike)
    if abs(value - direct) > _AGREEMENT_RTOL * scale:
        raise ValidationError(
            f"closed-form composition {value!r} and direct formula {direct!r} "
            "disagree; estimation is inconsistent")
    return value, non_arbitrage_interval(sample.s0, params.a, payoff)


# -- file formats ------------------------------------------------------------

def load_price_csv(path: str) -> PriceSample:
    """Read `t,price` rows, t = 0..N in order; the t=0 row defines s0."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8 ({exc})") from exc
    if not rows or [c.strip() for c in rows[0]] != ["t", "price"]:
        raise ValidationError(f"{path}: expected header 't,price'")
    prices = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ValidationError(f"{path}: row {i + 2} is not 't,price'")
        try:
            t = int(row[0])
        except ValueError as exc:
            raise ValidationError(f"{path}: row {i + 2}: {exc}") from exc
        price = _number({"price": row[1]}, "price", f"in {path} row {i + 2}")
        if t != i:
            raise ValidationError(
                f"{path}: row {i + 2} has t={t}, expected {i}")
        prices.append(price)
    if len(prices) < 2:
        raise ValidationError(f"{path}: need rows for t=0 and at least t=1")
    return PriceSample(prices[0], tuple(prices[1:]))


def estimated_model_dict(params: EstimatedParams) -> dict:
    """Estimated exposures in the model-file schema.

    Volatility is a constant placeholder and the shock list is empty, so
    the file is marked pricing-only: closed-form and grid pricing work,
    atom-based enumeration does not.
    """
    return {
        "s0": params.s0,
        "steps": [{"a": a, "vol": {"kind": "constant", "sigma": 1.0},
                   "shocks": []} for a in params.a],
        "pricing_only": True,
    }


def estimation_report_dict(sample: PriceSample,
                           params: EstimatedParams) -> dict:
    return {
        "s0": sample.s0,
        "observations": list(sample.obs),
        "order_stats": list(params.order_stats),
        "statistic": {"kind": params.statistic.kind,
                      "tau0": params.statistic.tau0,
                      "tail_k": params.statistic.tail_k},
        "g": list(params.g_values),
        "a": list(params.a),
        "floor_identity": params.statistic.tau0 * params.order_stats[0]
        * params.g_values[-1],
    }

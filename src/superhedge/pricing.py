"""Super-hedge fair prices, closed forms and non-arbitrage intervals.

The fair price of a super-hedge is the supremum of the claim's expectation
over the martingale-measure family, which reduces to a supremum over spot
measures.  On a finite shock space the supremum over model atoms is exact
(``discrete_exhaustive``); the family's analytic supremum treats the shock
values as free and is approached by ``grid`` searches (coordinate ascent
on the grid above ``SELECTION_CAP`` combinations) and attained by the
closed forms:

    call(K):        (s0 - K)^+            if s0 * prod(1 - a_i) >= K
                    s0 * (1 - prod(1-a))  otherwise
    put(K):         (K - s0 * prod(1 - a_i))^+
    asian put(K):   (K - mean_min)^+
    asian call(K):  (s0 - K)^+ if mean_min >= K, else (s0 - K) + (K - mean_min)

with ``mean_min = s0 * sum_{i=0..N} prod_{s<=i}(1 - a_s) / (N + 1)``, the
arithmetic path mean of the all-down limit.  Grid-mode results carry a
crude one-sided gap bound ``s0 * N * (exp(-sigma_lo*hi) + exp(sigma_lo*lo))``
so search values are never silently conflated with the analytic limits.

Every scan, exhaustive or over the grid, sup or inf, skips the
combinations that a node-wise backward-induction bound rules out and
values every other one as the full scan does (``_engine.scan`` /
``scan_min``; the bound, its rounding allowance and the inputs where the
full scan runs instead are stated there), so the exhaustive results equal
the full scan, and ``oracle.brute_sup_selections``, bit for bit, and so do
the grid ones.  ``SupResult.trees`` and ``InfResult.trees`` count the spot
trees the engine valued, and ``SupResult.combinations`` the selections or
grid combinations checked against ``SELECTION_CAP``; a grid with more
than ``SELECTION_CAP`` pairs per step is refused before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _engine
from .errors import CapExceededError, ValidationError
from .measures import (SELECTION_CAP, AtomPairSelection, _atom_candidates,
                       selection_count)
from .measures import spot_tree_value  # noqa: F401  (public name here too)
from .model import PATH_CAP, EvolutionModel, require_valid

_PAYOFF_KINDS = ("const", "call", "put", "asian_call", "asian_put", "pwl",
                 "table")


@dataclass(frozen=True)
class Payoff:
    """A nonnegative claim on the price path.

    Every kind but ``table`` is a formula of the terminal price and, for
    the Asian kinds, the path mean; ``value`` evaluates it on one path and
    ``values`` elementwise, in the same operation order.
    """

    kind: str
    strike: float = 0.0
    const_value: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()
    right_slope: float = 0.0
    table: Mapping[tuple[int, ...], float] | None = None

    def __post_init__(self):
        if self.kind not in _PAYOFF_KINDS:
            raise ValidationError(f"unknown payoff kind {self.kind!r}")
        if self.kind in ("call", "put", "asian_call", "asian_put"):
            if not 0 < self.strike < math.inf:
                raise ValidationError("strike must be positive and finite")
        if self.kind == "const" and not 0 <= self.const_value < math.inf:
            raise ValidationError(
                "constant payoff must be nonnegative and finite")
        if self.kind == "pwl":
            xs = [x for x, _ in self.knots]
            ys = [y for _, y in self.knots]
            if not all(map(math.isfinite, xs + ys + [self.right_slope])):
                raise ValidationError(
                    "piecewise payoff knots and slope must be finite")
            if not xs or xs[0] != 0.0:
                raise ValidationError("piecewise payoff needs a knot at x = 0")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValidationError("knot x values must strictly increase")
            if any(y < 0 for y in ys):
                raise ValidationError("knot values must be nonnegative")
            if self.right_slope < 0:
                raise ValidationError("right slope must be nonnegative")
        if self.kind == "table" and self.table is None:
            raise ValidationError("table payoff needs a path table")

    # constructors -------------------------------------------------------
    @staticmethod
    def call(strike: float) -> "Payoff":
        return Payoff("call", strike=float(strike))

    @staticmethod
    def put(strike: float) -> "Payoff":
        return Payoff("put", strike=float(strike))

    @staticmethod
    def asian_call(strike: float) -> "Payoff":
        return Payoff("asian_call", strike=float(strike))

    @staticmethod
    def asian_put(strike: float) -> "Payoff":
        return Payoff("asian_put", strike=float(strike))

    @staticmethod
    def constant(c: float) -> "Payoff":
        return Payoff("const", const_value=float(c))

    @staticmethod
    def piecewise_linear(knots: Sequence[tuple[float, float]],
                         right_slope: float) -> "Payoff":
        return Payoff("pwl", knots=tuple((float(x), float(y))
                                         for x, y in knots),
                      right_slope=float(right_slope))

    @staticmethod
    def path_table(table: Mapping[tuple[int, ...], float]) -> "Payoff":
        return Payoff("table", table=dict(table))

    # evaluation ---------------------------------------------------------
    @property
    def reads_path_sum(self) -> bool:
        """Whether the formula reads the path sum S_0 + ... + S_N."""
        return self.kind in ("asian_call", "asian_put")

    def value(self, prices: Sequence[float], atoms=None) -> float:
        if self.kind == "table":
            if atoms is None:
                raise ValidationError("path-table payoff needs atom indices")
            try:
                return float(self.table[tuple(atoms)])
            except KeyError:
                raise ValidationError(f"path {tuple(atoms)} missing from table")
        path_sum = 0.0
        if self.reads_path_sum:
            for p in prices:
                path_sum += p
        return self._formula(prices[-1], path_sum, float(len(prices)))

    def _formula(self, s_n: float, path_sum: float, n_prices: float) -> float:
        if self.kind == "const":
            return self.const_value
        if self.kind == "pwl":
            return self._pwl(s_n)
        if self.kind == "call":
            d = s_n - self.strike
        elif self.kind == "put":
            d = self.strike - s_n
        elif self.kind == "asian_call":
            d = path_sum / n_prices - self.strike
        else:
            d = self.strike - path_sum / n_prices
        return d if d > 0.0 else 0.0

    def _pwl(self, x: float) -> float:
        knots, k = self.knots, len(self.knots)
        if x <= knots[0][0]:
            return knots[0][1]
        if x >= knots[k - 1][0]:
            return knots[k - 1][1] + self.right_slope * (x - knots[k - 1][0])
        i = 0
        while i + 1 < k and knots[i + 1][0] <= x:
            i += 1
        (x0, y0), (x1, y1) = knots[i], knots[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def values(self, price: np.ndarray, path_sum: np.ndarray | None,
               n_steps: int) -> np.ndarray:
        """``value`` of every path of ``n_steps`` steps at once: ``price``
        holds the terminal prices and ``path_sum`` the path sums (read
        only when ``reads_path_sum``)."""
        if self.kind == "const":
            return np.full(price.shape, self.const_value)
        if self.kind == "pwl":
            return self._pwl_values(price)
        if self.kind == "call":
            d = price - self.strike
        elif self.kind == "put":
            d = self.strike - price
        elif self.kind == "asian_call":
            d = path_sum / float(n_steps + 1) - self.strike
        elif self.kind == "asian_put":
            d = self.strike - path_sum / float(n_steps + 1)
        else:
            raise ValidationError("path-table payoff has no formula")
        d[~(d > 0.0)] = 0.0
        return d

    def _pwl_values(self, x: np.ndarray) -> np.ndarray:
        xs = np.array([x for x, _ in self.knots])
        ys = np.array([y for _, y in self.knots])
        k = xs.size
        tail = ys[k - 1] + self.right_slope * (x - xs[k - 1])
        if k > 1:
            i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, k - 2)
            inner = ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) \
                / (xs[i + 1] - xs[i])
            tail = np.where(x >= xs[k - 1], tail, inner)
        return np.where(x <= xs[0], ys[0], tail)

    def terminal_value(self, x: float) -> float:
        """Evaluate payoffs that depend only on the terminal price."""
        if self.kind not in ("const", "call", "put", "pwl"):
            raise ValidationError(
                f"{self.kind} payoff is not a function of the terminal price")
        return self._formula(x, 0.0, 1.0)

    @property
    def is_convex(self) -> bool:
        if self.kind in ("const", "call", "put", "asian_call", "asian_put"):
            return True
        if self.kind == "pwl":
            xs = [x for x, _ in self.knots]
            ys = [y for _, y in self.knots]
            slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1)
                      in zip(self.knots, self.knots[1:])]
            slopes.append(self.right_slope)
            return all(s1 >= s0 - 1e-15 for s0, s1 in zip(slopes, slopes[1:]))
        return False


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "discrete_exhaustive"
    eps_range: tuple[float, float] = (-12.0, 12.0)
    grid_points: int = 49
    tol: float = 1e-12
    max_rounds: int = 50

    def __post_init__(self):
        if self.mode not in ("discrete_exhaustive", "grid"):
            raise ValidationError(f"unknown search mode {self.mode!r}")
        lo, hi = self.eps_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("eps_range bounds must be finite")
        if not lo < 0 < hi:
            raise ValidationError("eps_range must straddle zero")
        if self.grid_points < 3:
            raise ValidationError("grid_points must be at least 3")
        if not self.tol > 0:
            raise ValidationError("tol must be positive")


@dataclass(frozen=True)
class PriceInterval:
    lower: float
    upper: float
    attained_lower: bool
    attained_upper: bool
    provenance: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValidationError("interval lower endpoint exceeds upper")


@dataclass(frozen=True)
class SupResult:
    value: float
    selection: AtomPairSelection | None
    eps_pairs: tuple[tuple[float, float], ...]
    mode: str
    provenance: str
    gap_bound: float | None = None
    trees: int = 0          # spot trees the engine valued
    combinations: int = 0   # selections or grid combinations, as capped


@dataclass(frozen=True)
class InfResult:
    value: float
    exact: bool
    provenance: str
    trees: int = 0          # spot trees the engine valued


# -- searches --------------------------------------------------------------

def _grid_sides(config: SearchConfig) -> tuple[int, int]:
    """The numbers of negative and of positive points of the grid
    ``np.linspace(lo, hi, grid_points)``, found by bisection on numpy's
    formula for its points (``i * step + lo``, the last one ``hi``, an
    ascending sequence) without building the grid."""
    lo, hi = config.eps_range
    n = config.grid_points
    step = (hi - lo) / (n - 1)

    def first(beyond) -> int:
        """The first index whose point is ``beyond`` 0."""
        a, b = 0, n - 1                # the last point, hi, is positive
        while a < b:
            mid = (a + b) // 2
            point = (mid * step if step else mid / (n - 1) * (hi - lo)) + lo
            a, b = (a, mid) if beyond(point) else (mid + 1, b)
        return a

    return first(lambda x: x >= 0.0), n - first(lambda x: x > 0.0)


def _grid_candidates(model: EvolutionModel, config: SearchConfig):
    """Each step's down candidates (ascending) and up candidates
    (descending) of the grid; CapExceededError, before the grid is built,
    when a step has more than ``SELECTION_CAP`` pairs."""
    pairs = math.prod(_grid_sides(config))
    if pairs > SELECTION_CAP:
        raise CapExceededError(f"{pairs} grid pairs per step exceed cap")
    lo, hi = config.eps_range
    pts = [float(x) for x in np.linspace(lo, hi, config.grid_points)]
    downs = [x for x in pts if x < 0.0]          # ascending: extreme first
    ups = sorted((x for x in pts if x > 0.0), reverse=True)
    if not downs or not ups:
        raise ValidationError("grid contains no sign-separated eps values")
    return [downs] * model.n_steps, [ups] * model.n_steps


def _sigma_lower_bound(model: EvolutionModel) -> float:
    out = math.inf
    for step in model.steps:
        out = min(out, step.vol.sigma if step.vol.kind == "constant"
                  else step.vol.floor)
    return out


def _grid_gap_bound(model: EvolutionModel, config: SearchConfig) -> float:
    lo, hi = config.eps_range
    s_lo = _sigma_lower_bound(model)
    return model.s0 * model.n_steps * (math.exp(-s_lo * hi)
                                       + math.exp(s_lo * lo))


def _ascent(model: EvolutionModel, payoff: Payoff, dn_cands, up_cands,
            config: SearchConfig):
    """Coordinate ascent over per-step pairs, extreme pair as the start.

    Sweeps update one step at a time; ties inside a sweep keep the incumbent,
    and candidate order (down ascending, up descending) starts each scan at
    the largest |eps|, so ties resolve toward larger shocks.  Every trial of
    a sweep differs from the incumbent at that step only, so one scan over
    the step's pairs, with the other steps held, evaluates the sweep.
    Returns the best value, its pairs and the number of trees valued.
    """
    n = model.n_steps
    state = [(0, 0)] * n
    trees = 1

    def held(st, cands, k):
        return [cands[s] if s == st else [cands[s][state[s][k]]]
                for s in range(n)]

    best = _engine.value(model, [c[0] for c in dn_cands],
                         [c[0] for c in up_cands], payoff)
    for _ in range(config.max_rounds):
        round_start = best
        for st in range(n):
            v, pairs, count = _engine.scan(model, held(st, dn_cands, 0),
                                           held(st, up_cands, 1), payoff)
            trees += count
            if v > best:
                best = v
                state = list(state)
                state[st] = pairs[st]
        if best - round_start <= config.tol:
            break
    return best, state, trees


def _exhaustive_candidates(model: EvolutionModel):
    """The atom candidates of an exhaustive scan (``_atom_candidates``):
    ValidationError for a pricing-only model or one without a spot pair at
    some step, CapExceededError above ``SELECTION_CAP`` selections."""
    if model.pricing_only:
        raise ValidationError("pricing-only model has no shock atoms")
    count = selection_count(model)
    if count == 0:
        raise ValidationError("no strictly negative or no positive atom")
    if count > SELECTION_CAP:
        raise CapExceededError(f"{count} selections exceed cap")
    return _atom_candidates(model)


def superhedge_sup(model: EvolutionModel, payoff: Payoff,
                   config: SearchConfig) -> SupResult:
    """Supremum of the spot-measure expectation per the configured search."""
    require_valid(model)
    n = model.n_steps
    if 2 ** n > PATH_CAP:
        raise CapExceededError(f"2^{n} tree branches exceed the path cap")

    if config.mode == "discrete_exhaustive":
        atoms_dn, atoms_up, dn_cands, up_cands = _exhaustive_candidates(model)
        value, pairs, trees = _engine.scan(model, dn_cands, up_cands, payoff,
                                           atoms_dn, atoms_up)
        selection = AtomPairSelection(tuple(
            (atoms_dn[st][pairs[st][0]], atoms_up[st][pairs[st][1]])
            for st in range(n)))
        eps_pairs = tuple((dn_cands[st][pairs[st][0]],
                           up_cands[st][pairs[st][1]]) for st in range(n))
        return SupResult(value, selection, eps_pairs, config.mode,
                         "exact maximum over model-atom selections",
                         trees=trees, combinations=math.prod(
                             len(d) * len(u)
                             for d, u in zip(dn_cands, up_cands)))

    if payoff.kind == "table":
        raise ValidationError("path-table payoffs require model atoms")

    dn_cands, up_cands = _grid_candidates(model, config)
    pair_count = len(dn_cands[0]) * len(up_cands[0])
    combos = pair_count ** n
    gap = _grid_gap_bound(model, config)

    if combos <= SELECTION_CAP:
        value, pairs, trees = _engine.scan(model, dn_cands, up_cands, payoff)
        how = "exhaustive grid scan"
    else:
        value, pairs, trees = _ascent(model, payoff, dn_cands, up_cands,
                                      config)
        how = ("coordinate ascent on the grid (combination count "
               f"{combos} above cap)")
    eps_pairs = tuple((dn_cands[st][pairs[st][0]], up_cands[st][pairs[st][1]])
                      for st in range(n))
    provenance = (f"{how}; search value underestimates the analytic "
                  f"supremum by at most {gap:.3e}")
    return SupResult(value, None, eps_pairs, config.mode, provenance,
                     gap_bound=gap, trees=trees, combinations=combos)


def superhedge_inf(model: EvolutionModel, payoff: Payoff,
                   config: SearchConfig) -> InfResult:
    """Infimum over the family; exact for convex payoffs (Jensen endpoint)."""
    require_valid(model)
    if 2 ** model.n_steps > PATH_CAP:
        raise CapExceededError(f"2^{model.n_steps} tree branches exceed the path cap")
    if payoff.is_convex:
        value = payoff.value([model.s0] * (model.n_steps + 1))
        return InfResult(value, True,
                         "Jensen endpoint f(s0), reached in the eps->0 limit")
    if config.mode == "discrete_exhaustive":
        atoms_dn, atoms_up, dn_cands, up_cands = _exhaustive_candidates(model)
        worst, trees = _engine.scan_min(model, dn_cands, up_cands, payoff,
                                        atoms_dn, atoms_up)
    else:
        if payoff.kind == "table":
            raise ValidationError("path-table payoffs require model atoms")
        dn_cands, up_cands = _grid_candidates(model, config)
        if (len(dn_cands[0]) * len(up_cands[0])) ** model.n_steps \
                > SELECTION_CAP:
            raise CapExceededError("grid combination count exceeds cap")
        worst, trees = _engine.scan_min(model, dn_cands, up_cands, payoff)
    return InfResult(worst, False,
                     "upper estimate of inf (non-convex payoff; minimum over "
                     "the searched spot measures)", trees)


# -- closed forms -----------------------------------------------------------

def _check_params(s0: float, a_list: Sequence[float], strike: float) -> None:
    # closed forms admit a = 0 (estimated exposures can vanish)
    if not s0 > 0:
        raise ValidationError("s0 must be positive")
    if not 0 < strike < math.inf:
        raise ValidationError("strike must be positive and finite")
    if not a_list:
        raise ValidationError("need at least one exposure coefficient")
    for a in a_list:
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"exposure {a} out of [0,1]")


def _survival_product(a_list: Sequence[float]) -> float:
    prod = 1.0
    for a in a_list:
        prod *= (1.0 - a)
    return prod


def _mean_min(s0: float, a_list: Sequence[float]) -> float:
    """Arithmetic path mean of the all-down limit path."""
    total = 1.0
    prod = 1.0
    for a in a_list:
        prod *= (1.0 - a)
        total += prod
    return s0 * total / float(len(a_list) + 1)


def closed_form_call(s0: float, a_list: Sequence[float], strike: float) -> float:
    _check_params(s0, a_list, strike)
    prod = _survival_product(a_list)
    if s0 * prod >= strike:
        return max(s0 - strike, 0.0)
    return s0 * (1.0 - prod)


def closed_form_put(s0: float, a_list: Sequence[float], strike: float) -> float:
    _check_params(s0, a_list, strike)
    return max(strike - s0 * _survival_product(a_list), 0.0)


def closed_form_asian_put(s0: float, a_list: Sequence[float],
                          strike: float) -> float:
    _check_params(s0, a_list, strike)
    return max(strike - _mean_min(s0, a_list), 0.0)


def closed_form_asian_call(s0: float, a_list: Sequence[float],
                           strike: float) -> float:
    # In the out-of-the-money branch the value is s0 - mean_min, written via
    # the put parity (call = put + s0 - K) so the identity is exact in floats.
    _check_params(s0, a_list, strike)
    mean = _mean_min(s0, a_list)
    if mean >= strike:
        return max(s0 - strike, 0.0)
    return (s0 - strike) + closed_form_asian_put(s0, a_list, strike)


def closed_form_price(payoff: Payoff, s0: float,
                      a_list: Sequence[float]) -> float:
    forms = {"call": closed_form_call, "put": closed_form_put,
             "asian_call": closed_form_asian_call,
             "asian_put": closed_form_asian_put}
    if payoff.kind not in forms:
        raise ValidationError(f"no closed form for payoff {payoff.kind!r}")
    return forms[payoff.kind](s0, a_list, payoff.strike)


# -- bounds and intervals ----------------------------------------------------

_PREMISE_TOL = 1e-12


def payoff_bounds_sublinear(s0: float, a_list: Sequence[float], slope: float,
                            payoff: Payoff) -> PriceInterval:
    """Sup bounds for payoffs with f(0) = 0, f <= slope * x, slope at infinity."""
    if not slope > 0:
        raise ValidationError("slope must be positive")
    if not s0 > 0:
        raise ValidationError("s0 must be positive")
    for a in a_list:
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"exposure {a} out of [0,1]")
    if payoff.kind == "call":
        if abs(slope - 1.0) > _PREMISE_TOL:
            raise ValidationError("call payoff has asymptotic slope 1")
    elif payoff.kind == "pwl":
        if payoff.terminal_value(0.0) != 0.0:
            raise ValidationError("payoff must vanish at 0")
        for x, y in payoff.knots:
            if y > slope * x + _PREMISE_TOL * max(1.0, slope * x):
                raise ValidationError(f"payoff exceeds slope*x at knot x={x}")
        if abs(payoff.right_slope - slope) > _PREMISE_TOL:
            raise ValidationError("payoff tail slope must equal the bound slope")
    else:
        raise ValidationError(
            f"{payoff.kind} payoff does not satisfy the sublinear premises")
    prod = _survival_product(a_list)
    upper = slope * s0
    # the premise makes lower <= upper; min() only absorbs half-ulp rounding
    lower = min(payoff.terminal_value(s0 * prod)
                + slope * s0 * (1.0 - prod), upper)
    return PriceInterval(lower, upper, False, False,
                         "bounds for the supremum: f(s0*prod(1-a)) + "
                         "slope*s0*(1-prod) <= sup <= slope*s0")


def payoff_bounds_bounded(s0: float, a_list: Sequence[float], cap: float,
                          payoff: Payoff) -> PriceInterval:
    """Sup bounds for payoffs with f(0) = cap and f <= cap."""
    if not cap > 0:
        raise ValidationError("cap must be positive")
    if payoff.kind not in ("put", "pwl", "const"):
        raise ValidationError(
            f"{payoff.kind} payoff does not satisfy the bounded premises")
    if abs(payoff.terminal_value(0.0) - cap) > _PREMISE_TOL * max(1.0, cap):
        raise ValidationError("payoff at 0 must equal the cap")
    if payoff.kind == "pwl":
        if any(y > cap + _PREMISE_TOL * max(1.0, cap) for _, y in payoff.knots):
            raise ValidationError("payoff exceeds the cap at a knot")
        if payoff.right_slope != 0.0:
            raise ValidationError("bounded payoff needs a flat tail")
    for a in a_list:
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"exposure {a} out of [0,1]")
    if not s0 > 0:
        raise ValidationError("s0 must be positive")
    prod = _survival_product(a_list)
    lower = min(payoff.terminal_value(s0 * prod), cap)
    return PriceInterval(lower, cap, False, False,
                         "bounds for the supremum: f(s0*prod(1-a)) <= sup "
                         "<= cap; exposures reaching 1 collapse both to cap")


def non_arbitrage_interval(s0: float, a_list: Sequence[float],
                           payoff: Payoff) -> PriceInterval:
    """Closed interval of prices consistent with no arbitrage."""
    if payoff.kind not in ("call", "put", "asian_call", "asian_put"):
        raise ValidationError(f"no interval form for payoff {payoff.kind!r}")
    strike = payoff.strike
    _check_params(s0, a_list, strike)
    prod = _survival_product(a_list)
    if payoff.kind == "call":
        lower = max(s0 - strike, 0.0)
        if s0 * prod >= strike:
            return PriceInterval(lower, lower, True, True,
                                 "call, branch s0*prod(1-a) >= K: single point")
        return PriceInterval(min(lower, s0 * (1.0 - prod)), s0 * (1.0 - prod),
                             True, True, "call, branch s0*prod(1-a) < K")
    if payoff.kind == "put":
        upper = max(strike - s0 * prod, 0.0)
        lower = min(max(strike - s0, 0.0), upper)
        return PriceInterval(lower, upper, True, True,
                             "put: [(K-s0)^+, (K-s0*prod(1-a))^+]")
    mean = _mean_min(s0, a_list)
    if payoff.kind == "asian_put":
        if strike <= mean:
            return PriceInterval(0.0, 0.0, True, True,
                                 "asian put, K <= all-down path mean: point 0")
        return PriceInterval(max(strike - s0, 0.0), strike - mean, True, True,
                             "asian put, K > all-down path mean")
    lower = max(s0 - strike, 0.0)
    if mean >= strike:
        return PriceInterval(lower, lower, True, True,
                             "asian call, mean >= K: single point")
    upper = (s0 - strike) + (strike - mean)
    return PriceInterval(min(lower, upper), upper, True, True,
                         "asian call, mean < K")

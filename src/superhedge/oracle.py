"""Brute-force reference implementations.

These re-derive expectations and suprema by naive full enumeration with no
intermediate structure shared with the main code paths (volatility
recursion, prices and weights are recomputed from scratch for every path).
They are intentionally slow; their purpose is to mint expected values and
to cross-check the fast paths, which they must match bit-for-bit for the
exhaustive supremum and to 1e-12 relative for expectations.

Randomness is the counter-based SplitMix64 stream documented in `_rng`;
alpha draws scan steps in order, then down atoms, then up atoms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._rng import SplitMix64
from .errors import CapExceededError, ValidationError
from .measures import AlphaDensity, AtomPairSelection, MeasureDensity, StepAlpha
from .model import EvolutionModel


@dataclass(frozen=True)
class OracleBudget:
    max_paths: int = 10_000_000
    max_selections: int = 2_000_000

    def __post_init__(self):
        if self.max_paths <= 0 or self.max_selections <= 0:
            raise ValidationError("oracle budget caps must be positive")


def _payoff_fn(payoff):
    value = getattr(payoff, "value", None)
    if value is not None:
        return value
    return lambda prices, atoms: float(payoff(prices))


def exp(x: float) -> float:
    # saturating exp, same convention as the tree engine
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def _sigma_seq(model: EvolutionModel, eps_seq) -> list[float]:
    """Volatility per step along realized shocks, recomputed from scratch."""
    out = []
    sigma = 0.0
    for i, step in enumerate(model.steps):
        vol = step.vol
        if i == 0:
            if vol.kind == "constant":
                sigma = vol.sigma
            else:
                s = sqrt(vol.omega0)
                sigma = vol.floor if s < vol.floor else s
        else:
            if vol.kind == "constant":
                sigma = vol.sigma
            else:
                e = eps_seq[i - 1]
                s2 = vol.omega0 + vol.alpha1 * (sigma * e) * (sigma * e)
                if vol.kind == "garch11":
                    s2 = s2 + vol.beta1 * sigma * sigma
                s = sqrt(s2)
                sigma = vol.floor if s < vol.floor else s
        out.append(sigma)
    return out


def brute_expectation(model: EvolutionModel, density: MeasureDensity,
                      payoff, budget: OracleBudget = OracleBudget()) -> float:
    """Naive sum over all full paths of base_prob * prod(psi) * payoff."""
    if model.path_count() > budget.max_paths:
        raise CapExceededError("path count exceeds the oracle budget")
    fn = _payoff_fn(payoff)
    counts = model.atom_counts()
    total = 0.0
    for atoms in itertools.product(*(range(c) for c in counts)):
        eps_seq = [model.steps[i].shocks[j].eps for i, j in enumerate(atoms)]
        sigmas = _sigma_seq(model, eps_seq)
        prices = [model.s0]
        weight = 1.0
        flat = 0
        for i, j in enumerate(atoms):
            atom = model.steps[i].shocks[j]
            prices.append(prices[-1] * (1.0 + model.steps[i].a
                                        * (exp(sigmas[i] * atom.eps) - 1.0)))
            weight *= atom.prob * float(density.psi[i][flat, j])
            flat = flat * counts[i] + j
        total += weight * fn(tuple(prices), atoms)
    return total


def _selection_value(model: EvolutionModel, pairs, fn) -> float:
    """Spot-tree expectation by naive per-leaf recomputation."""
    n = model.n_steps
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        prob = 1.0
        price = model.s0
        prices = [model.s0]
        atoms = []
        sigma = 0.0
        eps_prev = 0.0
        for lvl in range(n):
            step = model.steps[lvl]
            vol = step.vol
            if lvl == 0:
                if vol.kind == "constant":
                    sigma = vol.sigma
                else:
                    s = sqrt(vol.omega0)
                    sigma = vol.floor if s < vol.floor else s
            else:
                if vol.kind == "constant":
                    sigma = vol.sigma
                else:
                    s2 = vol.omega0 + vol.alpha1 * (sigma * eps_prev) \
                        * (sigma * eps_prev)
                    if vol.kind == "garch11":
                        s2 = s2 + vol.beta1 * sigma * sigma
                    s = sqrt(s2)
                    sigma = vol.floor if s < vol.floor else s
            d, u = pairs[lvl]
            eps_dn = step.shocks[d].eps
            eps_up = step.shocks[u].eps
            ed = exp(sigma * eps_dn)
            eu = exp(sigma * eps_up)
            if eu == float("inf"):
                psi_d, psi_u = 1.0, 0.0
            else:
                denom = eu - ed
                psi_d = (eu - 1.0) / denom
                psi_u = (1.0 - ed) / denom
            if bits[lvl] == 0:
                psi = psi_d
                price = price * (1.0 + step.a * (ed - 1.0))
                atoms.append(d)
                eps_prev = eps_dn
            else:
                psi = psi_u
                price = price * (1.0 + step.a * (eu - 1.0))
                atoms.append(u)
                eps_prev = eps_up
            if psi == 0.0:
                # a zero-weight branch contributes nothing; the tree engine
                # prunes it entirely, so do the same
                break
            prob = prob * psi
            prices.append(price)
        else:
            total += prob * fn(tuple(prices), tuple(atoms))
    return total


def brute_sup_selections(model: EvolutionModel, payoff,
                         budget: OracleBudget = OracleBudget()
                         ) -> tuple[float, AtomPairSelection]:
    """Exact maximum over all atom-pair selections.

    Selections are scanned in lexicographic order and only strictly greater
    values replace the incumbent, so ties go to the smallest selection.
    """
    n = model.n_steps
    per_step = []
    count = 1
    for k in range(1, n + 1):
        downs = [i for i, at in enumerate(model.steps[k - 1].shocks)
                 if at.eps < 0.0]
        ups = [i for i, at in enumerate(model.steps[k - 1].shocks)
               if at.eps > 0.0]
        if not downs or not ups:
            raise ValidationError(f"no sign-separated atom pair at step {k}")
        pairs = [(d, u) for d in downs for u in ups]
        per_step.append(pairs)
        count *= len(pairs)
    if count > budget.max_selections or 2 ** n > budget.max_paths:
        raise CapExceededError("selection enumeration exceeds the oracle budget")
    fn = _payoff_fn(payoff)
    best = -float("inf")
    best_pairs = None
    for combo in itertools.product(*per_step):
        value = _selection_value(model, combo, fn)
        if value > best:
            best = value
            best_pairs = combo
    return best, AtomPairSelection(tuple(best_pairs))


def random_alpha(model: EvolutionModel, seed: int) -> AlphaDensity:
    """Strictly positive random alpha weights, normalized per step."""
    rng = SplitMix64(seed)
    steps = []
    for k in range(1, model.n_steps + 1):
        downs = model.down_indices(k)
        ups = model.up_indices(k)
        if not downs or not ups:
            raise ValidationError(f"no sign-separated atoms at step {k}")
        raw = np.empty((len(downs), len(ups)))
        for i in range(len(downs)):
            for j in range(len(ups)):
                raw[i, j] = 0.1 + rng.uniform()
        probs = [at.prob for at in model.steps[k - 1].shocks]
        pd = np.array([probs[d] for d in downs])
        pu = np.array([probs[u] for u in ups])
        raw /= float(pd @ raw @ pu)
        steps.append(StepAlpha(downs, ups, raw))
    return AlphaDensity(tuple(steps))

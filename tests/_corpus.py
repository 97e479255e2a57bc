"""Deterministic random-model generators shared by the test suite."""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from superhedge import (EvolutionModel, Payoff, ShockAtom, StepSpec,
                        SupermartingaleSurface, VolatilitySpec)
from superhedge._rng import SplitMix64
from superhedge.measures import Lattice


def random_vol(rng: SplitMix64, kinds=("constant", "garch11")) -> VolatilitySpec:
    kind = kinds[rng.randint(len(kinds))]
    if kind == "constant":
        return VolatilitySpec.constant(rng.uniform_in(0.3, 3.0))
    if kind == "arch1":
        return VolatilitySpec.arch1(rng.uniform_in(0.01, 0.09),
                                    rng.uniform_in(0.0, 0.5), 0.05)
    return VolatilitySpec.garch11(rng.uniform_in(0.01, 0.09),
                                  rng.uniform_in(0.0, 0.5),
                                  rng.uniform_in(0.0, 0.4), 0.05)


def random_step(rng: SplitMix64, a_hi: float = 0.9, atoms_max: int = 4,
                vol_kinds=("constant", "garch11"),
                include_zero: bool = False) -> StepSpec:
    n_atoms = 2 + rng.randint(atoms_max - 1)
    n_down = 1 + rng.randint(n_atoms - 1)
    n_up = n_atoms - n_down
    eps = sorted(-rng.uniform_in(0.05, 2.5) for _ in range(n_down))
    eps += sorted(rng.uniform_in(0.05, 2.5) for _ in range(n_up))
    if include_zero:
        eps.insert(n_down, 0.0)
    raw = [rng.uniform_in(0.05, 1.0) for _ in eps]
    total = sum(raw)
    probs = [r / total for r in raw]
    probs[-1] = 1.0 - sum(probs[:-1])
    atoms = tuple(ShockAtom(e, p) for e, p in zip(eps, probs))
    return StepSpec(rng.uniform_in(0.05, a_hi), atoms, random_vol(rng, vol_kinds))


def random_model(seed: int, n_max: int = 4, atoms_max: int = 4,
                 a_hi: float = 0.9, s0_range=(50.0, 150.0),
                 vol_kinds=("constant", "garch11"),
                 include_zero: bool = False) -> EvolutionModel:
    rng = SplitMix64(seed)
    n = 1 + rng.randint(n_max)
    steps = tuple(random_step(rng, a_hi, atoms_max, vol_kinds, include_zero)
                  for _ in range(n))
    return EvolutionModel(rng.uniform_in(*s0_range), steps)


def fixed_garch8() -> EvolutionModel:
    """The fixed 8-step GARCH(1,1) model of the benchmark
    (``fixed_family_models`` in ``bench/workloads.py``, drawn from the same
    stream): 4 atoms per step, 65,536 paths and 11,664 atom-pair
    selections."""
    rng = random.Random("fixed:garch8")
    steps = []
    for pairs in (4, 4, 3, 3, 3, 3, 3, 3):
        rng.choice((1, 2))      # the benchmark draws every split choice
        split = rng.choice((1, 3))
        n_down = 2 if pairs == 4 else split
        eps = sorted(-rng.uniform(0.05, 1.5) for _ in range(n_down))
        eps += sorted(rng.uniform(0.05, 1.5) for _ in range(4 - n_down))
        raw = [rng.uniform(0.05, 1.0) for _ in eps]
        probs = [r / sum(raw) for r in raw]
        probs[-1] = 1.0 - sum(probs[:-1])
        omega0, alpha1 = rng.uniform(0.01, 0.09), rng.uniform(0.0, 0.3)
        vol = VolatilitySpec.garch11(omega0, alpha1, rng.uniform(0.0, 0.4),
                                     0.05)
        steps.append(StepSpec(rng.uniform(0.05, 0.9), tuple(
            ShockAtom(e, p) for e, p in zip(eps, probs)), vol))
    return EvolutionModel(rng.uniform(50.0, 150.0), tuple(steps))


def payoff_menu(m: EvolutionModel) -> tuple[Payoff, ...]:
    """The six payoffs of the oracle agreement corpus."""
    return (Payoff.constant(1.0),
            Payoff.piecewise_linear([(0.0, 0.0)], 1.0),
            Payoff.call(m.s0),
            Payoff.put(1.1 * m.s0),
            Payoff.asian_call(0.9 * m.s0),
            Payoff.asian_put(1.1 * m.s0))


def two_point_model(s0: float, a: float, sigma: float, eps: float,
                    p_down: float = 0.5) -> EvolutionModel:
    step = StepSpec(a, (ShockAtom(-eps, p_down), ShockAtom(eps, 1.0 - p_down)),
                    VolatilitySpec.constant(sigma))
    return EvolutionModel(s0, (step,))


def chain_model(s0: float, a_list, sigma: float, eps: float) -> EvolutionModel:
    steps = tuple(
        StepSpec(a, (ShockAtom(-eps, 0.5), ShockAtom(eps, 0.5)),
                 VolatilitySpec.constant(sigma)) for a in a_list)
    return EvolutionModel(s0, steps)


def wealth_levels(model: EvolutionModel, seed: int) -> list[np.ndarray]:
    """A self-financing wealth process: martingale under the whole family."""
    rng = SplitMix64(seed)
    kappas = [rng.uniform_in(-0.9, 0.9) for _ in range(model.n_steps)]
    lattice = Lattice(model)
    levels = [np.array([1.0])]
    for n, step in enumerate(model.steps):
        rel = step.a * (lattice.exp(n) - 1.0)
        levels.append((levels[n][:, None] * (1.0 + kappas[n] * rel)).ravel())
    return levels


def wealth_surface(model: EvolutionModel, seed: int) -> SupermartingaleSurface:
    return SupermartingaleSurface.from_values(model, wealth_levels(model, seed))


def martingale_mix_surface(model: EvolutionModel,
                           seed: int) -> SupermartingaleSurface:
    """Convex combination of two wealth martingales."""
    rng = SplitMix64(seed ^ 0x5EED)
    theta = rng.uniform_in(0.1, 0.9)
    w1 = wealth_levels(model, seed * 2 + 1)
    w2 = wealth_levels(model, seed * 2 + 2)
    levels = [theta * a + (1.0 - theta) * b for a, b in zip(w1, w2)]
    return SupermartingaleSurface.from_values(model, levels)


def bits(obj):
    """An image of ``obj`` that tells apart any two bit patterns of its
    floats and arrays (models are left out)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, EvolutionModel):
        return None
    if dataclasses.is_dataclass(obj):
        return tuple(bits(getattr(obj, f.name))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(bits(x) for x in obj)
    return obj

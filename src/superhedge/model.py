"""Finite-sample-space discrete-time asset evolutions.

A model is an initial price ``s0`` plus per-step data: an exposure
coefficient ``a`` in (0, 1], a volatility law (constant, ARCH(1) or
GARCH(1,1), floor-clamped so the realized volatility stays positive) and a
finite set of shock atoms ``eps`` with probabilities.  Prices evolve by

    S_n = S_{n-1} * (1 + a_n * (exp(sigma_n * eps_n) - 1))

where ``sigma_n`` depends on the realized shock prefix.  Models with all
``a_n < 1`` are classified "stable" (the price has a positive lower bound
over the horizon); models with some ``a_n = 1`` are "unstable".

Volatility recursions (an artifact choice, clamped below by ``floor``):

    arch1:   sigma_n^2 = omega0 + alpha1 * (sigma_{n-1} * eps_{n-1})^2
    garch11: sigma_n^2 = omega0 + alpha1 * (sigma_{n-1} * eps_{n-1})^2
                                + beta1 * sigma_{n-1}^2

with ``sigma_1 = max(floor, sqrt(omega0))`` at the empty history.
``VolatilitySpec`` holds the recursion, one value at a time and
elementwise, in the same operation order; next to it, the branch weights
of a spot pair and the saturating exponential of every walk.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ._rng import SplitMix64
from .errors import CapExceededError, ValidationError

PATH_CAP = 10_000_000
PROB_SUM_TOL = 1e-12
PROB_RENORM_TOL = 1e-9


@dataclass(frozen=True)
class ShockAtom:
    """One shock value with its base-measure probability."""

    eps: float
    prob: float


@dataclass(frozen=True)
class VolatilitySpec:
    kind: str
    sigma: float = 0.0
    omega0: float = 0.0
    alpha1: float = 0.0
    beta1: float = 0.0
    floor: float = 0.0

    @staticmethod
    def constant(sigma: float) -> "VolatilitySpec":
        return VolatilitySpec(kind="constant", sigma=sigma)

    @staticmethod
    def arch1(omega0: float, alpha1: float, floor: float) -> "VolatilitySpec":
        return VolatilitySpec(kind="arch1", omega0=omega0, alpha1=alpha1,
                              floor=floor)

    @staticmethod
    def garch11(omega0: float, alpha1: float, beta1: float,
                floor: float) -> "VolatilitySpec":
        return VolatilitySpec(kind="garch11", omega0=omega0, alpha1=alpha1,
                              beta1=beta1, floor=floor)

    def initial_sigma(self) -> float:
        """sigma_1, the volatility at the empty history."""
        if self.kind == "constant":
            return self.sigma
        s = math.sqrt(self.omega0)
        return self.floor if s < self.floor else s

    def next_sigma(self, sigma_prev: float, eps_prev: float) -> float:
        """The volatility after the shock ``eps_prev`` at volatility
        ``sigma_prev``."""
        if self.kind == "constant":
            return self.sigma
        s2 = self.omega0 + self.alpha1 * (sigma_prev * eps_prev) \
            * (sigma_prev * eps_prev)
        if self.kind == "garch11":
            s2 = s2 + self.beta1 * sigma_prev * sigma_prev
        s = math.sqrt(s2)
        return self.floor if s < self.floor else s

    def next_sigmas(self, sigma_prev: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
        """``next_sigma`` elementwise for ARCH/GARCH, in the same operation
        order, given ``x = sigma_prev * eps_prev``.  A constant law needs
        no step: its volatility is ``sigma`` at every history."""
        s2 = self.alpha1 * x
        s2 *= x
        s2 += self.omega0
        if self.kind == "garch11":
            g = self.beta1 * sigma_prev
            g *= sigma_prev
            s2 += g
        np.sqrt(s2, out=s2)
        np.maximum(s2, self.floor, out=s2)
        return s2

    def violations(self, step: int) -> list[str]:
        out = []
        if self.kind == "constant":
            fields = ("sigma",)
        elif self.kind == "arch1":
            fields = ("omega0", "alpha1", "floor")
        elif self.kind == "garch11":
            fields = ("omega0", "alpha1", "beta1", "floor")
        else:
            return [f"unknown volatility kind {self.kind!r} at step {step}"]
        bad = [f for f in fields if not math.isfinite(getattr(self, f))]
        if bad:
            return [f"{', '.join(bad)} not finite at step {step}"]
        if self.kind == "constant":
            if not self.sigma > 0:
                out.append(f"constant sigma not positive at step {step}")
        else:
            if not self.omega0 > 0:
                out.append(f"omega0 not positive at step {step}")
            if self.alpha1 < 0:
                out.append(f"alpha1 negative at step {step}")
            if self.kind == "garch11" and self.beta1 < 0:
                out.append(f"beta1 negative at step {step}")
            if not self.floor > 0:
                out.append(f"vol floor not positive at step {step}")
        return out


def _saturating_exp(x: float) -> float:
    """``math.exp(x)``; inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _branch_weights(ed, eu):
    """Weights (psi_d, psi_u) = (eu - 1, 1 - ed) / (eu - ed) of a spot pair
    with ``ed = e^{sigma*eps_dn}``, ``eu = e^{sigma*eps_up}`` (floats or
    arrays that broadcast together), and the exact limit (1, 0) where
    ``eu`` is inf.  Equal exponentials raise ZeroDivisionError for floats
    and give NaN in arrays, which callers reject or flag."""
    denom = eu - ed
    psi_d = (eu - 1.0) / denom
    psi_u = (1.0 - ed) / denom
    saturated = np.equal(eu, math.inf)    # an array or a numpy bool
    if saturated.any():
        psi_d = np.where(saturated, 1.0, psi_d)
        psi_u = np.where(saturated, 0.0, psi_u)
    return psi_d, psi_u


@dataclass(frozen=True)
class StepSpec:
    a: float
    shocks: tuple[ShockAtom, ...]
    vol: VolatilitySpec


@dataclass(frozen=True)
class EvolutionModel:
    s0: float
    steps: tuple[StepSpec, ...]
    # Estimated models carry exposures but no shock space; closed-form and
    # grid pricing work, atom-based enumeration does not.
    pricing_only: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def a_list(self) -> tuple[float, ...]:
        return tuple(s.a for s in self.steps)

    @property
    def classification(self) -> str:
        return "unstable" if any(s.a == 1.0 for s in self.steps) else "stable"

    def atom_counts(self) -> tuple[int, ...]:
        return tuple(len(s.shocks) for s in self.steps)

    @cached_property
    def lattice(self):
        """The ``measures.Lattice`` of this model, built once, kept with it."""
        from .measures import Lattice   # measures imports this module
        return Lattice(self)

    @cached_property
    def _drift_tree(self):
        """The last block ``_engine.max_drift`` built, or None: the pairs
        above its block level, the drift outcome of every selection below
        them and the history grid they were read from
        (``_engine._DriftBlock``, ``_engine._DriftGrid``; a tree of more
        than ``_engine.CHUNK_LEAVES`` leaves is a block of one selection
        and keeps no grid).  A later block on the same candidates reads
        the same grid.  Replaced by one assignment, never written; not a
        field, so equality, hash and repr ignore it."""
        return None

    @cached_property
    def _pair_eps(self):
        """Per step, each spot pair ``(d, u)`` of ``spot_pairs`` mapped to
        its shocks ``(eps_d, eps_u)``, in ``spot_pairs`` order: the pairs a
        selection may take, valid by construction.  Built once, never
        written; not a field."""
        return tuple({(d, u): (step.shocks[d].eps, step.shocks[u].eps)
                      for d, u in self.spot_pairs(k + 1)}
                     for k, step in enumerate(self.steps))

    def path_count(self) -> int:
        return math.prod(self.atom_counts()) if self.steps else 0

    def down_indices(self, n: int) -> tuple[int, ...]:
        """Atoms of step n (1-based) in the down set (eps <= 0)."""
        return tuple(i for i, at in enumerate(self.steps[n - 1].shocks)
                     if at.eps <= 0.0)

    def strict_down_indices(self, n: int) -> tuple[int, ...]:
        return tuple(i for i, at in enumerate(self.steps[n - 1].shocks)
                     if at.eps < 0.0)

    def up_indices(self, n: int) -> tuple[int, ...]:
        return tuple(i for i, at in enumerate(self.steps[n - 1].shocks)
                     if at.eps > 0.0)

    def spot_pairs(self, n: int) -> tuple[tuple[int, int], ...]:
        """The (down, up) atom pairs a spot measure may pick at step n
        (1-based): strictly-down atoms times up atoms, down major."""
        ups = self.up_indices(n)
        return tuple((d, u) for d in self.strict_down_indices(n) for u in ups)


@dataclass(frozen=True)
class PathIndex:
    """Per-step atom indices addressing one point of the sample space."""

    atoms: tuple[int, ...]


@dataclass(frozen=True)
class Path:
    eps_seq: tuple[float, ...]
    sigma_seq: tuple[float, ...]
    price_seq: tuple[float, ...]
    base_prob: float


def validate_model(model: EvolutionModel) -> list[str]:
    """Check every structural condition; empty report means valid."""
    report: list[str] = []
    if not math.isfinite(model.s0):
        report.append("s0 not finite")
    elif not model.s0 > 0:
        report.append("s0 not positive")
    if model.n_steps < 1:
        report.append("model has no steps")
    for k, step in enumerate(model.steps, start=1):
        # estimated (pricing-only) exposures may vanish
        a_ok = (0.0 <= step.a <= 1.0) if model.pricing_only \
            else (0.0 < step.a <= 1.0)
        if not math.isfinite(step.a):
            report.append(f"a not finite at step {k}")
        elif not a_ok:
            report.append(f"a out of (0,1] at step {k}")
        report.extend(step.vol.violations(k))
        if model.pricing_only:
            if step.shocks:
                report.append(f"pricing-only model has shocks at step {k}")
            continue
        if not step.shocks:
            report.append(f"no shocks at step {k}")
            continue
        for at in step.shocks:
            if not math.isfinite(at.prob):
                report.append(f"atom probability not finite at step {k}")
            elif not at.prob > 0:
                report.append(f"atom probability not positive at step {k}")
            if not math.isfinite(at.eps):
                report.append(f"non-finite shock value at step {k}")
        eps_values = [at.eps for at in step.shocks]
        if len(set(eps_values)) != len(eps_values):
            report.append(f"duplicate shock values at step {k}")
        total = sum(at.prob for at in step.shocks)
        if abs(total - 1.0) > PROB_SUM_TOL:
            report.append(f"shock probabilities sum to {total!r} at step {k}")
        if not any(at.eps < 0 for at in step.shocks):
            report.append(f"no negative shock at step {k}")
        if not any(at.eps > 0 for at in step.shocks):
            report.append(f"no positive shock at step {k}")
    return report


def require_valid(model: EvolutionModel) -> None:
    report = validate_model(model)
    if report:
        raise ValidationError("; ".join(report))


def _sigmas(model: EvolutionModel, n: int,
            eps_seq: Sequence[float]) -> list[float]:
    """Realized volatilities of steps 1..n along the shocks ``eps_seq``
    (that of step k depends on its first k - 1 entries): the one scalar
    walk of the volatility recursion."""
    out: list[float] = []
    for i, step in enumerate(model.steps[:n]):
        out.append(step.vol.next_sigma(out[-1], eps_seq[i - 1])
                   if i else step.vol.initial_sigma())
    return out


def _check_step(model: EvolutionModel, n: int,
                history: Sequence[float]) -> None:
    if not 1 <= n <= model.n_steps:
        raise ValidationError(f"step index {n} out of range 1..{model.n_steps}")
    if len(history) != n - 1:
        raise ValidationError(
            f"history length {len(history)} does not match step {n}")


def sigma_at(model: EvolutionModel, n: int, history: Sequence[float]) -> float:
    """Realized volatility of step n (1-based) given the shock prefix."""
    _check_step(model, n, history)
    return _sigmas(model, n, history)[-1]


def _step_factor(a: float, sigma: float, eps: float) -> float:
    return 1.0 + a * (_saturating_exp(sigma * eps) - 1.0)


def price_path(model: EvolutionModel, idx: PathIndex) -> Path:
    """Realize shocks, volatilities and prices along one full path; an
    overflowing e^{sigma*eps} saturates to inf, as in the spot trees."""
    if len(idx.atoms) != model.n_steps:
        raise ValidationError("path index length does not match model horizon")
    atoms = []
    for n, (step, j) in enumerate(zip(model.steps, idx.atoms)):
        if not 0 <= j < len(step.shocks):
            raise ValidationError(f"atom index {j} invalid at step {n + 1}")
        atoms.append(step.shocks[j])
    eps_seq = tuple(at.eps for at in atoms)
    sigma_seq = tuple(_sigmas(model, model.n_steps, eps_seq))
    prices = [model.s0]
    prob = 1.0
    for step, sigma, atom in zip(model.steps, sigma_seq, atoms):
        prices.append(prices[-1] * _step_factor(step.a, sigma, atom.eps))
        prob *= atom.prob
    return Path(eps_seq, sigma_seq, tuple(prices), prob)


def delta_split(model: EvolutionModel, history: Sequence[float],
                atom: ShockAtom) -> tuple[float, float, float]:
    """Signed price increment and its (down, up) parts for one atom.

    Atoms with eps <= 0 belong to the down set, so the down part is
    max(-delta, 0) and an eps = 0 atom splits as (0, 0, 0).  Exponentials
    saturate as in ``price_path``: an overflowing up move is (inf, 0, inf).
    """
    n = len(history) + 1
    _check_step(model, n, history)
    sigmas = _sigmas(model, n, history)
    price = model.s0
    for step, sigma, eps in zip(model.steps, sigmas, history):
        price *= _step_factor(step.a, sigma, eps)
    delta = price * model.steps[n - 1].a \
        * (_saturating_exp(sigmas[-1] * atom.eps) - 1.0)
    return delta, max(-delta, 0.0), max(delta, 0.0)


def enumerate_paths(model: EvolutionModel,
                    cap: int = PATH_CAP) -> Iterator[tuple[PathIndex, Path]]:
    """Yield every full path exactly once, in lexicographic index order."""
    total = model.path_count()
    if total > cap:
        raise CapExceededError(f"{total} paths exceed cap {cap}")
    ranges = [range(len(step.shocks)) for step in model.steps]
    for combo in itertools.product(*ranges):
        idx = PathIndex(combo)
        yield idx, price_path(model, idx)


def simulate(model: EvolutionModel, count: int, seed: int) -> list[Path]:
    """Draw independent paths from the base measure, deterministic per seed."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        atoms = []
        for step in model.steps:
            u = rng.uniform()
            acc = 0.0
            j = len(step.shocks) - 1
            for i, at in enumerate(step.shocks):
                acc += at.prob
                if u < acc:
                    j = i
                    break
            atoms.append(j)
        out.append(price_path(model, PathIndex(tuple(atoms))))
    return out


# -- model file format --------------------------------------------------

_VOL_ORDER = {
    "constant": ("sigma",),
    "arch1": ("omega0", "alpha1", "floor"),
    "garch11": ("omega0", "alpha1", "beta1", "floor"),
}
_VOL_FIELDS = {kind: {"kind", *fields} for kind, fields in _VOL_ORDER.items()}


def _number(d: dict, key: str, where: str) -> float:
    """``d[key]`` as a float; a missing or non-numeric value is a
    ValidationError naming ``where``."""
    if key not in d:
        raise ValidationError(f"missing '{key}' {where}")
    try:
        return float(d[key])
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"'{key}' {where} is not a number: {d[key]!r}") from None


def _require(obj, kind: type, what: str):
    if not isinstance(obj, kind):
        raise ValidationError(f"{what} must be a JSON "
                              f"{'object' if kind is dict else 'array'}")
    return obj


def _vol_from_dict(d: dict, step: int) -> VolatilitySpec:
    _require(d, dict, f"vol at step {step}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _VOL_FIELDS:
        raise ValidationError(f"unknown volatility kind {kind!r} at step {step}")
    extra = set(d) - _VOL_FIELDS[kind]
    if extra:
        raise ValidationError(
            f"unknown vol fields {sorted(extra)} at step {step}")
    missing = _VOL_FIELDS[kind] - set(d)
    if missing:
        raise ValidationError(
            f"missing vol fields {sorted(missing)} at step {step}")
    where = f"in vol at step {step}"
    values = [_number(d, f, where) for f in _VOL_ORDER[kind]]
    return {"constant": VolatilitySpec.constant, "arch1": VolatilitySpec.arch1,
            "garch11": VolatilitySpec.garch11}[kind](*values)


def model_from_dict(doc: dict) -> EvolutionModel:
    _require(doc, dict, "model")
    allowed = {"s0", "steps", "pricing_only"}
    extra = set(doc) - allowed
    if extra:
        raise ValidationError(f"unknown model fields {sorted(extra)}")
    if "s0" not in doc or "steps" not in doc:
        raise ValidationError("model file needs 's0' and 'steps'")
    pricing_only = bool(doc.get("pricing_only", False))
    steps = []
    for k, sd in enumerate(_require(doc["steps"], list, "'steps'"), start=1):
        _require(sd, dict, f"step {k}")
        extra = set(sd) - {"a", "vol", "shocks"}
        if extra:
            raise ValidationError(f"unknown step fields {sorted(extra)} at step {k}")
        if "a" not in sd or "vol" not in sd or "shocks" not in sd:
            raise ValidationError(f"step {k} needs 'a', 'vol' and 'shocks'")
        shocks = []
        for ad in _require(sd["shocks"], list, f"'shocks' at step {k}"):
            _require(ad, dict, f"shock at step {k}")
            extra = set(ad) - {"eps", "prob"}
            if extra:
                raise ValidationError(
                    f"unknown shock fields {sorted(extra)} at step {k}")
            where = f"in a shock at step {k}"
            shocks.append(ShockAtom(_number(ad, "eps", where),
                                    _number(ad, "prob", where)))
        if shocks:
            total = sum(at.prob for at in shocks)
            if abs(total - 1.0) > PROB_RENORM_TOL:
                raise ValidationError(
                    f"shock probabilities sum to {total!r} at step {k}")
            if abs(total - 1.0) > PROB_SUM_TOL:
                shocks = [ShockAtom(at.eps, at.prob / total) for at in shocks]
        steps.append(StepSpec(_number(sd, "a", f"at step {k}"), tuple(shocks),
                              _vol_from_dict(sd["vol"], k)))
    model = EvolutionModel(_number(doc, "s0", "in the model"), tuple(steps),
                           pricing_only=pricing_only)
    require_valid(model)
    return model


def model_to_dict(model: EvolutionModel) -> dict:
    steps = []
    for s in model.steps:
        vol: dict = {"kind": s.vol.kind}
        if s.vol.kind == "constant":
            vol["sigma"] = s.vol.sigma
        else:
            vol["omega0"] = s.vol.omega0
            vol["alpha1"] = s.vol.alpha1
            if s.vol.kind == "garch11":
                vol["beta1"] = s.vol.beta1
            vol["floor"] = s.vol.floor
        steps.append({
            "a": s.a,
            "vol": vol,
            "shocks": [{"eps": at.eps, "prob": at.prob} for at in s.shocks],
        })
    doc = {"s0": model.s0, "steps": steps}
    if model.pricing_only:
        doc["pricing_only"] = True
    return doc


def _reject_constant(name: str):
    raise ValidationError(f"non-finite number {name} is not allowed")


def load_json(path: str):
    """The JSON document in ``path``; invalid JSON and the non-finite
    tokens NaN and Infinity are a ValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8 ({exc})") from exc
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def load_model(path: str) -> EvolutionModel:
    doc = load_json(path)
    try:
        return model_from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

"""Families of equivalent martingale measures on the finite sample space.

Three layers:

* ``psi_weights`` / ``SpotMeasure``: the extreme measures.  A spot measure
  fixes one strictly-down and one up shock atom per step and induces a
  weighted binary tree whose branch weights make every one-step conditional
  price drift vanish.

* ``AlphaDensity`` / ``mixture_density``: the parameterized family.  A
  per-step strictly positive weight matrix on (down, up) atom pairs,
  normalized so the probability-weighted pair sum is 1, induces a density
  ``psi`` with respect to the base measure:

      psi(down atom d)  = sum_u p_u * alpha[d][u] * dS+(u) / V(d, u)
      psi(up atom u)    = sum_d p_d * alpha[d][u] * dS-(d) / V(d, u)

  with ``V(d, u) = dS-(d) + dS+(u)``.  Every such density integrates to 1
  conditionally and has zero conditional drift, and it is strictly positive,
  so the measure is equivalent to the base measure.

* ``integral_representation_check``: every mixture measure equals the
  alpha-weighted combination of spot trees; the check computes both sides
  by full enumeration and returns their absolute deviation.

Down sets use the convention eps <= 0 (an eps = 0 atom is "down" but is
excluded from spot selections, where it would degenerate the tree).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import _engine
from .errors import CapExceededError, ValidationError
from .model import (PATH_CAP, EvolutionModel, StepSpec, _branch_weights,
                    _saturating_exp, require_valid, sigma_at)

SELECTION_CAP = 2_000_000


# -- the history lattice ----------------------------------------------------

def history_index(counts: Sequence[int], history: Sequence[int]) -> int:
    """Row-major index of a history prefix (atom indices, step 1 most
    significant) among the prefixes of its length; ``counts`` are the
    atom counts per step."""
    if len(history) > len(counts):
        raise ValidationError(f"history {tuple(history)} longer than the horizon")
    flat = 0
    for c, j in zip(counts, history):
        if not 0 <= j < c:
            raise ValidationError(
                f"history {tuple(history)} has invalid atom index")
        flat = flat * c + j
    return flat


def history_at(counts: Sequence[int], n: int, flat: int) -> tuple[int, ...]:
    """The length-``n`` history prefix at row-major index ``flat``: the
    inverse of ``history_index``."""
    flat = int(flat)
    out = []
    for c in reversed(counts[:n]):
        flat, j = divmod(flat, c)
        out.append(j)
    return tuple(reversed(out))


class Lattice:
    """The tree of history prefixes on which densities, expectations and
    the decomposition live, one row-major level per prefix length:
    ``sigma[n]`` (step n + 1's volatility, bit for bit ``sigma_at``),
    ``price[n]`` (S_n), and per (prefix, atom) ``exp(n)`` (e^{sigma eps})
    and ``delta(n)`` (dS_{n+1}), each built in the buffer of its
    exponentials so that a level's grid is held once.  ``paths(n)`` walks
    the price and atom paths of the length-n prefixes.  Each model holds
    one (``EvolutionModel.lattice``): ``sigma`` and ``price`` are kept and
    read-only, and the lattice holds no reference to the model."""

    def __init__(self, model: EvolutionModel):
        self.s0, self.a = model.s0, model.a_list
        self.counts = model.atom_counts()
        self.eps = [np.array([at.eps for at in s.shocks]) for s in model.steps]
        sigma = [np.array([model.steps[0].vol.initial_sigma()])]
        for n in range(1, model.n_steps):
            vol = model.steps[n].vol
            prev = sigma[-1][:, None]
            if vol.kind == "constant":
                sigma.append(np.full(prev.size * self.counts[n - 1], vol.sigma))
            else:
                sigma.append(vol.next_sigmas(prev,
                                             prev * self.eps[n - 1]).ravel())
        for level in sigma:
            level.setflags(write=False)
        self.sigma = tuple(sigma)

    def exp(self, n: int) -> np.ndarray:
        """e^{sigma eps}; an overflow is a ValidationError naming the step."""
        x = np.outer(self.sigma[n], self.eps[n])
        with np.errstate(over="ignore"):
            np.exp(x, out=x)
        if np.isinf(x).any():
            raise ValidationError(f"e^(sigma*eps) overflows at step {n + 1}")
        return x

    @cached_property
    def price(self) -> tuple[np.ndarray, ...]:
        prices = [np.array([self.s0])]
        for n, a in enumerate(self.a):
            f = self.exp(n)               # S * (1 + a * (e - 1))
            f -= 1.0
            f *= a
            f += 1.0
            f *= prices[-1][:, None]
            prices.append(f.ravel())
        for level in prices:
            level.setflags(write=False)
        return tuple(prices)

    def delta(self, n: int) -> np.ndarray:
        d = self.exp(n)                   # (S * a) * (e - 1)
        d -= 1.0
        d *= self.price[n][:, None] * self.a[n]
        return d

    def paths(self, n: int) -> Iterator[tuple[int, Iterator, Iterator]]:
        """The length-``n`` prefixes in row-major order, in blocks of at
        most ``CHUNK_LEAVES``: the first row of each block, and its price
        paths (S_0, ..., S_n) and atom paths, tuples of Python numbers."""
        level = self.price[n]
        block = _engine.CHUNK_LEAVES
        for lo in range(0, level.size, block):
            rows = np.arange(lo, min(level.size, lo + block))
            prices, atoms = [level[rows].tolist()], []
            for lvl in range(n, 0, -1):
                rows, atom = np.divmod(rows, self.counts[lvl - 1])
                atoms.append(atom.tolist())
                prices.append(self.price[lvl - 1][rows].tolist())
            yield lo, zip(*prices[::-1]), zip(*atoms[::-1])


# -- spot measures --------------------------------------------------------

@dataclass(frozen=True)
class AtomPairSelection:
    """Per-step (down atom index, up atom index) choices."""

    pairs: tuple[tuple[int, int], ...]


def _selection_shocks(model: EvolutionModel, selection: AtomPairSelection
                      ) -> tuple[tuple[float, float], ...]:
    """The selection's (down eps, up eps) per step, checked in the same
    pass: one pair per step, in range, down eps < 0 < up eps.  A selection
    whose pairs are all keys of the model's pair table (``_pair_eps``) is
    valid by construction; any other takes the full check and raises its
    errors."""
    table, pairs = model._pair_eps, selection.pairs
    if len(pairs) == len(table):
        try:
            found = tuple(map(dict.__getitem__, table, pairs))
            # a float equal to an int finds its key, but indexes no atom
            sum(map(operator.index, itertools.chain.from_iterable(pairs)))
            return found
        except (KeyError, TypeError):        # no key, unhashable, no index
            pass
    if len(selection.pairs) != model.n_steps:
        raise ValidationError("selection length does not match model horizon")
    found = []
    for n, (d, u) in enumerate(selection.pairs, start=1):
        shocks = model.steps[n - 1].shocks
        if not (0 <= d < len(shocks) and 0 <= u < len(shocks)):
            raise ValidationError(f"selection indices out of range at step {n}")
        if not shocks[d].eps < 0:
            raise ValidationError(
                f"down atom at step {n} must have eps < 0, got {shocks[d].eps}")
        if not shocks[u].eps > 0:
            raise ValidationError(
                f"up atom at step {n} must have eps > 0, got {shocks[u].eps}")
        found.append((shocks[d].eps, shocks[u].eps))
    return tuple(found)


def _selection_eps(model: EvolutionModel,
                   selection: AtomPairSelection) -> tuple[list, list]:
    """The selection's down eps and up eps per step, checked."""
    shocks = _selection_shocks(model, selection)
    return [d for d, _ in shocks], [u for _, u in shocks]


def selection_count(model: EvolutionModel) -> int:
    return math.prod(len(model.spot_pairs(n))
                     for n in range(1, model.n_steps + 1))


def all_selections(model: EvolutionModel) -> Iterator[AtomPairSelection]:
    """Every valid selection, lexicographic in (down, up) atom indices."""
    per_step = []
    for n in range(1, model.n_steps + 1):
        pairs = model.spot_pairs(n)
        if not pairs:
            raise ValidationError(f"no sign-separated atom pair at step {n}")
        per_step.append(pairs)
    for combo in itertools.product(*per_step):
        yield AtomPairSelection(tuple(combo))


def _atom_candidates(model: EvolutionModel):
    """Strictly-down and up atom indices per step, and their eps values."""
    n = model.n_steps
    atoms_dn = [list(model.strict_down_indices(k)) for k in range(1, n + 1)]
    atoms_up = [list(model.up_indices(k)) for k in range(1, n + 1)]
    dn_cands = [[model.steps[k].shocks[i].eps for i in atoms_dn[k]]
                for k in range(n)]
    up_cands = [[model.steps[k].shocks[i].eps for i in atoms_up[k]]
                for k in range(n)]
    return atoms_dn, atoms_up, dn_cands, up_cands


def psi_weights(model: EvolutionModel, history: Sequence[float],
                eps_down: float, eps_up: float) -> tuple[float, float]:
    """Risk-neutral branch weights for one sign-separated shock pair, as in
    the spot trees: (1, 0) where e^{sigma*eps_up} saturates to inf."""
    if not (eps_down < 0.0 < eps_up):
        raise ValidationError(
            f"need eps_down < 0 < eps_up, got ({eps_down}, {eps_up})")
    sigma = sigma_at(model, len(history) + 1, history)
    psi_d, psi_u = _branch_weights(_saturating_exp(sigma * eps_down),
                                   _saturating_exp(sigma * eps_up))
    return float(psi_d), float(psi_u)


def spot_tree_value(model: EvolutionModel, eps_dn: Sequence[float],
                    eps_up: Sequence[float], payoff) -> float:
    """Spot-tree expectation for explicit eps pairs (used by grid search)."""
    if not len(eps_dn) == len(eps_up) == model.n_steps:
        raise ValidationError(
            f"{len(eps_dn)} down and {len(eps_up)} up shocks for a "
            f"{model.n_steps}-step model")
    if 2 ** model.n_steps > PATH_CAP:
        raise CapExceededError(f"2^{model.n_steps} branches exceed cap")
    return _engine.value(model, eps_dn, eps_up, payoff)


def spot_expectation(model: EvolutionModel, selection: AtomPairSelection,
                     payoff) -> float:
    """Expectation of a path payoff under one spot measure."""
    eps_dn, eps_up = _selection_eps(model, selection)
    if 2 ** model.n_steps > PATH_CAP:
        raise CapExceededError(f"2^{model.n_steps} branches exceed cap")
    atoms_dn = [d for d, _ in selection.pairs]
    atoms_up = [u for _, u in selection.pairs]
    return _engine.value(model, eps_dn, eps_up, payoff, atoms_dn, atoms_up)


@dataclass(frozen=True)
class SpotMeasure:
    model: EvolutionModel
    selection: AtomPairSelection

    def __post_init__(self):
        # checked once; the shock pairs are kept for every drift call (the
        # dataclass is frozen, and they are not a field)
        object.__setattr__(self, "_shocks",
                           _selection_shocks(self.model, self.selection))

    def expectation(self, payoff) -> float:
        return spot_expectation(self.model, self.selection, payoff)

    def max_node_drift(self) -> float:
        """Largest |conditional one-step drift| / node price over the tree
        the engine prices (``_engine.max_drift`` states the rule)."""
        return _engine.max_drift(self.model, self._shocks)

    def as_density(self) -> "MeasureDensity":
        """Express the spot measure as a density on the full space.

        The density is zero off the selected atoms, so it fails the
        equivalence check while passing normalization and drift.
        """
        model = self.model
        psi = []
        for n, step in enumerate(model.steps):
            d, u = self.selection.pairs[n]
            psi_d, psi_u = _pair_weights(model.lattice, n, [d], [u])
            out = np.zeros((psi_d.shape[0], len(step.shocks)))
            out[:, d] = psi_d[:, 0, 0] / step.shocks[d].prob
            out[:, u] = psi_u[:, 0, 0] / step.shocks[u].prob
            out.setflags(write=False)
            psi.append(out)
        return MeasureDensity(model, tuple(psi))


def _pair_weights(lattice: Lattice, n: int, downs: list[int],
                  ups: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Branch weights (psi_d, psi_u) of step n + 1 per (length-n prefix,
    down atom, up atom); equal exponentials (V = 0) are a ValidationError."""
    e = lattice.exp(n)
    ed = e[:, downs][:, :, None]                  # (H, D, 1)
    eu = e[:, ups][:, None, :]                    # (H, 1, U)
    del e
    if np.any(eu <= ed):
        raise ValidationError(
            f"degenerate (down, up) pair with V = 0 at step {n + 1}")
    return _branch_weights(ed, eu)


# -- alpha densities ------------------------------------------------------

ALPHA_NORM_TOL = 1e-12


@dataclass(frozen=True)
class StepAlpha:
    """Weights on (down, up) atom pairs for one step."""

    down_atoms: tuple[int, ...]
    up_atoms: tuple[int, ...]
    weights: np.ndarray  # shape (len(down_atoms), len(up_atoms))


@dataclass(frozen=True)
class AlphaDensity:
    steps: tuple[StepAlpha, ...]


def validate_alpha(model: EvolutionModel, alphas: AlphaDensity) -> None:
    if len(alphas.steps) != model.n_steps:
        raise ValidationError("alpha density length does not match horizon")
    for n, sa in enumerate(alphas.steps, start=1):
        downs = model.down_indices(n)
        ups = model.up_indices(n)
        if tuple(sa.down_atoms) != downs or tuple(sa.up_atoms) != ups:
            raise ValidationError(
                f"alpha at step {n} does not cover the (down, up) atom grid")
        w = np.asarray(sa.weights, dtype=float)
        if w.shape != (len(downs), len(ups)):
            raise ValidationError(f"alpha shape mismatch at step {n}")
        if not np.all(w > 0.0):
            raise ValidationError(f"alpha not strictly positive at step {n}")
        probs = [at.prob for at in model.steps[n - 1].shocks]
        pd = np.array([probs[d] for d in downs])
        pu = np.array([probs[u] for u in ups])
        total = float(pd @ w @ pu)
        if abs(total - 1.0) > ALPHA_NORM_TOL:
            raise ValidationError(
                f"alpha normalization off by {total - 1.0:.3e} at step {n}")


def alpha_from_partition(step: StepSpec, down_blocks: Sequence[Sequence[int]],
                         up_blocks: Sequence[Sequence[int]],
                         deltas: Sequence[float], mus: Sequence[float],
                         gammas: Sequence[float]) -> StepAlpha:
    """Build one step's alpha weights from block decompositions.

    Each down block with weight ``delta`` yields the density that puts mass
    ``1 - delta`` uniformly on the block and ``delta`` on its complement
    within the down set (likewise up blocks with ``mus``); ``gammas`` mixes
    the block-pair products convexly.  With no blocks a side contributes the
    single uniform density over its atoms.
    """
    downs = tuple(i for i, at in enumerate(step.shocks) if at.eps <= 0.0)
    ups = tuple(i for i, at in enumerate(step.shocks) if at.eps > 0.0)
    if not downs or not ups:
        raise ValidationError("step has no sign-separated atoms")
    probs = [at.prob for at in step.shocks]

    def side_factors(atoms, blocks, weights, label):
        p_all = sum(probs[i] for i in atoms)
        if not blocks:
            return [np.array([1.0 / p_all] * len(atoms))]
        if len(blocks) != len(weights):
            raise ValidationError(f"{label}: one weight per block required")
        factors = []
        for block, w in zip(blocks, weights):
            if not 0.0 < w < 1.0:
                raise ValidationError(f"{label}: block weight {w} not in (0,1)")
            block = set(block)
            if not block <= set(atoms):
                raise ValidationError(f"{label}: block outside the atom set")
            p_block = sum(probs[i] for i in block)
            p_rest = p_all - p_block
            if p_block <= 0.0 or p_rest <= 0.0:
                raise ValidationError(
                    f"{label}: block or complement has zero probability")
            factors.append(np.array(
                [(1.0 - w) / p_block if i in block else w / p_rest
                 for i in atoms]))
        return factors

    down_f = side_factors(downs, down_blocks, deltas, "down blocks")
    up_f = side_factors(ups, up_blocks, mus, "up blocks")
    gam = np.asarray(list(gammas), dtype=float)
    if gam.size != len(down_f) * len(up_f):
        raise ValidationError("gammas length must be n_down_factors * n_up_factors")
    if np.any(gam < 0.0) or abs(float(gam.sum()) - 1.0) > ALPHA_NORM_TOL:
        raise ValidationError("gammas must be nonnegative and sum to 1")
    w = np.zeros((len(downs), len(ups)))
    for k, (fd, fu) in enumerate(itertools.product(down_f, up_f)):
        w += gam[k] * np.outer(fd, fu)
    if not np.all(w > 0.0):
        raise ValidationError("resulting alpha is not strictly positive")
    return StepAlpha(downs, ups, w)


# -- mixture densities ----------------------------------------------------

@dataclass(frozen=True)
class MeasureDensity:
    """Density psi per (step, history prefix, atom), history row-major.

    Levels must not change after construction: the density keeps its
    martingale residuals.  ``mixture_density`` and
    ``SpotMeasure.as_density`` store them read-only."""

    model: EvolutionModel
    psi: tuple[np.ndarray, ...]

    def value(self, n: int, history_atoms: Sequence[int], atom: int) -> float:
        """psi at step n (1-based) for a history given by atom indices."""
        flat = history_index(self.model.atom_counts(), history_atoms)
        return float(self.psi[n - 1][flat, atom])

    @property
    def strictly_positive(self) -> bool:
        return all(np.all(p > 0.0) for p in self.psi)

    def min_value(self) -> float:
        """The smallest psi; NaN when any cell is NaN."""
        return float(np.min([p.min() for p in self.psi]))

    def _residuals(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """|conditional normalization - 1| and |conditional drift| / S_n
        of step n + 1, per length-n prefix."""
        lattice = self.model.lattice
        probs = np.array([at.prob for at in self.model.steps[n].shocks])
        psi = self.psi[n]
        norm_res = np.abs(psi @ probs - 1.0)
        drift_res = np.abs(np.einsum("ha,a,ha->h", psi, probs,
                                     lattice.delta(n))) / lattice.price[n]
        return norm_res, drift_res

    @cached_property
    def _residual_maxima(self) -> tuple[tuple[float, float], ...]:
        """The largest normalization and drift residual of every step
        (NaN if any is NaN)."""
        return tuple((float(norm.max()), float(drift.max())) for norm, drift
                     in map(self._residuals, range(self.model.n_steps)))


def _require_own_model(model: EvolutionModel, obj) -> None:
    """``obj`` keeps results computed from ``obj.model``: reject any model
    that is not equal to it."""
    if model != obj.model:
        raise ValidationError(
            f"the model is not the {type(obj).__name__}'s own model")


def mixture_density(model: EvolutionModel,
                    alphas: AlphaDensity) -> MeasureDensity:
    """Density of the martingale measure induced by per-step alpha weights."""
    require_valid(model)
    validate_alpha(model, alphas)
    # one cell per (prefix, atom): the prefixes of lengths 1..N
    if sum(itertools.accumulate(model.atom_counts(), operator.mul)) > PATH_CAP:
        raise CapExceededError("density storage exceeds the path cap")
    psi: list[np.ndarray] = []
    for n, step in enumerate(model.steps):
        sa = alphas.steps[n]
        probs = np.array([at.prob for at in step.shocks])
        r_plus, r_minus = _pair_weights(model.lattice, n, list(sa.down_atoms),
                                        list(sa.up_atoms))   # (H, D, U)
        w = np.asarray(sa.weights, dtype=float)
        pd = probs[list(sa.down_atoms)]
        pu = probs[list(sa.up_atoms)]
        out = np.zeros((r_plus.shape[0], len(step.shocks)))
        out[:, list(sa.down_atoms)] = np.einsum("u,du,hdu->hd", pu, w, r_plus)
        out[:, list(sa.up_atoms)] = np.einsum("d,du,hdu->hu", pd, w, r_minus)
        out.setflags(write=False)
        psi.append(out)
    return MeasureDensity(model, tuple(psi))


def measure_expectation(model: EvolutionModel, density: MeasureDensity,
                        payoff) -> float:
    """Expectation of a path payoff: sum over full paths of base_prob *
    prod(psi) * payoff."""
    if model.path_count() > PATH_CAP:
        raise CapExceededError("path count exceeds cap")
    weights = np.array([1.0])
    for n, step in enumerate(model.steps):
        probs = np.array([at.prob for at in step.shocks])
        weights = (weights[:, None] * (probs[None, :] * density.psi[n])).ravel()
    lattice = model.lattice
    formula = _engine.formula(payoff)
    if formula is not None:
        prices = lattice.price
        path_sum = None
        if formula.reads_path_sum:
            path_sum = np.array([model.s0])
            for n, c in enumerate(lattice.counts):
                path_sum = np.repeat(path_sum, c) + prices[n + 1]
        values = formula.values(prices[-1], path_sum, model.n_steps)
    else:
        fn = _engine.payoff_fn(payoff)
        values = np.empty(weights.size)
        for lo, prices, atoms in lattice.paths(model.n_steps):
            block = [fn(p, a) for p, a in zip(prices, atoms)]
            values[lo:lo + len(block)] = block
    return float(weights @ values)


@dataclass
class MartingaleReport:
    tol: float
    max_norm_residual: float
    max_drift_residual: float  # relative to the node price
    min_psi: float
    equivalent: bool
    failures: list[tuple[int, tuple[int, ...], str, float]]

    @property
    def passed(self) -> bool:
        return (self.max_norm_residual <= self.tol
                and self.max_drift_residual <= self.tol)


def verify_martingale(model: EvolutionModel, density: MeasureDensity,
                      tol: float = 1e-9) -> MartingaleReport:
    """Check conditional normalization and drift at every (step, history).

    Equivalence (strict positivity of psi) is reported separately and does
    not gate `passed`; spot measures expressed as densities pass the
    martingale checks while failing equivalence.  A NaN residual is a
    failure, and the maxima propagate it.  The density keeps its residual
    maxima, so ``model`` must equal ``density.model``; only a step over
    tol is computed again, for its failures.
    """
    _require_own_model(model, density)
    counts = model.atom_counts()
    max_norm = 0.0
    max_drift = 0.0
    failures = []
    for n, (norm_n, drift_n) in enumerate(density._residual_maxima):
        max_norm = float(np.maximum(max_norm, norm_n))
        max_drift = float(np.maximum(max_drift, drift_n))
        if norm_n <= tol and drift_n <= tol:
            continue
        for kind, res in zip(("normalization", "drift"),
                             density._residuals(n)):
            for h in np.nonzero(~(res <= tol))[0]:
                failures.append((n + 1, history_at(counts, n, h), kind,
                                 float(res[h])))
    min_psi = density.min_value()
    return MartingaleReport(tol, max_norm, max_drift, min_psi,
                            equivalent=min_psi > 0.0, failures=failures)


def integral_representation_check(model: EvolutionModel, alphas: AlphaDensity,
                                  payoff) -> float:
    """|mixture expectation - alpha-weighted sum of spot-tree expectations|.

    The pair enumeration runs over the full alpha grid (eps <= 0 down
    atoms included); a selected eps = 0 atom just contributes a tree whose
    up branches carry zero weight, matching the mixture side exactly.
    """
    validate_alpha(model, alphas)
    combos = math.prod(len(sa.down_atoms) * len(sa.up_atoms)
                       for sa in alphas.steps)
    if combos > SELECTION_CAP:
        raise CapExceededError(f"{combos} pair combinations exceed cap")
    lhs = measure_expectation(model, mixture_density(model, alphas), payoff)
    # alpha weight of every pair combination, lexicographic, multiplied in
    # step order starting from 1.0
    weights = np.ones(1)
    dn_cands, up_cands = [], []
    for n, sa in enumerate(alphas.steps):
        shocks = model.steps[n].shocks
        w = np.asarray(sa.weights, dtype=float)
        step_w = [shocks[d].prob * shocks[u].prob * float(w[i, j])
                  for i, d in enumerate(sa.down_atoms)
                  for j, u in enumerate(sa.up_atoms)]
        weights = (weights[:, None] * np.array(step_w)[None, :]).ravel()
        dn_cands.append([shocks[d].eps for d in sa.down_atoms])
        up_cands.append([shocks[u].eps for u in sa.up_atoms])
    rhs = 0.0
    offset = 0
    for vals in _engine.scan_values(model, dn_cands, up_cands, payoff,
                                    [sa.down_atoms for sa in alphas.steps],
                                    [sa.up_atoms for sa in alphas.steps]):
        terms = weights[offset:offset + vals.size] * vals
        offset += vals.size
        for t in terms.tolist():
            rhs += t
    return abs(lhs - rhs)


def export_density(density: MeasureDensity) -> list[dict]:
    """Flatten a density to records for the debug report."""
    counts = density.model.atom_counts()
    out = []
    for n, psi in enumerate(density.psi):
        for h in range(psi.shape[0]):
            hist = list(history_at(counts, n, h))
            for a in range(psi.shape[1]):
                out.append({"step": n + 1, "history": hist, "atom": a,
                            "psi": float(psi[h, a])})
    return out

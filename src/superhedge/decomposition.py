"""Optional decomposition of positive supermartingale surfaces.

A surface assigns a value f_n > 0 to every history prefix.  If for every
step and history the one-step ratios satisfy

    f_n / f_{n-1}  <=  1 + gamma_{n-1} * dS_n          (all atoms)

with

    gamma_{n-1} = inf over atoms with dS- > 0 of (1 - f_n/f_{n-1}) / dS_n^-

then the surface decomposes as f_n = M_n - sum_{i<=n} g_i where

    xi^0_n = 1 + gamma_{n-1} * dS_n
    g_n    = -f_n + f_{n-1} * xi^0_n          (nonnegative consumption)
    M_n    = f_0 + sum_{i<=n} f_{i-1} * (xi^0_i - 1)

and M is a martingale under every measure of the constructed family (its
increments are predictable multiples of dS).  A ratio-bound failure
certifies that the surface is not a supermartingale for the whole family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .measures import (MeasureDensity, history_at, history_index,
                       _require_own_model, verify_martingale)
from .model import (EvolutionModel, _check_step, _number, _require,
                    require_valid)

RATIO_TOL_DEFAULT = 1e-10
_SHIFT_PAD = 1e-3


@dataclass(frozen=True)
class SupermartingaleSurface:
    """Values per history prefix (row-major per level), all >= floor > 0.

    Levels must not change after construction: the surface keeps its ratio
    bound.  ``from_values`` stores read-only views."""

    model: EvolutionModel
    values: tuple[np.ndarray, ...]  # values[n] has one entry per length-n prefix
    floor: float
    shift: float = 0.0  # amount added to the raw inputs to restore positivity

    @staticmethod
    def from_values(model: EvolutionModel, values: Sequence[np.ndarray],
                    floor: float | None = None) -> "SupermartingaleSurface":
        values = tuple(np.asarray(v, dtype=float).ravel() for v in values)
        counts = model.atom_counts()
        if len(values) != model.n_steps + 1:
            raise ValidationError("surface needs one level per step plus root")
        for n, level in enumerate(values):
            if level.size != math.prod(counts[:n]):
                raise ValidationError(
                    f"surface level {n} has {level.size} nodes, "
                    f"expected {math.prod(counts[:n])}")
            if not np.isfinite(level).all():
                raise ValidationError(f"surface level {n} is not finite")
        vmin = min(float(v.min()) for v in values)
        shift = 0.0
        if floor is not None:
            if not floor > 0 or vmin < floor:
                raise ValidationError(
                    f"surface values fall below the declared floor {floor}")
        elif vmin > 0.0:
            floor = vmin
        else:
            # restore positivity by a recorded shift; the decomposition below
            # is of the shifted surface
            floor = max(1.0, abs(vmin)) * _SHIFT_PAD
            shift = -vmin + floor
            values = tuple(v + shift for v in values)
        for level in values:        # views or new arrays, never the caller's
            level.setflags(write=False)
        return SupermartingaleSurface(model, values, float(floor), shift)

    @staticmethod
    def from_price_function(model: EvolutionModel,
                            fn: Callable[[tuple[float, ...]], float]
                            ) -> "SupermartingaleSurface":
        """Build a surface by evaluating fn on every price prefix
        (S_0, ..., S_n), level by level, in row-major order."""
        lattice = model.lattice
        levels = []
        for n, level in enumerate(lattice.price):
            vals = np.empty(level.size)
            for lo, prices, _ in lattice.paths(n):
                block = [fn(p) for p in prices]
                vals[lo:lo + len(block)] = block
            levels.append(vals)
        return SupermartingaleSurface.from_values(model, levels)

    def value(self, history_atoms: Sequence[int]) -> float:
        flat = history_index(self.model.atom_counts(), history_atoms)
        return float(self.values[len(history_atoms)][flat])

    @cached_property
    def _ratio_levels(self) -> tuple[tuple[np.ndarray, ...],
                                     tuple[np.ndarray, ...], tuple[float, ...]]:
        """gamma and xi0 of every step, read-only, and each step's largest
        scaled excess (NaN if any is NaN)."""
        require_valid(self.model)
        gammas, xi0, worst = [], [], []
        for n in range(self.model.n_steps):
            gamma, xi, excess = _level(self, n)
            gamma.setflags(write=False)
            xi.setflags(write=False)
            gammas.append(gamma)
            xi0.append(xi)
            worst.append(float(excess.max()))
        return tuple(gammas), tuple(xi0), tuple(worst)


@dataclass(frozen=True)
class Decomposition:
    model: EvolutionModel
    gamma: tuple[np.ndarray, ...]  # gamma[n]: per length-n prefix, n = 0..N-1
    xi0: tuple[np.ndarray, ...]    # xi0[n]: (prefixes, atoms of step n+1)
    g: tuple[np.ndarray, ...]
    M: tuple[np.ndarray, ...]      # M[n]: per length-n prefix, n = 0..N


@dataclass
class RatioBoundReport:
    tol: float
    max_scaled_excess: float
    failures: list[tuple[int, tuple[int, ...], int, float]]

    @property
    def passed(self) -> bool:
        return self.max_scaled_excess <= self.tol


@dataclass
class DecompositionReport:
    tol: float
    max_g_violation: float
    max_reconstruction_residual: float
    max_martingale_residual: float
    densities_checked: int
    failures: list[str]
    scope_note: str = ("martingale property verified against the supplied "
                       "densities only; the family itself is infinite")

    @property
    def passed(self) -> bool:
        return not self.failures


def gamma_step(model: EvolutionModel, surface: SupermartingaleSurface,
               n: int, history_atoms: Sequence[int]) -> float:
    """inf over strictly-down atoms of (1 - f_n/f_{n-1}) / dS_n^-."""
    _require_own_model(model, surface)
    _check_step(model, n, history_atoms)
    flat = history_index(model.atom_counts(), history_atoms)
    return float(_level(surface, n - 1)[0][flat])


def _level(surface: SupermartingaleSurface, n: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma_n per length-n prefix, and per (prefix, atom) xi0_{n+1} and
    the scaled excess (f_{n+1}/f_n - xi0_{n+1}) / max(1, f_n)."""
    model = surface.model
    downs = model.strict_down_indices(n + 1)
    if not downs:
        raise ValidationError(f"step {n + 1} has no strictly-down atom")
    xi = model.lattice.delta(n)
    excess = surface.values[n + 1].reshape(-1, len(model.steps[n].shocks)) \
        / surface.values[n][:, None]
    gamma = reduce(np.minimum, ((1.0 - excess[:, j]) / -xi[:, j]
                                for j in downs))
    # dS and the ratios become xi0 and the excess in place, so no grid of
    # the level is held twice
    xi *= gamma[:, None]
    xi += 1.0
    excess -= xi
    excess /= np.maximum(1.0, surface.values[n])[:, None]
    return gamma, xi, excess


def _ratio_bound(model: EvolutionModel, surface: SupermartingaleSurface,
                 tol: float) -> tuple[tuple[np.ndarray, ...],
                                      tuple[np.ndarray, ...], RatioBoundReport]:
    """gamma and xi0 of every step, and the ratio-bound report."""
    _require_own_model(model, surface)
    gammas, xi0, worst_levels = surface._ratio_levels
    counts = model.atom_counts()
    worst = 0.0
    failures = []
    for n, worst_n in enumerate(worst_levels):
        worst = float(np.maximum(worst, worst_n))
        if worst_n <= tol:
            continue            # only a step over tol is computed again
        excess = _level(surface, n)[2]
        for h, j in zip(*np.nonzero(~(excess <= tol))):
            failures.append((n + 1, history_at(counts, n, h), int(j),
                             float(excess[h, j])))
    return gammas, xi0, RatioBoundReport(tol, worst, failures)


def check_ratio_bound(model: EvolutionModel, surface: SupermartingaleSurface,
                      tol: float = RATIO_TOL_DEFAULT) -> RatioBoundReport:
    """Verify f_n/f_{n-1} <= 1 + gamma_{n-1} dS_n (+ tol) at every node.

    The per-node allowance is tol * max(1, f_{n-1}); a failure means the
    surface is not a supermartingale for the whole measure family.  The
    surface keeps the bound, so ``model`` must equal ``surface.model``.
    """
    return _ratio_bound(model, surface, tol)[2]


def optional_decompose(model: EvolutionModel,
                       surface: SupermartingaleSurface) -> Decomposition:
    """Split the surface into a family-wide martingale minus consumption."""
    gammas, xi0, report = _ratio_bound(model, surface, RATIO_TOL_DEFAULT)
    if not report.passed:
        first = report.failures[0]
        exc = ValidationError(
            f"surface violates the ratio bound at step {first[0]}, history "
            f"{first[1]}, atom {first[2]} (excess {first[3]:.3e}); it is not "
            "a supermartingale for the whole family")
        exc.report = report
        raise exc
    counts = model.atom_counts()
    g, M = [], [np.array([float(surface.values[0][0])])]
    for n, xi in enumerate(xi0):
        f_prev = surface.values[n]
        f_next = surface.values[n + 1].reshape(-1, counts[n])
        g.append(-f_next + f_prev[:, None] * xi)
        M.append((M[n][:, None] + f_prev[:, None] * (xi - 1.0)).ravel())
    return Decomposition(model, gammas, xi0, tuple(g), tuple(M))


def verify_decomposition(model: EvolutionModel,
                         surface: SupermartingaleSurface,
                         decomposition: Decomposition,
                         densities: Sequence[MeasureDensity],
                         tol: float = 1e-10) -> DecompositionReport:
    """Check consumption sign, reconstruction, and the martingale property
    of M under each supplied density; each density must also pass
    ``verify_martingale`` at tol, a read of the residuals it keeps."""
    for i, q in enumerate(densities):
        if not verify_martingale(model, q, tol).passed:
            raise ValidationError(f"density {i} fails the martingale checks")
    counts = model.atom_counts()
    failures = []
    max_g = 0.0
    for n, g_n in enumerate(decomposition.g):
        worst = float((-g_n).max())
        max_g = float(np.maximum(max_g, worst))
        if not worst <= tol:
            failures.append(f"consumption negativity at step {n + 1} "
                            f"({worst:.3e})")
    max_rec = 0.0
    cum_g = np.array([0.0])
    for n in range(model.n_steps + 1):
        # |f_n - (M_n - cum_g)| in cum_g's buffer, once the next is built
        t = cum_g
        if n < model.n_steps:
            cum_g = (cum_g[:, None] + decomposition.g[n]).ravel()
        np.subtract(decomposition.M[n], t, out=t)
        np.subtract(surface.values[n], t, out=t)
        resid = float(np.abs(t, out=t).max())
        max_rec = float(np.maximum(max_rec, resid))
        if not resid <= tol:
            failures.append(f"reconstruction residual {resid:.3e} at level {n}")
    del t, cum_g      # a full-size grid the martingale pass does not need
    max_mart = 0.0
    for qi, q in enumerate(densities):
        for n in range(model.n_steps):
            probs = np.array([at.prob for at in model.steps[n].shocks])
            m_next = decomposition.M[n + 1].reshape(-1, counts[n])
            cond = np.einsum("ha,a->h", m_next * q.psi[n], probs)
            resid = np.abs(cond - decomposition.M[n]) \
                / np.maximum(1.0, np.abs(decomposition.M[n]))
            worst = float(resid.max())
            max_mart = float(np.maximum(max_mart, worst))
            if not worst <= tol:
                h = int(resid.argmax())
                failures.append(
                    f"martingale residual {worst:.3e} under density {qi} at "
                    f"step {n + 1}, history {history_at(counts, n, h)}")
    return DecompositionReport(tol, max_g, max_rec, max_mart, len(densities),
                               failures)


def surface_from_nodes(model: EvolutionModel, floor: float,
                       nodes: Sequence[Mapping]) -> SupermartingaleSurface:
    """Assemble a surface from {"history": [...], "value": v} records.

    Every prefix must be present exactly once, with a finite value; nothing
    is interpolated.
    """
    if not math.isfinite(floor):
        raise ValidationError(f"surface floor {floor!r} is not finite")
    counts = model.atom_counts()
    levels = [np.full(math.prod(counts[:n]), np.nan)
              for n in range(model.n_steps + 1)]
    for node in _require(nodes, list, "'nodes'"):
        _require(node, dict, "surface node")
        extra = set(node) - {"history", "value"}
        if extra:
            raise ValidationError(f"unknown surface node fields {sorted(extra)}")
        hist = _require(node.get("history", []), list, "surface node history")
        if not all(isinstance(j, int) and not isinstance(j, bool)
                   for j in hist):
            raise ValidationError(f"surface node history {hist!r} is not a "
                                  "list of atom indices")
        hist = tuple(hist)
        flat = history_index(counts, hist)
        value = _number(node, "value", f"in the surface node for history "
                                       f"{list(hist)}")
        if not math.isfinite(value):
            raise ValidationError(
                f"surface value for history {list(hist)} is not finite")
        if not np.isnan(levels[len(hist)][flat]):
            raise ValidationError(f"duplicate surface node for history {hist}")
        levels[len(hist)][flat] = value
    for n, level in enumerate(levels):
        missing = np.nonzero(np.isnan(level))[0]
        if missing.size:
            hist = history_at(counts, n, missing[0])
            raise ValidationError(f"surface is missing history {list(hist)}")
    return SupermartingaleSurface.from_values(model, levels, floor=floor)


def export_decomposition(dec: Decomposition) -> list[dict]:
    """Node records for the decomposition report."""
    counts = dec.model.atom_counts()
    out = []
    for n in range(dec.model.n_steps + 1):
        for h in range(dec.M[n].size):
            rec: dict = {"history": list(history_at(counts, n, h))}
            if n < dec.model.n_steps:
                rec["gamma"] = float(dec.gamma[n][h])
                rec["atoms"] = [{"xi0": float(dec.xi0[n][h, j]),
                                 "g": float(dec.g[n][h, j])}
                                for j in range(counts[n])]
            rec["M"] = float(dec.M[n][h])
            out.append(rec)
    return out

import collections
import dataclasses
import functools
import math

import numpy as np
import pytest

from superhedge import (Decomposition, EvolutionModel, Payoff, ShockAtom,
                        StepSpec, SupermartingaleSurface, ValidationError,
                        VolatilitySpec, check_ratio_bound, gamma_step,
                        measure_expectation, mixture_density,
                        model_from_dict, model_to_dict, optional_decompose,
                        random_alpha, verify_decomposition,
                        verify_martingale)
from superhedge import _engine
from superhedge._rng import SplitMix64
from superhedge.decomposition import surface_from_nodes
from superhedge.measures import (Lattice, SpotMeasure, all_selections,
                                 history_at)

from _corpus import (bits, chain_model, random_model, random_step,
                     two_point_model, wealth_surface)

LN2 = math.log(2.0)


def min_surface(model, cap=None):
    cap = cap if cap is not None else 0.9 * model.s0
    return SupermartingaleSurface.from_price_function(
        model, lambda prices: min(prices[-1], cap))


def nan_surface():
    """A surface with a NaN node, built past from_values (which rejects
    it)."""
    m = two_point_model(100.0, 0.5, 1.0, 0.7)
    return SupermartingaleSurface(
        m, (np.array([5.0]), np.array([math.nan, 4.0])), 4.0)


class TestGammaStep:
    def test_price_ratio_example(self):
        m = two_point_model(1.0, 1.0, 1.0, LN2)
        surface = SupermartingaleSurface.from_price_function(
            m, lambda prices: prices[-1])
        assert gamma_step(m, surface, 1, ()) == pytest.approx(1.0, rel=1e-14)

    def test_constant_surface(self):
        m = random_model(5, n_max=2)
        surface = SupermartingaleSurface.from_price_function(m, lambda p: 4.2)
        assert gamma_step(m, surface, 1, ()) == 0.0

    def test_two_candidate_minimum(self):
        shocks = (ShockAtom(-LN2, 0.3), ShockAtom(math.log(0.75), 0.3),
                  ShockAtom(0.9, 0.4))
        m = EvolutionModel(1.0, (StepSpec(1.0, shocks,
                                          VolatilitySpec.constant(1.0)),))
        # candidates: (1-0.5)/0.5 = 1.0 and (1-0.8)/0.25 = 0.8
        surface = SupermartingaleSurface.from_values(
            m, [np.array([1.0]), np.array([0.5, 0.8, 1.0])])
        assert gamma_step(m, surface, 1, ()) == pytest.approx(0.8, rel=1e-12)

    def test_gamma_bounds(self):
        for seed in range(10):
            m = random_model(seed, n_max=3)
            surface = min_surface(m)
            lattice = Lattice(m)
            deltas = lattice.delta
            counts = m.atom_counts()
            for n in range(1, m.n_steps + 1):
                downs = m.strict_down_indices(n)
                ups = m.up_indices(n)
                h_count = deltas[n - 1].shape[0]
                for h in range(h_count):
                    hist = []
                    flat = h
                    for c in reversed(counts[:n - 1]):
                        hist.append(flat % c)
                        flat //= c
                    hist = tuple(reversed(hist))
                    g = gamma_step(m, surface, n, hist)
                    for j in downs:
                        assert g <= 1.0 / (-deltas[n - 1][h, j]) + 1e-12
                    for j in ups:
                        assert g >= -1.0 / deltas[n - 1][h, j] - 1e-12


class TestRatioBound:
    def test_concave_function_of_martingale_passes(self):
        for seed in range(15):
            m = random_model(seed, n_max=3)
            assert check_ratio_bound(m, min_surface(m)).passed

    def test_submartingale_direction_fails(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        surface = SupermartingaleSurface.from_price_function(
            m, lambda prices: max(prices[-1], 150.0))
        report = check_ratio_bound(m, surface)
        assert not report.passed
        assert report.failures

    def test_constant_surface_passes(self):
        m = random_model(2, n_max=3)
        surface = SupermartingaleSurface.from_price_function(m, lambda p: 1.0)
        assert check_ratio_bound(m, surface).passed

    def test_zero_shock_atoms_supported(self):
        # eps = 0 atoms have dS = 0, so the bound there is ratio <= 1
        for seed in range(5):
            m = random_model(seed, n_max=3, include_zero=True)
            surface = min_surface(m)
            assert check_ratio_bound(m, surface).passed
            dec = optional_decompose(m, surface)
            report = verify_decomposition(
                m, surface, dec,
                [mixture_density(m, random_alpha(m, seed))], tol=1e-10)
            assert report.passed, report.failures


class TestOptionalDecompose:
    def test_worked_example(self):
        m = two_point_model(1.0, 1.0, 1.0, LN2)
        dec = optional_decompose(m, min_surface(m, cap=1.0))
        assert dec.gamma[0][0] == pytest.approx(1.0, rel=1e-14)
        assert dec.xi0[0][0] == pytest.approx([0.5, 2.0], rel=1e-14)
        assert dec.g[0][0] == pytest.approx([0.0, 1.0], abs=1e-14)
        assert dec.M[1] == pytest.approx([0.5, 2.0], rel=1e-14)
        # conditional expectation under the psi weights returns M_0 = 1
        assert (2.0 / 3.0) * dec.M[1][0] + (1.0 / 3.0) * dec.M[1][1] \
            == pytest.approx(1.0, rel=1e-14)

    def test_martingale_surface_consumes_nothing(self):
        for seed in range(10):
            m = random_model(seed, n_max=3)
            surface = wealth_surface(m, seed + 50)
            dec = optional_decompose(m, surface)
            for n in range(m.n_steps):
                assert np.all(np.abs(dec.g[n]) <= 1e-10)
                assert dec.M[n + 1] == pytest.approx(surface.values[n + 1],
                                                     rel=1e-9)

    def test_constant_surface(self):
        m = random_model(3, n_max=2)
        surface = SupermartingaleSurface.from_price_function(m, lambda p: 3.0)
        dec = optional_decompose(m, surface)
        for n in range(m.n_steps):
            assert np.all(dec.g[n] == 0.0)
            assert np.all(dec.M[n + 1] == 3.0)

    def test_rejects_non_supermartingale(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        surface = SupermartingaleSurface.from_price_function(
            m, lambda prices: max(prices[-1], 150.0))
        with pytest.raises(ValidationError) as err:
            optional_decompose(m, surface)
        assert err.value.report.failures

    def test_reconstruction_identity(self):
        for seed in range(10):
            m = random_model(seed, n_max=3)
            surface = min_surface(m)
            dec = optional_decompose(m, surface)
            counts = m.atom_counts()
            cum = np.array([0.0])
            for n in range(m.n_steps + 1):
                resid = np.abs(surface.values[n] - (dec.M[n] - cum))
                assert float(resid.max()) \
                    <= 1e-12 * max(1.0, float(np.abs(surface.values[n]).max()))
                if n < m.n_steps:
                    cum = (cum[:, None] + dec.g[n]).ravel()


class TestVerifyDecomposition:
    def densities(self, m, count=3):
        out = [SpotMeasure(m, sel).as_density() for sel in all_selections(m)]
        out += [mixture_density(m, random_alpha(m, s)) for s in range(count)]
        return out

    def test_min_surface_passes(self):
        for seed in range(6):
            m = random_model(seed, n_max=3)
            surface = min_surface(m)
            dec = optional_decompose(m, surface)
            report = verify_decomposition(m, surface, dec,
                                          self.densities(m), tol=1e-10)
            assert report.passed, report.failures

    def test_negative_consumption_detected(self):
        m = random_model(1, n_max=2)
        surface = min_surface(m)
        dec = optional_decompose(m, surface)
        g = list(dec.g)
        g0 = g[0].copy()
        g0[0, 0] = -1.0
        g[0] = g0
        bad = Decomposition(m, dec.gamma, dec.xi0, tuple(g), dec.M)
        report = verify_decomposition(m, surface, bad, [], tol=1e-10)
        assert any("consumption negativity" in f for f in report.failures)

    def test_martingale_residual_detected(self):
        m = random_model(1, n_max=2)
        surface = min_surface(m)
        dec = optional_decompose(m, surface)
        M = list(dec.M)
        m1 = M[1].copy()
        m1[0] += 0.5
        M[1] = m1
        bad = Decomposition(m, dec.gamma, dec.xi0, dec.g, tuple(M))
        report = verify_decomposition(m, surface, bad, self.densities(m, 1),
                                      tol=1e-10)
        assert any("martingale residual" in f for f in report.failures)


class TestFromPriceFunction:
    @staticmethod
    def per_node(model, fn):
        """fn on every price prefix, one prefix at a time."""
        lattice = Lattice(model)
        calls, levels = [], []
        for n, level in enumerate(lattice.price):
            vals = []
            for flat in range(level.size):
                prefix = [float(level[flat])]
                h = flat
                for lvl in range(n, 0, -1):
                    h //= lattice.counts[lvl - 1]
                    prefix.append(float(lattice.price[lvl - 1][h]))
                calls.append(tuple(prefix[::-1]))
                vals.append(fn(calls[-1]))
            levels.append(np.array(vals))
        return calls, levels

    def check(self, model):
        def value(prices):
            return min(prices[-1], 0.9 * model.s0) + 0.25 * len(prices)

        calls = []
        surface = SupermartingaleSurface.from_price_function(
            model, lambda prices: calls.append(prices) or value(prices))
        ref_calls, ref_levels = self.per_node(model, value)
        assert calls == ref_calls
        assert all(type(x) is float for p in calls for x in p)
        for got, want in zip(surface.values, ref_levels):
            assert got.tobytes() == want.tobytes()

    def test_level_larger_than_one_block(self):
        m = chain_model(100.0, [0.3] * 15, 0.4, 0.7)
        assert m.path_count() > _engine.CHUNK_LEAVES
        self.check(m)

    def test_small_blocks(self, monkeypatch):
        monkeypatch.setattr(_engine, "CHUNK_LEAVES", 5)
        for seed in range(5):
            self.check(random_model(seed, n_max=4,
                                    vol_kinds=("arch1", "garch11")))


class TestSurfaceHandling:
    def test_shift_restores_positivity(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        raw = [np.array([5.0]), np.array([0.0, 40.0])]
        surface = SupermartingaleSurface.from_values(m, raw)
        assert surface.shift == pytest.approx(1e-3)
        assert surface.values[1][0] == pytest.approx(1e-3)
        assert surface.floor > 0

    def test_negative_values_shifted_above_zero(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        raw = [np.array([5.0]), np.array([-2.0, 40.0])]
        surface = SupermartingaleSurface.from_values(m, raw)
        assert surface.values[1][0] > 0
        assert surface.shift > 2.0

    def test_missing_prefix_rejected(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        nodes = [{"history": [], "value": 10.0},
                 {"history": [0], "value": 8.0}]
        with pytest.raises(ValidationError) as err:
            surface_from_nodes(m, 1.0, nodes)
        assert "missing" in str(err.value)

    def test_declared_floor_enforced(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        nodes = [{"history": [], "value": 10.0},
                 {"history": [0], "value": 0.5},
                 {"history": [1], "value": 12.0}]
        with pytest.raises(ValidationError):
            surface_from_nodes(m, 1.0, nodes)
        surface = surface_from_nodes(m, 0.25, nodes)
        assert surface.value((0,)) == 0.5

    def test_non_finite_values_rejected(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="level 1"):
                SupermartingaleSurface.from_values(m, [[5.0], [bad, 4.0]])

    def test_nan_fails_every_check(self):
        # a NaN node built past from_values: the maxima propagate it and
        # every check fails
        surface = nan_surface()
        m = surface.model
        rep = check_ratio_bound(m, surface)
        assert math.isnan(rep.max_scaled_excess) and not rep.passed
        assert rep.failures
        with pytest.raises(ValidationError, match="ratio bound"):
            optional_decompose(m, surface)
        flat = SupermartingaleSurface.from_values(m, [[5.0], [5.0, 5.0]])
        dec = optional_decompose(m, flat)
        density = mixture_density(m, random_alpha(m, 1))
        nan_dec = Decomposition(m, dec.gamma, dec.xi0,
                                (np.array([[math.nan, 0.0]]),),
                                (dec.M[0], np.array([math.nan, 5.0])))
        rep = verify_decomposition(m, flat, nan_dec, [density])
        assert math.isnan(rep.max_g_violation)
        assert math.isnan(rep.max_reconstruction_residual)
        assert math.isnan(rep.max_martingale_residual)
        assert len(rep.failures) == 3 and not rep.passed


class TestOneLatticePerModel:
    @staticmethod
    def pipeline(m):
        """The calls of the family pipeline on one model (mixture density,
        martingale check, expectations, surface, ratio bound,
        decomposition and its check, gamma_step), each taking the model."""
        alphas = random_alpha(m, 3)
        density = mixture_density(m, alphas)
        surface = min_surface(m)
        dec = optional_decompose(m, surface)
        return [
            lambda m: mixture_density(m, alphas),
            lambda m: verify_martingale(m, density),
            lambda m: measure_expectation(m, density, Payoff.call(m.s0)),
            lambda m: measure_expectation(m, density,
                                          Payoff.asian_call(0.9 * m.s0)),
            lambda m: min_surface(m).values,
            lambda m: check_ratio_bound(m, surface),
            lambda m: optional_decompose(m, surface),
            lambda m: verify_decomposition(m, surface, dec, [density]),
            lambda m: gamma_step(m, surface, m.n_steps,
                                 (0,) * (m.n_steps - 1)),
        ]

    def test_one_construction_per_model(self, monkeypatch):
        built = []
        init = Lattice.__init__

        def counting_init(self, model):
            built.append(model)
            init(self, model)

        monkeypatch.setattr(Lattice, "__init__", counting_init)
        for seed in range(4):
            m = random_model(seed, n_max=3)
            for call in self.pipeline(m):
                call(m)
            assert built == [m]
            built.clear()

    def test_outputs_match_a_fresh_model_bit_for_bit(self):
        for seed in range(10):
            m = random_model(seed, n_max=3, include_zero=seed % 2 == 1)
            for i, call in enumerate(self.pipeline(m)):
                fresh = dataclasses.replace(m)
                assert "lattice" not in vars(fresh)
                assert bits(call(m)) == bits(call(fresh)), (seed, i)

    def test_gamma_step_matches_the_decomposition(self):
        for seed in range(8):
            rng = SplitMix64(seed + 900)
            m = EvolutionModel(100.0, tuple(random_step(rng)
                                            for _ in range(3)))
            surface = min_surface(m)
            gamma = optional_decompose(m, surface).gamma
            counts = m.atom_counts()
            for n, level in enumerate(gamma, start=1):
                for h, want in enumerate(level.tolist()):
                    got = gamma_step(m, surface, n,
                                     history_at(counts, n - 1, h))
                    assert got.hex() == want.hex(), (seed, n, h)


def ratio_failures_by_node(surface, tol):
    """The ratio-bound failures of ``surface``, one node at a time in
    row-major order: the reference for the bound the surface keeps."""
    m = surface.model
    lattice, counts = Lattice(m), m.atom_counts()
    out = []
    for n in range(m.n_steps):
        delta = lattice.delta[n]
        downs = m.strict_down_indices(n + 1)
        for h in range(delta.shape[0]):
            f = surface.values[n][h]
            ratios = [surface.values[n + 1][h * counts[n] + j] / f
                      for j in range(counts[n])]
            gamma = functools.reduce(np.minimum, [
                (1.0 - ratios[j]) / -delta[h, j] for j in downs])
            for j in range(counts[n]):
                excess = (ratios[j] - (delta[h, j] * gamma + 1.0)) \
                    / np.maximum(1.0, f)
                if not excess <= tol:
                    out.append((n + 1, history_at(counts, n, h), j,
                                float(excess)))
    return out


class TestKeptRatioBound:
    CALLS = (lambda s: check_ratio_bound(s.model, s, 1e-30),
             lambda s: check_ratio_bound(s.model, s, 1e-10),
             lambda s: optional_decompose(s.model, s))

    @staticmethod
    def surfaces():
        """Factories of a passing, a failing and a NaN surface, and of a
        martingale surface whose rounding fails 1e-30 (not 1e-10) at steps
        1 and 3 only."""
        up = random_model(7, n_max=3)
        return (lambda: min_surface(random_model(4, n_max=3)),
                lambda: SupermartingaleSurface.from_price_function(
                    up, lambda prices: max(prices[-1], 1.05 * up.s0)),
                nan_surface,
                lambda: wealth_surface(random_model(6, n_max=3), 56))

    @staticmethod
    def outcome(call, surface):
        try:
            return bits(call(surface))
        except ValidationError as exc:
            return str(exc), bits(exc.report)

    def test_one_surface_matches_fresh_surfaces(self):
        for make in self.surfaces():
            for calls in (self.CALLS, self.CALLS[::-1]):
                surface = make()
                kept = [self.outcome(call, surface) for call in calls]
                fresh = [self.outcome(call, make()) for call in calls]
                assert kept == fresh

    def test_failures_match_a_walk_by_node(self):
        passing, failing, nan, rounded = (make() for make in self.surfaces())
        for surface in (passing, failing, nan, rounded):
            for tol in (1e-30, 1e-10, 1e-10, 1e-30):
                report = check_ratio_bound(surface.model, surface, tol)
                assert report.passed == (not report.failures)
                assert bits(report.failures) \
                    == bits(ratio_failures_by_node(surface, tol))
        assert not check_ratio_bound(passing.model, passing).failures
        steps = {f[0] for f in check_ratio_bound(failing.model, failing,
                                                 1e-10).failures}
        assert len(steps) > 1
        assert check_ratio_bound(nan.model, nan).failures
        assert check_ratio_bound(rounded.model, rounded).passed
        steps = {f[0] for f in check_ratio_bound(rounded.model, rounded,
                                                 1e-30).failures}
        assert steps == {1, 3}

    def test_other_model_rejected(self):
        m, other = random_model(4, n_max=3), random_model(5, n_max=3)
        surface = min_surface(m)
        density = mixture_density(m, random_alpha(m, 1))
        dec = optional_decompose(m, surface)
        for call in (lambda: check_ratio_bound(other, surface),
                     lambda: optional_decompose(other, surface),
                     lambda: gamma_step(other, surface, 1, ()),
                     lambda: verify_decomposition(other, surface, dec,
                                                  [density])):
            with pytest.raises(ValidationError, match="own model"):
                call()
        reloaded = model_from_dict(model_to_dict(m))
        assert reloaded == m and reloaded is not m
        assert bits(check_ratio_bound(reloaded, surface)) \
            == bits(check_ratio_bound(m, surface))
        assert bits(optional_decompose(reloaded, surface)) == bits(dec)
        assert verify_decomposition(reloaded, surface, dec, [density]).passed

    @staticmethod
    def count_exp(monkeypatch):
        """Lattice.exp calls per level, counted from now on."""
        built = collections.Counter()
        exp = Lattice.exp

        def counting_exp(self, n):
            built[n] += 1
            return exp(self, n)

        monkeypatch.setattr(Lattice, "exp", counting_exp)
        return built

    def test_delta_built_once_per_model(self, monkeypatch):
        # the benchmark's chain: densities verified, then the ratio bound,
        # the decomposition and its check against those densities; each
        # density builds its own e^{sigma eps} grid, and the model one for
        # dS and the prices
        built = self.count_exp(monkeypatch)
        m = random_model(4, n_max=3)
        densities = [mixture_density(m, random_alpha(m, s)) for s in range(2)]
        densities.append(SpotMeasure(m, next(all_selections(m))).as_density())
        for q in densities:
            assert verify_martingale(m, q).passed
        surface = min_surface(m)
        assert check_ratio_bound(m, surface).passed
        dec = optional_decompose(m, surface)
        assert verify_decomposition(m, surface, dec, densities).passed
        assert check_ratio_bound(m, min_surface(m, 0.8 * m.s0)).passed
        assert built == {n: 1 + len(densities) for n in range(m.n_steps)}

    def test_two_family_chains_take_three_grids_per_level(self, monkeypatch):
        m = random_model(13, n_max=4)
        assert m.n_steps == 4
        surfaces = [wealth_surface(m, seed) for seed in range(2)]
        built = self.count_exp(monkeypatch)
        for seed, surface in enumerate(surfaces):
            density = mixture_density(m, random_alpha(m, seed))
            assert verify_martingale(m, density).passed
            for payoff in (Payoff.call(m.s0), Payoff.asian_call(m.s0)):
                measure_expectation(m, density, payoff)
            check_ratio_bound(m, surface)
            dec = optional_decompose(m, surface)
            verify_decomposition(m, surface, dec, [density], 1e-6)
        assert built == {n: 3 for n in range(m.n_steps)}


class TestRowBlocks:
    def test_small_blocks_change_nothing(self, monkeypatch):
        """Every family output, with the levels worked through in blocks of
        3 prefixes, is bit for bit the one-block result."""
        def outputs(m):
            density = mixture_density(m, random_alpha(m, 5))
            spot = SpotMeasure(m, next(all_selections(m))).as_density()
            out = [density.psi, density._residual_maxima,
                   verify_martingale(m, density, 1e-30), spot.psi,
                   measure_expectation(m, density, Payoff.asian_call(m.s0))]
            for surface in (wealth_surface(m, 3), min_surface(m)):
                out.append(check_ratio_bound(m, surface, 1e-30))
                dec = optional_decompose(m, surface)
                out += [dec, verify_decomposition(m, surface, dec,
                                                  [density, spot], 1e-6),
                        verify_decomposition(m, surface, dec, [], 1e-30),
                        gamma_step(m, surface, m.n_steps,
                                   (1,) * (m.n_steps - 1))]
            return bits(out)

        models = [random_model(seed, n_max=4, include_zero=seed % 2 == 1)
                  for seed in range(12)]
        models = [m for m in models if m.n_steps >= 2]
        assert len(models) >= 6
        one_block = [outputs(dataclasses.replace(m)) for m in models]
        monkeypatch.setattr(_engine, "CHUNK_LEAVES", 3)
        assert [outputs(dataclasses.replace(m)) for m in models] == one_block


class TestReadOnlyLevels:
    def test_from_values_keeps_read_only_views(self):
        m = random_model(4, n_max=3)
        raw = [level.copy() for level in min_surface(m).values]
        surface = SupermartingaleSurface.from_values(m, raw)
        for mine, kept in zip(raw, surface.values):
            assert mine.flags.writeable and not kept.flags.writeable
            assert np.shares_memory(mine, kept)
        shifted = SupermartingaleSurface.from_values(
            m, [level - m.s0 for level in raw])
        assert shifted.shift > 0
        assert not any(v.flags.writeable for v in shifted.values)

    def test_gamma_and_xi0_read_only_and_shared(self):
        m = random_model(4, n_max=3)
        surface = min_surface(m)
        first, second = (optional_decompose(m, surface) for _ in range(2))
        for a, b in zip(first.gamma + first.xi0, second.gamma + second.xi0):
            assert a is b and not a.flags.writeable


class TestOverflowingExponential:
    # one step with e^{40 * 20} = e^{800}, which overflows
    MODEL = EvolutionModel(100.0, (StepSpec(
        0.5, (ShockAtom(-0.7, 0.5), ShockAtom(20.0, 0.5)),
        VolatilitySpec.constant(40.0)),))

    def test_surface_from_prices_rejected(self):
        with pytest.raises(ValidationError, match="overflows at step 1"):
            SupermartingaleSurface.from_price_function(
                self.MODEL, lambda prices: prices[-1])

    def test_ratio_bound_and_decomposition_rejected(self):
        m = self.MODEL
        surface = SupermartingaleSurface.from_values(m, [[5.0], [5.0, 5.0]])
        for check in (check_ratio_bound, optional_decompose):
            with pytest.raises(ValidationError, match="overflows at step 1"):
                check(m, surface)
        with pytest.raises(ValidationError, match="overflows at step 1"):
            gamma_step(m, surface, 1, ())

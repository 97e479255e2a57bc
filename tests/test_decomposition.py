import math

import numpy as np
import pytest

from superhedge import (Decomposition, EvolutionModel, ShockAtom, StepSpec,
                        SupermartingaleSurface, ValidationError,
                        VolatilitySpec, check_ratio_bound, gamma_step,
                        mixture_density, optional_decompose, random_alpha,
                        verify_decomposition)
from superhedge import _engine
from superhedge.decomposition import surface_from_nodes
from superhedge.measures import Lattice, SpotMeasure, all_selections

from _corpus import (chain_model, random_model, two_point_model,
                     wealth_surface)

LN2 = math.log(2.0)


def min_surface(model, cap=None):
    cap = cap if cap is not None else 0.9 * model.s0
    return SupermartingaleSurface.from_price_function(
        model, lambda prices: min(prices[-1], cap))


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
            deltas = [lattice.delta(n) for n in range(m.n_steps)]
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
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        nan_surface = SupermartingaleSurface(
            m, (np.array([5.0]), np.array([math.nan, 4.0])), 4.0)
        rep = check_ratio_bound(m, nan_surface)
        assert math.isnan(rep.max_scaled_excess) and not rep.passed
        assert rep.failures
        with pytest.raises(ValidationError, match="ratio bound"):
            optional_decompose(m, nan_surface)
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

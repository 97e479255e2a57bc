"""The batched tree engine against the per-leaf oracle, bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest

from superhedge import (EvolutionModel, Payoff, SearchConfig, ShockAtom,
                        SpotMeasure, StepSpec, VolatilitySpec,
                        brute_sup_selections, spot_expectation,
                        superhedge_sup)
from superhedge import _engine, measures, oracle, pricing
from superhedge.measures import all_selections, spot_tree_value
from superhedge.model import enumerate_paths

from _corpus import random_model

ALL_VOLS = ("constant", "arch1", "garch11")
SEED_TWO_DOWNS = 15     # random_model(15) has two down atoms at step 1


def payoffs_for(m, table=True):
    """Every payoff kind, a non-convex piecewise payoff, a plain callable
    and a path table."""
    s0 = m.s0
    out = (Payoff.constant(2.5), Payoff.call(s0), Payoff.put(1.2 * s0),
           Payoff.asian_call(0.9 * s0), Payoff.asian_put(1.1 * s0),
           Payoff.piecewise_linear([(0.0, 0.3 * s0), (0.5 * s0, 0.1 * s0),
                                    (s0, 0.2 * s0)], 1.0),
           lambda prices: max(prices) - min(prices))
    if table:
        out += (Payoff.path_table({
            idx.atoms: max(max(path.price_seq) - s0, 0.0)
            for idx, path in enumerate_paths(m)}),)
    return out


def oracle_value(m, sel, payoff):
    return oracle._selection_value(m, sel.pairs, oracle._payoff_fn(payoff))


def constant_chain(s0, a_list, sigma, eps_dn, eps_up):
    return EvolutionModel(s0, tuple(
        StepSpec(a, (ShockAtom(eps_dn, 0.5), ShockAtom(eps_up, 0.5)),
                 VolatilitySpec.constant(sigma)) for a in a_list))


def arch_chain(n):
    return EvolutionModel(100.0, tuple(
        StepSpec(0.3 + 0.02 * i, (ShockAtom(-0.4, 0.5), ShockAtom(0.3, 0.5)),
                 VolatilitySpec.arch1(0.04, 0.3, 0.05)) for i in range(n)))


def walk_drift(m, sel):
    """max_node_drift by a depth-first scalar walk over every node."""
    eps_dn, eps_up = measures._selection_eps(m, sel)
    worst = 0.0

    def rec(level, price, sigma_prev, eps_prev):
        nonlocal worst
        if level == m.n_steps:
            return
        vol = m.steps[level].vol
        sigma = (vol.initial_sigma() if level == 0 else
                 vol.next_sigma(sigma_prev, eps_prev))
        ed = math.exp(sigma * eps_dn[level])
        eu = math.exp(sigma * eps_up[level])
        psi_d = (eu - 1.0) / (eu - ed)
        psi_u = (1.0 - ed) / (eu - ed)
        a = m.steps[level].a
        drift = psi_d * (price * a * (ed - 1.0)) \
            + psi_u * (price * a * (eu - 1.0))
        worst = max(worst, abs(drift) / price)
        rec(level + 1, price * (1.0 + a * (ed - 1.0)), sigma, eps_dn[level])
        rec(level + 1, price * (1.0 + a * (eu - 1.0)), sigma, eps_up[level])

    rec(0, m.s0, 0.0, 0.0)
    return worst


def outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


class TestEngineAgainstOracle:
    def test_every_selection_and_payoff(self):
        for seed in range(40):
            m = random_model(seed, vol_kinds=ALL_VOLS)
            sels = list(all_selections(m))[:12]
            for payoff in payoffs_for(m):
                for sel in sels:
                    assert spot_expectation(m, sel, payoff) \
                        == oracle_value(m, sel, payoff)

    def test_exhaustive_sup(self):
        config = SearchConfig()
        for seed in range(40):
            m = random_model(seed + 300, vol_kinds=ALL_VOLS)
            for payoff in payoffs_for(m):
                value, sel = brute_sup_selections(m, payoff)
                res = superhedge_sup(m, payoff, config)
                assert res.value == value
                assert res.selection.pairs == sel.pairs

    def test_first_selection_wins_ties(self):
        m = random_model(11, vol_kinds=ALL_VOLS)
        zero = Payoff.path_table({idx.atoms: 0.0
                                  for idx, _ in enumerate_paths(m)})
        res = superhedge_sup(m, zero, SearchConfig())
        first = next(all_selections(m))
        assert res.value == 0.0 and res.selection.pairs == first.pairs
        assert brute_sup_selections(m, zero)[1].pairs == first.pairs

    def test_nan_never_wins(self):
        # every tree through the first down atom of step 1 is NaN
        m = random_model(SEED_TWO_DOWNS, vol_kinds=ALL_VOLS)
        first_down = m.strict_down_indices(1)[0]
        table = Payoff.path_table({
            idx.atoms: math.nan if idx.atoms[0] == first_down
            else path.price_seq[-1] for idx, path in enumerate_paths(m)})
        value, sel = brute_sup_selections(m, table)
        res = superhedge_sup(m, table, SearchConfig())
        assert res.value == value and res.selection.pairs == sel.pairs
        assert not math.isnan(value)

    def test_grid_scan_on_grid_atoms(self):
        # a model whose shock atoms are the grid points: the grid scan and
        # the exhaustive scan cover the same trees, so their maxima agree
        config = SearchConfig(mode="grid", grid_points=9)
        lo, hi = config.eps_range
        pts = [float(x) for x in np.linspace(lo, hi, config.grid_points)
               if x != 0.0]
        atoms = tuple(ShockAtom(e, 1.0 / len(pts)) for e in pts)
        for a_list in ((0.4,), (0.3, 0.7)):
            m = EvolutionModel(100.0, tuple(
                StepSpec(a, atoms, VolatilitySpec.constant(0.11))
                for a in a_list))
            for payoff in (Payoff.call(90.0), Payoff.asian_put(105.0)):
                grid = superhedge_sup(m, payoff, config)
                value, _ = brute_sup_selections(m, payoff)
                assert grid.value == value
                dn = [p[0] for p in grid.eps_pairs]
                up = [p[1] for p in grid.eps_pairs]
                assert spot_tree_value(m, dn, up, payoff) == value


class TestChunking:
    def test_small_chunks_change_nothing(self, monkeypatch):
        m = random_model(3, n_max=4, vol_kinds=("garch11",))
        while m.n_steps < 3:
            m = random_model(m.n_steps * 7 + 1, n_max=4,
                             vol_kinds=("garch11",))
        atoms_dn, atoms_up, dn, up = measures._atom_candidates(m)
        payoffs = (Payoff.asian_call(m.s0), payoffs_for(m)[-1])
        whole = [list(_engine.scan_values(m, dn, up, p, atoms_dn, atoms_up))
                 for p in payoffs]
        for chunk in (1, 4, 2 ** m.n_steps, 3 * 2 ** m.n_steps):
            monkeypatch.setattr(_engine, "CHUNK_LEAVES", chunk)
            for p, ref in zip(payoffs, whole):
                got = list(_engine.scan_values(m, dn, up, p, atoms_dn,
                                               atoms_up))
                assert np.array_equal(np.concatenate(got),
                                      np.concatenate(ref))

    def test_small_chunks_split_deep_trees(self, monkeypatch):
        m = random_model(3, n_max=5, vol_kinds=("arch1",))
        while m.n_steps < 4:
            m = random_model(m.n_steps * 7 + 1, n_max=5,
                             vol_kinds=("arch1",))
        sels = list(all_selections(m))[:6]
        payoffs = (Payoff.asian_call(m.s0), payoffs_for(m)[-2],
                   payoffs_for(m)[-1])

        def results():
            return ([spot_expectation(m, s, p) for s in sels
                     for p in payoffs],
                    [SpotMeasure(m, s).max_node_drift() for s in sels])

        whole = results()
        for chunk in (1, 2, 4, 2 ** m.n_steps - 1):
            monkeypatch.setattr(_engine, "CHUNK_LEAVES", chunk)
            assert results() == whole


class TestDrift:
    def test_matches_depth_first_walk(self):
        for seed in range(20):
            m = random_model(seed, vol_kinds=ALL_VOLS)
            for sel in list(all_selections(m))[:12]:
                assert SpotMeasure(m, sel).max_node_drift() \
                    == walk_drift(m, sel)

    def test_failures_match_depth_first_walk(self):
        cases = {
            # e^{-800} underflows to 0: with a = 1 the down child's price
            # is exactly 0
            ZeroDivisionError: EvolutionModel(100.0, (
                StepSpec(1.0, (ShockAtom(-8.0, 0.5), ShockAtom(1.0, 0.5)),
                         VolatilitySpec.constant(100.0)),) * 2),
            # e^{800} overflows at the root
            OverflowError: constant_chain(100.0, [0.5], 100.0, -0.7, 8.0),
        }
        for exc, m in cases.items():
            sel = next(all_selections(m))
            assert outcome(walk_drift, m, sel) is exc
            with pytest.raises(exc):
                SpotMeasure(m, sel).max_node_drift()

    def test_first_failure_in_walk_order_wins(self):
        # the up child of the root overflows (sigma = 1001); the down
        # child's down child, earlier in a depth-first walk but one level
        # deeper, has price 0 (sigma = 50.2, e^{-1004} = 0, a = 1)
        m = EvolutionModel(100.0, (
            StepSpec(0.5, (ShockAtom(-0.5, 0.5), ShockAtom(100.0, 0.5)),
                     VolatilitySpec.arch1(1.0, 0.1, 0.0)),
            StepSpec(1.0, (ShockAtom(-20.0, 0.5), ShockAtom(1.0, 0.5)),
                     VolatilitySpec.arch1(2500.0, 100.0, 0.0)),
            StepSpec(0.5, (ShockAtom(-0.5, 0.5), ShockAtom(0.5, 0.5)),
                     VolatilitySpec.constant(1.0))))
        sel = next(all_selections(m))
        assert outcome(walk_drift, m, sel) is ZeroDivisionError
        with pytest.raises(ZeroDivisionError):
            SpotMeasure(m, sel).max_node_drift()


class TestDeepTrees:
    """Trees with more than CHUNK_LEAVES leaves are split into subtrees."""

    def test_matches_oracle(self):
        m = arch_chain(16)
        assert 2 ** m.n_steps > _engine.CHUNK_LEAVES
        sel = next(all_selections(m))
        spread = payoffs_for(m, table=False)[-1]
        assert spot_expectation(m, sel, spread) \
            == oracle_value(m, sel, spread)
        call = Payoff.asian_call(m.s0)
        assert spot_expectation(m, sel, call) \
            == spot_expectation(m, sel, lambda prices: call.value(prices))
        assert SpotMeasure(m, sel).max_node_drift() == walk_drift(m, sel)

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_stays_flat(self, monkeypatch):
        # 2 and 16 subtrees of CHUNK_LEAVES leaves: a tree held whole would
        # need 8 times the memory
        bits = _engine.CHUNK_LEAVES.bit_length() - 1
        spread = payoffs_for(arch_chain(1), table=False)[-1]
        cases = [lambda m, s: spot_expectation(m, s, Payoff.call(m.s0)),
                 lambda m, s: SpotMeasure(m, s).max_node_drift(),
                 lambda m, s: spot_expectation(m, s, spread)]
        for i, evaluate in enumerate(cases):
            if i == 2:
                # a callable runs once per leaf and tracemalloc slows each
                # call down: use smaller subtrees
                bits = 10
                monkeypatch.setattr(_engine, "CHUNK_LEAVES", 1 << bits)
            peaks = []
            for n in (bits + 1, bits + 4):
                m = arch_chain(n)
                sel = next(all_selections(m))
                peaks.append(self._peak(lambda: evaluate(m, sel)))
            assert peaks[1] < 1.5 * peaks[0]


class TestAscent:
    def test_batched_sweeps_match_trial_by_trial(self):
        config = SearchConfig(mode="coordinate_ascent", grid_points=9)
        for seed, n in ((1, 2), (2, 3), (3, 3)):
            m = constant_chain(100.0, [0.3 + 0.2 * i for i in range(n)],
                               2.0 + 0.3 * seed, -0.7, 0.7)
            dn, up = pricing._grid_candidates(m, config)
            for payoff in (Payoff.call(80.0), Payoff.asian_put(110.0)):
                assert pricing._ascent(m, payoff, dn, up, config) \
                    == self._trial_by_trial(m, payoff, dn, up, config)

    @staticmethod
    def _trial_by_trial(m, payoff, dn, up, config):
        n = m.n_steps
        state = [(0, 0)] * n

        def value(pairs):
            return spot_tree_value(m, [dn[s][pairs[s][0]] for s in range(n)],
                                   [up[s][pairs[s][1]] for s in range(n)],
                                   payoff)

        best = value(state)
        for _ in range(config.max_rounds):
            start = best
            for st in range(n):
                for i in range(len(dn[st])):
                    for j in range(len(up[st])):
                        trial = list(state)
                        trial[st] = (i, j)
                        v = value(trial)
                        if v > best:
                            best, state = v, trial
            if best - start <= config.tol:
                break
        return best, state


class TestSaturation:
    """When e^{sigma*eps_up} exceeds double range the engine uses the exact
    limit weights (1, 0): all mass flows down, nothing overflows."""

    # sigma * eps_up = 800 saturates at every level
    SAT = constant_chain(100.0, [0.9] * 2, 100.0, -7.5, 8.0)
    # GARCH blow-up with huge but finite weights
    BIG = EvolutionModel(100.0, tuple(
        StepSpec(0.9, (ShockAtom(-7.5, 0.5), ShockAtom(8.0, 0.5)),
                 VolatilitySpec.garch11(0.09, 0.9, 0.4, 0.05))
        for _ in range(3)))

    def test_limit_value_is_all_down_path(self):
        value = spot_tree_value(self.SAT, [-7.5] * 2, [8.0] * 2,
                                Payoff.put(150.0))
        # e^{-750} underflows to 0, so each down factor is exactly 1 - a
        assert value == pytest.approx(150.0 - 100.0 * 0.1 ** 2, rel=1e-12)

    def test_extremes_match_oracle(self):
        for m in (self.SAT, self.BIG):
            sel = next(all_selections(m))
            for payoff in (Payoff.call(95.0), Payoff.put(150.0),
                           Payoff.asian_put(120.0)):
                v = spot_expectation(m, sel, payoff)
                assert v == oracle_value(m, sel, payoff) and math.isfinite(v)

    def test_degenerate_weights_raise_like_the_oracle(self):
        # e^{sigma*eps} rounds to 1 on both branches: 0 / 0 weights
        m = constant_chain(100.0, [0.5, 0.5], 1e-300, -0.7, 0.7)
        sel = next(all_selections(m))
        with pytest.raises(ZeroDivisionError):
            oracle_value(m, sel, Payoff.call(90.0))
        with pytest.raises(ZeroDivisionError):
            spot_expectation(m, sel, Payoff.call(90.0))

    @pytest.mark.parametrize("sigma", [40.0, 100.0, 1e308])
    def test_saturating_sigma(self, sigma):
        # sigma * eps_up >= 800: every up exponential saturates
        m = constant_chain(100.0, [0.5, 0.8], sigma, -0.7, 20.0)
        for payoff in payoffs_for(m, table=False):
            for sel in all_selections(m):
                v = spot_expectation(m, sel, payoff)
                assert not math.isnan(v)
                assert v == oracle_value(m, sel, payoff)
            value, best = brute_sup_selections(m, payoff)
            res = superhedge_sup(m, payoff, SearchConfig())
            assert (res.value, res.selection.pairs) == (value, best.pairs)
        if sigma == 1e308:
            # every up weight is exactly 0: the all-down path carries all mass
            assert spot_expectation(m, next(all_selections(m)),
                                    Payoff.put(150.0)) \
                == 150.0 - 100.0 * (1.0 - 0.5) * (1.0 - 0.8)


class TestPayoffEvaluation:
    PWL = Payoff.piecewise_linear([(0.0, 10.0), (50.0, 0.0), (100.0, 30.0)],
                                  2.0)

    def test_pwl_interpolation(self):
        val = self.PWL.terminal_value(75.0)
        assert val == pytest.approx(15.0, rel=1e-15)
        # beyond the last knot the tail slope applies
        val = self.PWL.terminal_value(110.0)
        assert val == pytest.approx(50.0, rel=1e-15)

    def test_payoff_object_matches_formulas(self):
        prices = (100.0, 80.0, 130.0)
        path_sum = 0.0
        for p in prices:
            path_sum += p
        mean = path_sum / 3.0
        for payoff, direct in ((Payoff.call(90.0), max(130.0 - 90.0, 0.0)),
                               (Payoff.put(90.0), max(90.0 - 130.0, 0.0)),
                               (Payoff.asian_call(95.0), max(mean - 95.0, 0.0)),
                               (Payoff.asian_put(110.0),
                                max(110.0 - mean, 0.0)),
                               (Payoff.constant(2.0), 2.0)):
            assert payoff.value(prices) == direct

    def test_coded_values_match_scalar(self):
        # paths of 3 steps: 4 prices
        x = np.array([0.0, 10.0, 49.9, 50.0, 75.0, 100.0, 130.0, math.inf])
        psum = 3.0 * x + 1.0
        payoffs = [Payoff(kind, strike=60.0, const_value=60.0)
                   for kind in ("const", "call", "put", "asian_call",
                                "asian_put")]
        payoffs.append(self.PWL)
        with np.errstate(all="ignore"):
            for payoff in payoffs:
                got = payoff.values(x, psum, 3)
                want = [payoff._formula(float(v), float(s), 4.0)
                        for v, s in zip(x, psum)]
                assert np.array_equal(got, want, equal_nan=True)

    def test_encoded_payoff_matches_callable(self):
        # one traversal order: coded payoffs and callables agree bitwise
        for seed in range(30):
            m = random_model(seed, vol_kinds=ALL_VOLS)
            sel = next(all_selections(m))
            payoff = Payoff.call(m.s0)
            assert spot_expectation(m, sel, payoff) == spot_expectation(
                m, sel, lambda prices: payoff.value(prices))

import pytest

from superhedge import (CapExceededError, OracleBudget, Payoff, SearchConfig,
                        brute_expectation, brute_sup_selections,
                        measure_expectation, mixture_density, random_alpha,
                        superhedge_sup)
from superhedge.measures import validate_alpha

from _corpus import chain_model, payoff_menu, random_model, two_point_model


class TestBruteExpectation:
    def test_normalization_and_martingale(self):
        m = random_model(0)
        density = mixture_density(m, random_alpha(m, 0))
        assert brute_expectation(m, density, Payoff.constant(1.0)) \
            == pytest.approx(1.0, abs=1e-12)
        sn = Payoff.piecewise_linear([(0.0, 0.0)], 1.0)
        assert brute_expectation(m, density, sn) \
            == pytest.approx(m.s0, rel=1e-12)

    def test_agrees_with_measure_expectation(self):
        # 170 models x 6 payoffs: the 1,000-triple agreement corpus
        for seed in range(170):
            m = random_model(seed)
            density = mixture_density(m, random_alpha(m, seed + 1))
            for payoff in payoff_menu(m):
                slow = brute_expectation(m, density, payoff)
                fast = measure_expectation(m, density, payoff)
                assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_budget(self):
        m = random_model(0)
        density = mixture_density(m, random_alpha(m, 0))
        with pytest.raises(CapExceededError):
            brute_expectation(m, density, Payoff.constant(1.0),
                              OracleBudget(max_paths=1))


class TestBruteSup:
    def test_equals_discrete_exhaustive_bitwise(self):
        config = SearchConfig(mode="discrete_exhaustive")
        for seed in range(170):
            m = random_model(seed)
            for payoff in payoff_menu(m):
                bv, bsel = brute_sup_selections(m, payoff)
                res = superhedge_sup(m, payoff, config)
                assert res.value == bv
                assert res.selection.pairs == bsel.pairs

    def test_hand_ranked_two_selection_model(self):
        # one step, one down and two up atoms: the larger up shock wins
        # for a call struck above the smaller up terminal price
        from superhedge import EvolutionModel, ShockAtom, StepSpec, \
            VolatilitySpec
        m = EvolutionModel(100.0, (StepSpec(
            1.0, (ShockAtom(-0.7, 0.4), ShockAtom(0.2, 0.3),
                  ShockAtom(0.9, 0.3)), VolatilitySpec.constant(1.0)),))
        value, sel = brute_sup_selections(m, Payoff.call(130.0))
        assert sel.pairs == ((0, 2),)
        low, _ = brute_sup_selections(m, Payoff.call(1e9))
        assert low == 0.0

    def test_tie_break_to_smallest_selection(self):
        m = random_model(11)
        value, sel = brute_sup_selections(m, Payoff.constant(2.0))
        assert value == pytest.approx(2.0, abs=1e-12)
        first = tuple((m.strict_down_indices(n)[0], m.up_indices(n)[0])
                      for n in range(1, m.n_steps + 1))
        assert sel.pairs == first

    def test_budget(self):
        m = chain_model(100.0, (0.5,) * 24, 1.0, 0.7)
        with pytest.raises(CapExceededError):
            brute_sup_selections(m, Payoff.call(1.0))
        with pytest.raises(CapExceededError):
            brute_sup_selections(random_model(1), Payoff.call(1.0),
                                 OracleBudget(max_selections=1))


class TestRandomAlpha:
    def test_deterministic_and_valid(self):
        for seed in range(20):
            m = random_model(seed)
            a1 = random_alpha(m, seed)
            a2 = random_alpha(m, seed)
            for s1, s2 in zip(a1.steps, a2.steps):
                assert (s1.weights == s2.weights).all()
            validate_alpha(m, a1)

    def test_two_point_forced_value(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7, p_down=0.3)
        alpha = random_alpha(m, 123)
        assert alpha.steps[0].weights[0, 0] \
            == pytest.approx(1.0 / (0.3 * 0.7), rel=1e-12)

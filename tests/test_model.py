import math

import numpy as np
import pytest

from superhedge import (CapExceededError, EvolutionModel, PathIndex,
                        ShockAtom, StepSpec, ValidationError, VolatilitySpec,
                        delta_split, enumerate_paths, model_from_dict,
                        model_to_dict, price_path, sigma_at, simulate,
                        validate_model)

from _corpus import random_model, two_point_model

LN2 = math.log(2.0)


def step(a=0.5, shocks=((-0.7, 0.5), (0.7, 0.5)), sigma=1.0):
    return StepSpec(a, tuple(ShockAtom(e, p) for e, p in shocks),
                    VolatilitySpec.constant(sigma))


class TestValidation:
    def test_valid_one_step(self):
        m = EvolutionModel(100.0, (step(),))
        assert validate_model(m) == []

    def test_only_positive_shocks(self):
        m = EvolutionModel(100.0, (step(shocks=((0.3, 0.5), (0.7, 0.5))),))
        assert "no negative shock at step 1" in validate_model(m)

    def test_exposure_out_of_range(self):
        m = EvolutionModel(100.0, (step(a=1.2),))
        assert "a out of (0,1] at step 1" in validate_model(m)

    def test_bad_probabilities(self):
        m = EvolutionModel(100.0, (step(shocks=((-0.7, 0.5), (0.7, 0.6))),))
        assert any("probabilities" in v for v in validate_model(m))

    def test_non_finite_values_rejected(self):
        inf, nan = math.inf, math.nan
        assert "s0 not finite" in validate_model(
            EvolutionModel(inf, (step(),)))
        assert "a not finite at step 1" in validate_model(
            EvolutionModel(1.0, (step(a=nan),)))
        assert "sigma not finite at step 1" in validate_model(
            EvolutionModel(1.0, (step(sigma=inf),)))
        assert "atom probability not finite at step 1" in validate_model(
            EvolutionModel(1.0, (step(shocks=((-0.7, inf), (0.7, 0.5))),)))
        for vol, bad in ((VolatilitySpec.arch1(nan, 0.1, 0.05), "omega0"),
                         (VolatilitySpec.arch1(0.04, nan, 0.05), "alpha1"),
                         (VolatilitySpec.garch11(0.04, 0.1, inf, 0.05),
                          "beta1"),
                         (VolatilitySpec.garch11(0.04, 0.1, 0.2, inf),
                          "floor")):
            m = EvolutionModel(1.0, (StepSpec(
                0.5, (ShockAtom(-0.7, 0.5), ShockAtom(0.7, 0.5)), vol),))
            assert f"{bad} not finite at step 1" in validate_model(m)

    def test_classification(self):
        assert EvolutionModel(1.0, (step(a=0.5),)).classification == "stable"
        assert EvolutionModel(1.0, (step(a=1.0),)).classification == "unstable"


class TestSigma:
    def test_constant_ignores_history(self):
        m = EvolutionModel(100.0, (step(sigma=0.3), step(sigma=0.3)))
        assert sigma_at(m, 2, (0.9,)) == 0.3

    def test_arch1_at_empty_history(self):
        vol = VolatilitySpec.arch1(0.04, 0.5, 0.1)
        m = EvolutionModel(100.0, (StepSpec(0.5, step().shocks, vol),))
        assert sigma_at(m, 1, ()) == pytest.approx(0.2, abs=0)

    def test_floor_clamp(self):
        # recursion value sqrt(0.0001 + ...) is far below the floor
        vol = VolatilitySpec.garch11(0.0001, 0.01, 0.01, 0.5)
        m = EvolutionModel(100.0, (StepSpec(0.5, step().shocks, vol),) * 2)
        assert sigma_at(m, 2, (0.1,)) == 0.5

    @pytest.mark.parametrize("vol", [
        VolatilitySpec.arch1(0.0625, 0.75, 0.5),
        VolatilitySpec.garch11(0.0625, 0.75, 0.0, 0.5)])
    def test_elementwise_clamp_matches_scalar(self, vol):
        # sqrt(0.0625 + 0.75 x^2) is below the floor 0.5 for |x| < 0.5,
        # exactly 0.5 at |x| = 0.5, and NaN stays NaN
        prev = np.array([1.0] * 9 + [math.nan])
        eps = np.array([math.nan, 0.0, -0.0, 0.1, -0.3, 0.5, -0.5, 2.0,
                        math.inf, 0.5])
        got = vol.next_sigmas(prev, prev * eps)
        want = [vol.next_sigma(p, e) for p, e in zip(prev, eps)]
        np.testing.assert_array_equal(got, want)
        assert list(np.isnan(got)) == [True] + [False] * 8 + [True]
        assert list(got[1:7]) == [0.5] * 6

    def test_arch1_recursion(self):
        vol = VolatilitySpec.arch1(0.04, 0.5, 0.01)
        m = EvolutionModel(100.0, (StepSpec(0.5, step().shocks, vol),) * 2)
        s1 = 0.2
        expected = math.sqrt(0.04 + 0.5 * (s1 * 0.7) ** 2)
        assert sigma_at(m, 2, (0.7,)) == pytest.approx(expected, rel=1e-15)

    def test_index_out_of_range(self):
        m = EvolutionModel(100.0, (step(),))
        with pytest.raises(ValidationError):
            sigma_at(m, 2, (0.1,))
        with pytest.raises(ValidationError):
            sigma_at(m, 1, (0.1,))


class TestPricePath:
    def test_full_exposure_doubles(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        path = price_path(m, PathIndex((1,)))
        assert path.price_seq == (100.0, pytest.approx(200.0, rel=1e-15))

    def test_half_exposure_down(self):
        m = two_point_model(100.0, 0.5, 1.0, LN2)
        path = price_path(m, PathIndex((0,)))
        assert path.price_seq[1] == pytest.approx(75.0, rel=1e-15)

    def test_zero_shock_keeps_price(self):
        shocks = ((-0.7, 0.4), (0.0, 0.2), (0.7, 0.4))
        m = EvolutionModel(100.0, (step(shocks=shocks), step(shocks=shocks)))
        path = price_path(m, PathIndex((1, 1)))
        assert path.price_seq == (100.0, 100.0, 100.0)

    def test_positive_prices_on_stable_models(self):
        for seed in range(30):
            m = random_model(seed)
            for _, path in enumerate_paths(m):
                assert all(p > 0 for p in path.price_seq)

    def test_delta_split_examples(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        d, dm, dp = delta_split(m, (), m.steps[0].shocks[0])
        assert (d, dm, dp) == (pytest.approx(-50.0), pytest.approx(50.0), 0.0)
        d, dm, dp = delta_split(m, (), m.steps[0].shocks[1])
        assert (d, dm, dp) == (pytest.approx(100.0), 0.0, pytest.approx(100.0))

    def test_delta_split_zero_atom(self):
        shocks = ((-0.7, 0.4), (0.0, 0.2), (0.7, 0.4))
        m = EvolutionModel(100.0, (step(shocks=shocks),))
        assert delta_split(m, (), ShockAtom(0.0, 0.2)) == (0.0, 0.0, 0.0)
        assert 1 in m.down_indices(1)
        assert 1 not in m.strict_down_indices(1)

    def test_delta_reconstruction(self):
        for seed in range(20):
            m = random_model(seed)
            for atom in m.steps[0].shocks:
                d, dm, dp = delta_split(m, (), atom)
                assert d == dp - dm


class TestEnumerate:
    def test_counts(self):
        m = EvolutionModel(100.0, (step(), step()))
        assert len(list(enumerate_paths(m))) == 4
        shocks3 = ((-0.7, 0.3), (0.3, 0.3), (0.9, 0.4))
        m3 = EvolutionModel(100.0, tuple(step(shocks=shocks3)
                                         for _ in range(3)))
        paths = list(enumerate_paths(m3))
        assert len(paths) == 27
        for idx, path in paths:
            prob = 1.0
            for n, j in enumerate(idx.atoms):
                prob *= m3.steps[n].shocks[j].prob
            assert path.base_prob == prob

    def test_probabilities_sum_to_one(self):
        for seed in range(25):
            m = random_model(seed)
            total = sum(p.base_prob for _, p in enumerate_paths(m))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        m = EvolutionModel(100.0, (step(),) * 4)
        with pytest.raises(CapExceededError):
            list(enumerate_paths(m, cap=15))


class TestSimulate:
    def test_empty_and_deterministic(self):
        m = random_model(3)
        assert simulate(m, 0, 7) == []
        assert simulate(m, 25, 7) == simulate(m, 25, 7)
        assert simulate(m, 25, 7) != simulate(m, 25, 8)

    def test_frequencies_within_three_sigma(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7, p_down=0.35)
        count = 20000
        paths = simulate(m, count, 123)
        downs = sum(1 for p in paths if p.eps_seq[0] < 0)
        sd = math.sqrt(0.35 * 0.65 / count)
        assert abs(downs / count - 0.35) < 3 * sd


class TestModelFile:
    def doc(self):
        return {"s0": 100.0,
                "steps": [{"a": 0.5,
                           "vol": {"kind": "constant", "sigma": 1.0},
                           "shocks": [{"eps": -0.7, "prob": 0.5},
                                      {"eps": 0.7, "prob": 0.5}]}]}

    def test_round_trip(self):
        m = model_from_dict(self.doc())
        assert model_from_dict(model_to_dict(m)) == m

    def test_unknown_fields_rejected(self):
        doc = self.doc()
        doc["note"] = "hi"
        with pytest.raises(ValidationError):
            model_from_dict(doc)
        doc = self.doc()
        doc["steps"][0]["vol"]["beta1"] = 0.1
        with pytest.raises(ValidationError):
            model_from_dict(doc)

    def test_renormalization_window(self):
        doc = self.doc()
        doc["steps"][0]["shocks"][0]["prob"] = 0.5 + 4e-10
        m = model_from_dict(doc)
        total = sum(at.prob for at in m.steps[0].shocks)
        assert abs(total - 1.0) <= 1e-12

    def test_bad_probability_sum_rejected(self):
        doc = self.doc()
        doc["steps"][0]["shocks"][0]["prob"] = 0.51
        with pytest.raises(ValidationError):
            model_from_dict(doc)

    def test_pricing_only(self):
        doc = {"s0": 100.0, "pricing_only": True,
               "steps": [{"a": 0.0,
                          "vol": {"kind": "constant", "sigma": 1.0},
                          "shocks": []}]}
        m = model_from_dict(doc)
        assert m.pricing_only and validate_model(m) == []

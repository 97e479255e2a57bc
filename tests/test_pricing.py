import math

import numpy as np
import pytest

from superhedge import (CapExceededError, EvolutionModel, Payoff,
                        SearchConfig, StepSpec, ValidationError,
                        VolatilitySpec, closed_form_asian_call,
                        closed_form_asian_put, closed_form_call,
                        closed_form_put, model_from_dict,
                        non_arbitrage_interval, payoff_bounds_bounded,
                        payoff_bounds_sublinear, spot_expectation,
                        superhedge_inf, superhedge_sup)
from superhedge import _engine, pricing
from superhedge.measures import SELECTION_CAP, all_selections
from superhedge.oracle import brute_sup_selections

from _corpus import chain_model, random_model, two_point_model

LN2 = math.log(2.0)
DISCRETE = SearchConfig(mode="discrete_exhaustive")


class TestClosedForms:
    def test_call_branches(self):
        assert closed_form_call(100.0, (0.5, 0.5), 30.0) == 75.0
        assert closed_form_call(100.0, (0.5, 0.5), 20.0) == 80.0

    def test_call_full_exposure(self):
        assert closed_form_call(100.0, (0.5, 1.0), 30.0) == 100.0
        assert closed_form_put(100.0, (1.0,), 45.0) == 45.0

    def test_put_branches(self):
        assert closed_form_put(100.0, (0.5, 0.5), 50.0) == 25.0
        assert closed_form_put(100.0, (0.5, 0.5), 20.0) == 0.0

    def test_asian_put(self):
        v = closed_form_asian_put(100.0, (0.5, 0.5), 60.0)
        assert v == pytest.approx(60.0 - 175.0 / 3.0, rel=1e-12)
        assert closed_form_asian_put(100.0, (0.5, 0.5), 50.0) == 0.0

    def test_asian_put_vanishing_exposure_limit(self):
        v = closed_form_asian_put(100.0, (1e-14, 1e-14), 120.0)
        assert v == pytest.approx(20.0, rel=1e-9)

    def test_asian_call(self):
        assert closed_form_asian_call(100.0, (0.5, 0.5), 30.0) == 70.0
        v = closed_form_asian_call(100.0, (0.5, 0.5), 70.0)
        assert v == pytest.approx(100.0 * (1.0 - 175.0 / 300.0), rel=1e-12)

    def test_asian_call_small_strike(self):
        assert closed_form_asian_call(100.0, (0.5, 0.5), 1e-9) \
            == pytest.approx(100.0, rel=1e-9)

    def test_put_call_identity_active_branch(self):
        for a_list, k in [((0.5, 0.5), 70.0), ((0.2, 0.6, 0.3), 90.0),
                          ((0.9,), 99.0)]:
            call = closed_form_asian_call(100.0, a_list, k)
            put = closed_form_asian_put(100.0, a_list, k)
            assert call - put == pytest.approx(100.0 - k, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            closed_form_call(-1.0, (0.5,), 10.0)
        with pytest.raises(ValidationError):
            closed_form_call(100.0, (1.5,), 10.0)
        with pytest.raises(ValidationError):
            closed_form_put(100.0, (0.5,), 0.0)


class TestSuperhedgeSup:
    def test_single_selection_call(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        res = superhedge_sup(m, Payoff.call(90.0), DISCRETE)
        assert res.value == pytest.approx(110.0 / 3.0, rel=1e-14)
        assert res.selection.pairs == ((0, 1),)

    def test_constant_payoff_every_mode(self):
        m = chain_model(100.0, (0.5, 0.5), 2.5, 0.7)
        for mode in ("discrete_exhaustive", "grid"):
            res = superhedge_sup(m, Payoff.constant(3.25),
                                 SearchConfig(mode=mode))
            assert res.value == pytest.approx(3.25, abs=1e-12)
        res = superhedge_sup(m, Payoff.constant(3.25), DISCRETE)
        assert res.selection.pairs == ((0, 1), (0, 1))  # smallest selection

    def test_grid_reaches_call_closed_form_from_below(self):
        m = chain_model(100.0, (0.5, 0.5), 2.5, 0.7)
        res = superhedge_sup(m, Payoff.call(30.0), SearchConfig(mode="grid"))
        assert res.value <= 75.0
        assert res.value == pytest.approx(75.0, abs=1e-3 * 100.0)
        assert res.gap_bound is not None

    def test_ascent_matches_grid_on_monotone_payoff(self):
        # 144^3 grid combinations exceed the cap, so grid mode runs
        # coordinate ascent; the pruned scan of the same grid is exact
        m = chain_model(100.0, (0.4, 0.7, 0.5), 2.5, 0.7)
        config = SearchConfig(mode="grid", grid_points=25)
        ascent = superhedge_sup(m, Payoff.put(60.0), config)
        assert ascent.combinations == 144 ** 3 > SELECTION_CAP
        assert ascent.provenance.startswith("coordinate ascent")
        dn, up = pricing._grid_candidates(m, config)
        exact = _engine.scan(m, dn, up, Payoff.put(60.0))[0]
        assert ascent.value == pytest.approx(exact, rel=1e-12)

    def test_discrete_matches_oracle_bitwise(self):
        for seed in range(25):
            m = random_model(seed, n_max=3)
            for payoff in (Payoff.call(m.s0), Payoff.asian_put(1.1 * m.s0)):
                res = superhedge_sup(m, payoff, DISCRETE)
                bv, bsel = brute_sup_selections(m, payoff)
                assert res.value == bv
                assert res.selection.pairs == bsel.pairs

    def test_dominated_by_closed_form(self):
        for seed in range(20):
            m = random_model(seed, n_max=3)
            k = 0.9 * m.s0
            res = superhedge_sup(m, Payoff.call(k), DISCRETE)
            assert res.value <= closed_form_call(m.s0, m.a_list, k) \
                + 1e-12 * m.s0

    def test_monotone_in_grid_refinement_and_widening(self):
        m = two_point_model(100.0, 0.8, 2.5, 0.7)
        payoff = Payoff.call(60.0)
        coarse = superhedge_sup(m, payoff, SearchConfig(
            mode="grid", eps_range=(-6.0, 6.0), grid_points=25))
        fine = superhedge_sup(m, payoff, SearchConfig(
            mode="grid", eps_range=(-6.0, 6.0), grid_points=49))
        wide = superhedge_sup(m, payoff, SearchConfig(
            mode="grid", eps_range=(-12.0, 12.0), grid_points=49))
        assert coarse.value <= fine.value <= wide.value

    def test_cap_and_validation_errors(self):
        m = chain_model(100.0, (0.5,) * 24, 1.0, 0.7)
        with pytest.raises(CapExceededError):
            superhedge_sup(m, Payoff.call(50.0), DISCRETE)
        doc = {"s0": 100.0, "pricing_only": True,
               "steps": [{"a": 0.5, "vol": {"kind": "constant", "sigma": 2.5},
                          "shocks": []}]}
        pricing_only = model_from_dict(doc)
        with pytest.raises(ValidationError):
            superhedge_sup(pricing_only, Payoff.call(50.0), DISCRETE)
        res = superhedge_sup(pricing_only, Payoff.call(30.0),
                             SearchConfig(mode="grid"))
        # the sup is attained exactly here, so allow ulp-level rounding
        assert res.value <= closed_form_call(100.0, (0.5,), 30.0) + 1e-12 * 100.0

    def test_grid_pairs_capped_before_the_grid_is_built(self, monkeypatch):
        # 2,829 points: 1,414 x 1,414 = 1,999,396 pairs per step, within
        # the cap; 2,830 points: 1,415 x 1,415 = 2,002,225, above it
        assert pricing._grid_sides(
            SearchConfig(mode="grid", grid_points=2829)) == (1414, 1414)

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(pricing.np, "linspace", no_grid)
        m = chain_model(100.0, (0.5,), 2.5, 0.7)
        hump = Payoff.piecewise_linear([(0.0, 0.0), (100.0, 50.0),
                                        (200.0, 0.0)], 0.0)
        for points in (2830, 10 ** 12):
            config = SearchConfig(mode="grid", grid_points=points)
            for search in (superhedge_sup, superhedge_inf):
                with pytest.raises(CapExceededError,
                                   match="grid pairs per step"):
                    search(m, hump, config)

    def test_grid_sides_match_the_grid(self):
        for lo, hi in ((-12.0, 12.0), (-10.0, 10.0), (-0.1, 7.3),
                       (-1e-300, 1e300), (-3.0, 1e-3)):
            for points in (3, 4, 25, 49, 50, 999, 1000):
                grid = np.linspace(lo, hi, points)
                assert pricing._grid_sides(SearchConfig(
                    mode="grid", eps_range=(lo, hi), grid_points=points)) \
                    == ((grid < 0).sum(), (grid > 0).sum())

    def test_table_payoff_discrete_only(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        table = Payoff.path_table({(0,): 1.0, (1,): 2.0})
        res = superhedge_sup(m, table, DISCRETE)
        bv, _ = brute_sup_selections(m, table)
        assert res.value == bv
        with pytest.raises(ValidationError):
            superhedge_sup(m, table, SearchConfig(mode="grid"))


class TestSuperhedgeInf:
    def test_convex_endpoints(self):
        m = chain_model(100.0, (0.5, 0.5), 1.0, 0.7)
        assert superhedge_inf(m, Payoff.call(40.0), DISCRETE).value == 60.0
        assert superhedge_inf(m, Payoff.put(140.0), DISCRETE).value == 40.0
        assert superhedge_inf(m, Payoff.constant(2.0), DISCRETE).value == 2.0
        res = superhedge_inf(m, Payoff.asian_put(130.0), DISCRETE)
        assert res.value == 30.0 and res.exact

    def test_non_convex_flagged(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        bump = Payoff.path_table({(0,): 1.0, (1,): 0.0})
        res = superhedge_inf(m, bump, DISCRETE)
        assert not res.exact
        assert "upper estimate" in res.provenance
        values = [spot_expectation(m, sel, bump) for sel in all_selections(m)]
        assert res.value == min(values)

    def test_non_convex_grid_minimum(self):
        m = two_point_model(100.0, 0.5, 2.5, 0.7)
        # concave hat: zero far out, peaked at s0
        hat = Payoff.piecewise_linear([(0.0, 0.0), (100.0, 50.0),
                                       (200.0, 0.0)], 0.0)
        assert not hat.is_convex
        res = superhedge_inf(m, hat, SearchConfig(mode="grid",
                                                  grid_points=25))
        assert not res.exact
        # extreme selections push the price away from the peak
        assert 0.0 <= res.value < hat.terminal_value(m.s0)

    def test_pricing_only_model_rejected_as_by_the_sup(self):
        # a non-convex claim reaches the exhaustive scan, which needs atoms
        m = EvolutionModel(100.0, (StepSpec(0.5, (),
                                            VolatilitySpec.constant(0.3)),),
                           pricing_only=True)
        hump = Payoff.piecewise_linear([(0.0, 5.0), (90.0, 0.0),
                                        (110.0, 10.0)], 0.0)
        assert not hump.is_convex
        for search in (superhedge_sup, superhedge_inf):
            with pytest.raises(ValidationError, match="pricing-only"):
                search(m, hump, SearchConfig())


class TestBounds:
    def test_call_lower_bound_matches_closed_form(self):
        for a_list, k in [((0.5, 0.5), 30.0), ((0.5, 0.5), 20.0),
                          ((0.3, 0.8, 0.1), 55.0)]:
            iv = payoff_bounds_sublinear(100.0, a_list, 1.0, Payoff.call(k))
            assert iv.lower == pytest.approx(
                closed_form_call(100.0, a_list, k), rel=1e-12)
            assert iv.upper == 100.0

    def test_full_exposure_collapse(self):
        iv = payoff_bounds_sublinear(100.0, (1.0, 0.5), 2.0, Payoff.
                                     piecewise_linear([(0.0, 0.0)], 2.0))
        assert iv.lower == iv.upper == 200.0

    def test_linear_payoff_priced_exactly(self):
        identity = Payoff.piecewise_linear([(0.0, 0.0)], 1.0)
        iv = payoff_bounds_sublinear(100.0, (0.4, 0.2), 1.0, identity)
        assert iv.lower == iv.upper == 100.0

    def test_sublinear_premise_validated(self):
        too_big = Payoff.piecewise_linear([(0.0, 0.0), (1.0, 5.0)], 1.0)
        with pytest.raises(ValidationError):
            payoff_bounds_sublinear(100.0, (0.5,), 1.0, too_big)

    def test_put_lower_matches_closed_form(self):
        for a_list, k in [((0.5, 0.5), 50.0), ((0.5, 0.5), 20.0)]:
            iv = payoff_bounds_bounded(100.0, a_list, k, Payoff.put(k))
            assert iv.lower == pytest.approx(
                closed_form_put(100.0, a_list, k), rel=1e-12)
            assert iv.upper == k

    def test_put_full_exposure(self):
        iv = payoff_bounds_bounded(100.0, (1.0, 0.3), 50.0, Payoff.put(50.0))
        assert iv.lower == iv.upper == 50.0

    def test_constant_cap_payoff(self):
        flat = Payoff.piecewise_linear([(0.0, 7.0)], 0.0)
        iv = payoff_bounds_bounded(100.0, (0.5,), 7.0, flat)
        assert iv.lower == iv.upper == 7.0

    def test_discrete_sup_between_bounds(self):
        for seed in range(10):
            m = random_model(seed, n_max=3)
            k = 0.8 * m.s0
            iv = payoff_bounds_sublinear(m.s0, m.a_list, 1.0, Payoff.call(k))
            res = superhedge_sup(m, Payoff.call(k), DISCRETE)
            assert res.value <= iv.upper + 1e-9 * m.s0
            assert iv.lower <= closed_form_call(m.s0, m.a_list, k) \
                + 1e-12 * m.s0


class TestJensen:
    def test_spot_expectations_dominate_convex_value(self):
        convex = Payoff.piecewise_linear(
            [(0.0, 50.0), (50.0, 10.0), (120.0, 15.0)], 0.9)
        assert convex.is_convex
        for seed in range(15):
            m = random_model(seed, n_max=3, s0_range=(60.0, 110.0))
            floor = convex.terminal_value(m.s0)
            for sel in all_selections(m):
                assert spot_expectation(m, sel, convex) \
                    >= floor - 1e-10 * m.s0


class TestIntervals:
    def test_call_point_interval(self):
        iv = non_arbitrage_interval(100.0, (0.5, 0.5), Payoff.call(20.0))
        assert (iv.lower, iv.upper) == (80.0, 80.0)
        assert iv.attained_lower and iv.attained_upper

    def test_put_interval(self):
        iv = non_arbitrage_interval(100.0, (0.5, 0.5), Payoff.put(50.0))
        assert (iv.lower, iv.upper) == (0.0, 25.0)

    def test_asian_put_degenerate_point(self):
        iv = non_arbitrage_interval(100.0, (0.5, 0.5), Payoff.asian_put(50.0))
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_unsupported_kind(self):
        with pytest.raises(ValidationError):
            non_arbitrage_interval(100.0, (0.5,), Payoff.constant(1.0))


class TestPayoffValidation:
    @pytest.mark.parametrize("build", [
        lambda v: Payoff.constant(v),
        lambda v: Payoff.piecewise_linear([(0.0, v)], 1.0),
        lambda v: Payoff.piecewise_linear([(0.0, 1.0), (v, 2.0)], 1.0),
        lambda v: Payoff.piecewise_linear([(0.0, 1.0)], v),
    ], ids=["const", "knot-value", "knot-position", "right-slope"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, build, value):
        with pytest.raises(ValidationError, match="finite"):
            build(value)
        build(1.5)

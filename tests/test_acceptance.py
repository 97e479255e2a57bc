"""Acceptance gate: each test is one criterion, run at its stated tolerance.

Every test prints one `ACCEPTANCE <n> ...: PASS|FAIL` line (visible with
`pytest tests/test_acceptance.py -s`; on failure pytest shows the captured
line together with the offending cases).  The whole module runs in about
20 s with the numpy tree engine.
"""

from fractions import Fraction

from superhedge import (Payoff, SearchConfig, SpotMeasure, ShockAtom,
                        StepSpec, EvolutionModel, VolatilitySpec,
                        closed_form_asian_call, closed_form_asian_put,
                        closed_form_call, closed_form_put,
                        brute_sup_selections, estimate_a, estimated_price,
                        mixture_density, optional_decompose, random_alpha,
                        superhedge_sup, verify_decomposition,
                        verify_martingale, integral_representation_check,
                        SupermartingaleSurface, PriceSample, StatisticSpec,
                        order_statistics)
from superhedge.measures import all_selections, spot_tree_value
from superhedge._rng import SplitMix64

from _corpus import martingale_mix_surface, random_model

DISCRETE = SearchConfig(mode="discrete_exhaustive")
GRID = SearchConfig(mode="grid", eps_range=(-12.0, 12.0), grid_points=49)


def _report(number, name, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {number} ({name}): {status}{detail}")
    assert not failures, failures[:5]


def test_criterion_1_martingale_family():
    failures = []
    worst_mart = 0.0
    worst_drift = 0.0
    for seed in range(500):
        m = random_model(seed, n_max=4, atoms_max=4, a_hi=0.9,
                         vol_kinds=("constant", "garch11"))
        density = mixture_density(m, random_alpha(m, seed + 10_000))
        rep = verify_martingale(m, density, tol=1e-9)
        worst_mart = max(worst_mart, rep.max_norm_residual,
                         rep.max_drift_residual)
        if not (rep.passed and rep.equivalent):
            failures.append(("mixture", seed))
        for sel in all_selections(m):
            drift = SpotMeasure(m, sel).max_node_drift()
            worst_drift = max(worst_drift, drift)
            if drift > 1e-10:
                failures.append(("spot drift", seed, sel.pairs))
    _report(1, "martingale family", failures,
            f" - 500 models; worst mixture residual {worst_mart:.2e}, "
            f"worst spot node drift {worst_drift:.2e}")


def test_criterion_2_integral_representation():
    failures = []
    worst = 0.0
    for seed in range(200):
        m = random_model(seed + 3_000, n_max=3, atoms_max=4)
        alphas = random_alpha(m, seed + 20_000)
        payoffs = (Payoff.constant(1.0),
                   Payoff.piecewise_linear([(0.0, 0.0)], 1.0),
                   Payoff.call(m.s0),
                   Payoff.asian_put(1.1 * m.s0))
        for payoff in payoffs:
            dev = integral_representation_check(m, alphas, payoff)
            worst = max(worst, dev)
            if dev > 1e-12:
                failures.append((seed, payoff.kind, dev))
    _report(2, "integral representation", failures,
            f" - 200 models x 4 payoffs; worst deviation {worst:.2e}")


def _pricing_cases():
    """100 randomized (s0, a-list with all a < 1, K) tuples with models whose
    grid extremes saturate (sigma * 12 >= 25)."""
    rng = SplitMix64(424242)
    cases = []
    for _ in range(100):
        n = 1 + rng.randint(3)
        s0 = rng.uniform_in(50.0, 150.0)
        a_list = tuple(rng.uniform_in(0.05, 0.95) for _ in range(n))
        strike = rng.uniform_in(0.2, 1.8) * s0
        sigma = rng.uniform_in(2.1, 3.0)
        steps = tuple(StepSpec(a, (ShockAtom(-0.7, 0.5), ShockAtom(0.7, 0.5)),
                               VolatilitySpec.constant(sigma)) for a in a_list)
        cases.append((EvolutionModel(s0, steps), strike))
    return cases


def _closed_form_protocol(number, name, kinds):
    closed = {"call": closed_form_call, "put": closed_form_put,
              "asian_call": closed_form_asian_call,
              "asian_put": closed_form_asian_put}
    failures = []
    worst_gap = 0.0
    for m, strike in _pricing_cases():
        for kind in kinds:
            target = closed[kind](m.s0, m.a_list, strike)
            payoff = Payoff(kind, strike=strike)
            res = superhedge_sup(m, payoff, GRID)
            gap = target - res.value
            worst_gap = max(worst_gap, abs(gap))
            # the sup is attained exactly in flat branches, so the "never
            # exceeds" check carries ulp headroom far below the 1e-3 accuracy
            if res.value > target + 1e-12 * m.s0:
                failures.append((kind, "exceeds closed form", m.s0, strike))
            if abs(gap) > 1e-3 * m.s0:
                failures.append((kind, "too far from closed form", gap))
            exact = superhedge_sup(m, payoff, DISCRETE)
            bv, bsel = brute_sup_selections(m, payoff)
            if exact.value != bv or exact.selection.pairs != bsel.pairs:
                failures.append((kind, "oracle mismatch", m.s0, strike))
    _report(number, name, failures,
            f" - 100 cases; worst |closed - grid| {worst_gap:.2e}")


def test_criterion_3_call_closed_form():
    _closed_form_protocol(3, "call closed form", ("call",))


def test_criterion_4_put_and_asian_closed_forms():
    failures = []
    for m, strike in _pricing_cases():
        total = 1.0
        prod = 1.0
        for a in m.a_list:
            prod *= 1.0 - a
            total += prod
        mean = m.s0 * total / (len(m.a_list) + 1)
        if mean < strike:
            call = closed_form_asian_call(m.s0, m.a_list, strike)
            put = closed_form_asian_put(m.s0, m.a_list, strike)
            if abs((call - put) - (m.s0 - strike)) > 1e-12:
                failures.append(("parity", m.s0, strike))
    _report(4, "asian put-call identity", failures,
            " - identity exact in the active branch")
    _closed_form_protocol(4, "put / asian closed forms",
                          ("put", "asian_put", "asian_call"))


def _random_convex_pwl(rng, s0):
    xs = sorted({rng.uniform_in(0.2, 2.0) * s0 for _ in range(3)})
    slope = -rng.uniform_in(0.5, 2.0)
    knots = [(0.0, rng.uniform_in(0.5, 2.0) * s0)]
    for x in xs:
        prev_x, prev_y = knots[-1]
        y = max(prev_y + slope * (x - prev_x), 0.0)
        knots.append((x, y))
        slope += rng.uniform_in(0.3, 1.0)
    return Payoff.piecewise_linear(knots, max(slope, 0.0))


def test_criterion_5_convex_lower_endpoint():
    failures = []
    rng = SplitMix64(5_5555)
    for trial in range(10_000):
        m = random_model(trial + 50_000, n_max=4, atoms_max=3)
        payoff = _random_convex_pwl(rng, m.s0)
        assert payoff.is_convex
        floor = payoff.terminal_value(m.s0)
        eps_dn = [-rng.uniform_in(0.01, 8.0) for _ in range(m.n_steps)]
        eps_up = [rng.uniform_in(0.01, 8.0) for _ in range(m.n_steps)]
        value = spot_tree_value(m, eps_dn, eps_up, payoff)
        if value < floor - 1e-10 * m.s0:
            failures.append(("jensen", trial, value, floor))
        if trial % 20 == 0:
            tiny_dn = [-1e-12] * m.n_steps
            tiny_up = [1e-12] * m.n_steps
            boundary = spot_tree_value(m, tiny_dn, tiny_up, payoff)
            if abs(boundary - floor) > 1e-9 * m.s0:
                failures.append(("boundary", trial, boundary, floor))
    _report(5, "convex lower endpoint", failures,
            " - 10,000 spot samples + 500 eps->0 boundary evaluations")


def test_criterion_6_unstable_collapse():
    failures = []
    rng = SplitMix64(66)
    for trial in range(200):
        n = 1 + rng.randint(4)
        a_list = [rng.uniform_in(0.05, 1.0) for _ in range(n)]
        a_list[rng.randint(n)] = 1.0
        s0 = rng.uniform_in(50.0, 150.0)
        strike = rng.uniform_in(0.2, 1.8) * s0
        if closed_form_call(s0, a_list, strike) != s0:
            failures.append(("call", s0, a_list, strike))
        if closed_form_put(s0, a_list, strike) != strike:
            failures.append(("put", s0, a_list, strike))
    _report(6, "unstable-asset collapse", failures,
            " - call -> s0 and put -> K exactly, 200 cases")


def test_criterion_7_optional_decomposition():
    failures = []
    for seed in range(200):
        m = random_model(seed + 7_000, n_max=3, atoms_max=4)
        rng = SplitMix64(seed)
        cap = rng.uniform_in(0.6, 1.1) * m.s0
        surfaces = {
            "min": SupermartingaleSurface.from_price_function(
                m, lambda prices: min(prices[-1], cap)),
            "martingale-mix": martingale_mix_surface(m, seed),
        }
        densities = [SpotMeasure(m, sel).as_density()
                     for sel in all_selections(m)]
        densities += [mixture_density(m, random_alpha(m, seed * 10 + i))
                      for i in range(10)]
        for label, surface in surfaces.items():
            dec = optional_decompose(m, surface)
            rep = verify_decomposition(m, surface, dec, densities, tol=1e-10)
            if not rep.passed:
                failures.append((label, seed, rep.failures[:2]))
            if label == "martingale-mix":
                worst_g = max(float(abs(g).max()) for g in dec.g)
                if worst_g > 1e-10:
                    failures.append((label, seed, "nonzero consumption",
                                     worst_g))
    _report(7, "optional decomposition", failures,
            " - 200 models x {min(S,c), martingale mix} vs all spot measures"
            " + 10 mixtures")


def test_criterion_8_estimation_identities():
    failures = []
    rng = SplitMix64(88_888)
    for trial in range(500):
        n = 1 + rng.randint(7)
        sample = PriceSample(rng.uniform_in(50.0, 150.0),
                             tuple(rng.uniform_in(40.0, 180.0)
                                   for _ in range(n)))
        stats = order_statistics(sample)
        tau0 = rng.uniform_in(0.05, 1.0)
        for spec in (StatisticSpec("constant_one", tau0=tau0),
                     StatisticSpec("capped_ratio", tau0=tau0),
                     StatisticSpec("identity_tail", tau0=tau0,
                                   tail_k=rng.randint(n))):
            params = estimate_a(sample, spec)
            prod = 1.0
            for a in params.a:
                prod *= 1.0 - a
            target = tau0 * stats[0] * params.g_values[-1]
            if abs(sample.s0 * prod - target) > 1e-10 * max(1.0, target):
                failures.append(("identity", trial, spec.kind))
        # the full-product identity is the tau0 = 1 form of the statistic
        capped = estimate_a(sample, StatisticSpec("capped_ratio"))
        prod = 1.0
        for a in capped.a:
            prod *= 1.0 - a
        if abs(prod - stats[0] / stats[-1]) > 1e-12:
            failures.append(("capped product", trial))
        strike = rng.uniform_in(0.4, 1.6) * sample.s0
        base, _ = estimated_price(sample, StatisticSpec("constant_one"),
                                  "call", strike)
        for _ in range(50):
            g = []
            cur = rng.uniform_in(0.7, 1.0)
            for _ in range(n):
                g.append(cur)
                cur *= rng.uniform_in(0.6, 1.0)
            value, _ = estimated_price(
                sample, StatisticSpec("custom", table=tuple(g)),
                "call", strike)
            if value < base - 1e-10 * sample.s0:
                failures.append(("minimality", trial))
    _report(8, "estimation identities", failures,
            " - 500 samples; constant_one minimal among 50 statistics each")


def test_criterion_9_worked_value_regression():
    failures = []
    sample = PriceSample(100.0, (80.0, 120.0, 90.0))

    def check(label, got, expected):
        if abs(got - float(expected)) > 1e-9:
            failures.append((label, got, float(expected)))

    check("call 30", closed_form_call(100.0, (0.5, 0.5), 30.0),
          Fraction(100) * (1 - Fraction(1, 4)))
    check("call 20", closed_form_call(100.0, (0.5, 0.5), 20.0), Fraction(80))
    check("put 50", closed_form_put(100.0, (0.5, 0.5), 50.0), Fraction(25))
    check("put 20", closed_form_put(100.0, (0.5, 0.5), 20.0), Fraction(0))
    mean = (Fraction(100) + Fraction(50) + Fraction(25)) / 3
    check("asian put 60", closed_form_asian_put(100.0, (0.5, 0.5), 60.0),
          Fraction(60) - mean)
    check("asian call 30", closed_form_asian_call(100.0, (0.5, 0.5), 30.0),
          Fraction(70))
    check("asian call 70", closed_form_asian_call(100.0, (0.5, 0.5), 70.0),
          Fraction(100) - mean)
    a1 = estimate_a(sample, StatisticSpec("constant_one")).a
    for got, expected in zip(a1, (Fraction(1, 5), 0, 0)):
        check("constant_one a", got, expected)
    a2 = estimate_a(sample, StatisticSpec("capped_ratio")).a
    for got, expected in zip(a2, (Fraction(1, 5), Fraction(1, 16),
                                  Fraction(1, 9))):
        check("capped a", got, expected)
    check("estimated call 100",
          estimated_price(sample, StatisticSpec("constant_one"),
                          "call", 100.0)[0], Fraction(20))
    check("estimated asian put 90",
          estimated_price(sample, StatisticSpec("constant_one"),
                          "asian_put", 90.0)[0], Fraction(5))
    _report(9, "worked-value regression", failures,
            " - spec examples re-derived from exact arithmetic")

import math
import weakref

import numpy as np
import pytest

from superhedge import (AtomPairSelection, EvolutionModel,
                        MeasureDensity, Payoff, ShockAtom, SpotMeasure,
                        StepSpec, ValidationError, VolatilitySpec,
                        alpha_from_partition, delta_split, enumerate_paths,
                        integral_representation_check, measure_expectation,
                        mixture_density, model_from_dict, model_to_dict,
                        psi_weights, random_alpha, sigma_at,
                        spot_expectation, verify_martingale)
from superhedge import _engine
from superhedge._rng import SplitMix64
from superhedge.measures import (Lattice, all_selections, history_at,
                                 history_index, selection_count,
                                 spot_tree_value)

from _corpus import (bits, chain_model, random_model, random_step,
                     two_point_model)

LN2 = math.log(2.0)


def small_model(seed, n_max=3, include_zero=False):
    return random_model(seed, n_max=n_max, atoms_max=4,
                        include_zero=include_zero)


class TestPsiWeights:
    def test_log2_example(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        pd, pu = psi_weights(m, (), -LN2, LN2)
        assert pd == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert pu == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_symmetric_multiplicative_moves(self):
        # e^{s*up} - 1 == 1 - e^{s*down} forces half/half weights
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        down, up = math.log(0.4), math.log(1.6)
        pd, pu = psi_weights(m, (), down, up)
        assert pd == pytest.approx(0.5, rel=1e-12)
        assert pu == pytest.approx(0.5, rel=1e-12)

    def test_one_step_martingale_identity(self):
        m = two_point_model(100.0, 0.7, 1.3, 0.9)
        pd, pu = psi_weights(m, (), -0.9, 0.9)
        _, dm, _ = delta_split(m, (), ShockAtom(-0.9, 0.5))
        d_up, _, dp = delta_split(m, (), ShockAtom(0.9, 0.5))
        assert pd * (-dm) + pu * dp == pytest.approx(0.0, abs=1e-12 * 100.0)

    def test_sign_separation_required(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        with pytest.raises(ValidationError):
            psi_weights(m, (), 0.0, 0.7)

    def test_weights_in_unit_interval_and_sum(self):
        m = two_point_model(50.0, 0.5, 2.2, 0.7)
        for down, up in [(-3.0, 0.1), (-0.01, 5.0), (-1.0, 1.0)]:
            pd, pu = psi_weights(m, (), down, up)
            assert 0.0 < pd < 1.0 and 0.0 < pu < 1.0
            assert pd + pu == pytest.approx(1.0, abs=1e-14)


def garch8_model() -> EvolutionModel:
    """An 8-step GARCH(1,1) model with 4 atoms per step: 21,845 history
    prefixes below the last step."""
    rng = SplitMix64(8)
    steps = []
    while len(steps) < 8:
        step = random_step(rng, atoms_max=4, vol_kinds=("garch11",))
        if len(step.shocks) == 4:
            steps.append(step)
    return EvolutionModel(100.0, tuple(steps))


class TestLattice:
    def test_sigma_matches_sigma_at_bit_for_bit(self):
        models = [random_model(seed, n_max=5, vol_kinds=("arch1", "garch11"))
                  for seed in range(40)] + [garch8_model()]
        for m in models:
            lattice = Lattice(m)
            for n, sigma in enumerate(lattice.sigma):
                assert sigma.size == math.prod(m.atom_counts()[:n])
                for flat, s in enumerate(sigma.tolist()):
                    hist = history_at(lattice.counts, n, flat)
                    eps = [m.steps[k].shocks[j].eps for k, j in enumerate(hist)]
                    assert s == sigma_at(m, n + 1, eps), (n, hist)

    def test_kept_levels_are_read_only(self):
        m = random_model(2, n_max=3)
        lattice = m.lattice
        assert m.lattice is lattice
        for level in lattice.price:
            with pytest.raises(ValueError):
                level[0] = 1.0
        for level in lattice.sigma:
            with pytest.raises(ValueError):
                level[0] = 1.0
        for level in lattice.delta:
            with pytest.raises(ValueError):
                level[0, 0] = 1.0
        assert lattice.exp(0).flags.writeable

    def test_delta_matches_the_formula_bit_for_bit(self):
        # nine 4-atom steps: the last level has 65,536 prefixes, more than
        # CHUNK_LEAVES
        rng = SplitMix64(29)
        steps = tuple(StepSpec(
            rng.uniform_in(0.05, 0.9),
            (ShockAtom(-0.9, 0.2), ShockAtom(-0.3, 0.3), ShockAtom(0.2, 0.3),
             ShockAtom(0.8, 0.2)),
            VolatilitySpec.garch11(rng.uniform_in(0.01, 0.09),
                                   rng.uniform_in(0.0, 0.5),
                                   rng.uniform_in(0.0, 0.4), 0.05))
            for _ in range(9))
        m = EvolutionModel(100.0, steps)
        lattice = m.lattice
        assert lattice.delta[-1].shape[0] > _engine.CHUNK_LEAVES
        for n, (level, a) in enumerate(zip(lattice.delta, m.a_list)):
            want = (lattice.exp(n) - 1.0) * (lattice.price[n] * a)[:, None]
            assert bits(level) == bits(want), n

    def test_lattice_does_not_keep_its_model_alive(self):
        m = random_model(3, n_max=3)
        lattice = m.lattice
        lattice.price
        model_ref = weakref.ref(m)
        del m
        assert model_ref() is None
        assert lattice.price[0][0] > 0.0

    def test_history_index_round_trip(self):
        for counts in ((3,), (2, 4, 3), (4, 1, 2, 5)):
            for n in range(len(counts) + 1):
                size = math.prod(counts[:n])
                seen = [history_at(counts, n, flat) for flat in range(size)]
                assert len(set(seen)) == size
                assert all(len(h) == n for h in seen)
                assert [history_index(counts, h) for h in seen] \
                    == list(range(size))
        assert history_index((2, 3), ()) == 0
        assert history_index((2, 3), (1, 2)) == 5

    def test_history_index_rejects_bad_prefixes(self):
        with pytest.raises(ValidationError, match="invalid atom index"):
            history_index((2, 3), (0, 3))
        with pytest.raises(ValidationError, match="invalid atom index"):
            history_index((2, 3), (-1,))
        with pytest.raises(ValidationError, match="longer than the horizon"):
            history_index((2, 3), (0, 0, 0))


class TestSpotMeasures:
    def test_normalization_and_martingale(self):
        for seed in range(15):
            m = small_model(seed)
            sel = next(all_selections(m))
            assert spot_expectation(m, sel, Payoff.constant(1.0)) \
                == pytest.approx(1.0, abs=1e-12)
            sn = Payoff.piecewise_linear([(0.0, 0.0)], 1.0)  # identity on S_N
            assert spot_expectation(m, sel, sn) \
                == pytest.approx(m.s0, rel=1e-12)

    def test_two_branch_call(self):
        m = two_point_model(100.0, 1.0, 1.0, LN2)
        v = spot_expectation(m, AtomPairSelection(((0, 1),)), Payoff.call(90.0))
        assert v == pytest.approx(110.0 / 3.0, rel=1e-14)

    def test_forward_sum_equals_backward_recursion(self):
        # terminal payoffs: leaf-sum and backward induction agree
        for seed in range(10):
            m = small_model(seed)
            payoff = Payoff.call(0.9 * m.s0)
            for sel in all_selections(m):
                forward = spot_expectation(m, sel, payoff)

                def backward(level, price, history):
                    if level == m.n_steps:
                        return payoff.terminal_value(price)
                    d, u = sel.pairs[level]
                    shocks = m.steps[level].shocks
                    pd, pu = psi_weights(m, history, shocks[d].eps,
                                         shocks[u].eps)
                    sigma = __import__("superhedge").sigma_at(
                        m, level + 1, history)
                    down = price * (1.0 + m.steps[level].a
                                    * (math.exp(sigma * shocks[d].eps) - 1.0))
                    up = price * (1.0 + m.steps[level].a
                                  * (math.exp(sigma * shocks[u].eps) - 1.0))
                    return pd * backward(level + 1, down,
                                         history + (shocks[d].eps,)) \
                        + pu * backward(level + 1, up,
                                        history + (shocks[u].eps,))

                assert forward == pytest.approx(backward(0, m.s0, ()),
                                                rel=1e-12)

    def test_node_drift_vanishes(self):
        for seed in range(15):
            m = small_model(seed)
            for sel in all_selections(m):
                assert SpotMeasure(m, sel).max_node_drift() <= 1e-10

    def test_selection_validation(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        with pytest.raises(ValidationError):
            SpotMeasure(m, AtomPairSelection(((1, 1),)))
        # atoms 0 (eps -0.7) and 1 (eps 0.7) at both steps
        m = chain_model(100.0, (0.5, 0.5), 1.0, 0.7)
        for pairs, error, message in (
                (((0, 1),), ValidationError,
                 "selection length does not match model horizon"),
                (((0, 1),) * 3, ValidationError,
                 "selection length does not match model horizon"),
                (((0, 1), (0, 2)), ValidationError,
                 "selection indices out of range at step 2"),
                (((0, 1), (-1, 1)), ValidationError,
                 "selection indices out of range at step 2"),
                (((0, 5), (0, 1.0)), ValidationError,
                 "selection indices out of range at step 1"),
                (((1, 1), (0, 1)), ValidationError,
                 "down atom at step 1 must have eps < 0, got 0.7"),
                (((0, 1), (0, 0)), ValidationError,
                 "up atom at step 2 must have eps > 0, got -0.7"),
                # a float equal to an index finds a pair, but indexes nothing
                (((0, 1), (0, 1.0)), TypeError, None),
                (((0.0, 1), (0, 1)), TypeError, None),
                (((np.float64(0.0), 1), (0, 1)), TypeError, None)):
            with pytest.raises(error) as info:
                SpotMeasure(m, AtomPairSelection(pairs))
            assert message is None or str(info.value) == message
        # indices that index an atom pass, as plain ints do
        want = SpotMeasure(m, AtomPairSelection(((0, 1), (0, 1))))
        assert want._shocks == ((-0.7, 0.7), (-0.7, 0.7))
        for pairs in (((False, True), (0, 1)),
                      ((np.int64(0), np.int64(1)), (0, 1)),
                      ([0, 1], (0, 1))):
            spot = SpotMeasure(m, AtomPairSelection(pairs))
            assert spot._shocks == want._shocks
            assert spot.max_node_drift() == want.max_node_drift()

    def test_spot_tree_value_needs_one_pair_per_step(self):
        m = chain_model(100.0, (0.5, 0.5), 1.0, 0.7)
        call = Payoff.call(100.0)
        for eps_dn, eps_up in (([-0.7], [0.7]),
                               ([-0.7] * 3, [0.7] * 3),
                               ([-0.7] * 2, [0.7] * 3)):
            with pytest.raises(ValidationError, match="2-step model"):
                spot_tree_value(m, eps_dn, eps_up, call)
        assert spot_tree_value(m, [-0.7] * 2, [0.7] * 2, call) \
            == spot_expectation(m, next(all_selections(m)), call)

    def test_zero_atom_not_selectable(self):
        shocks = (ShockAtom(-0.7, 0.4), ShockAtom(0.0, 0.2),
                  ShockAtom(0.7, 0.4))
        m = EvolutionModel(100.0, (StepSpec(0.5, shocks,
                                            VolatilitySpec.constant(1.0)),))
        with pytest.raises(ValidationError):
            SpotMeasure(m, AtomPairSelection(((1, 2),)))
        assert selection_count(m) == 1


class TestAlphaFromPartition:
    def test_two_point_value(self):
        step = StepSpec(0.5, (ShockAtom(-0.7, 0.4), ShockAtom(0.7, 0.6)),
                        VolatilitySpec.constant(1.0))
        sa = alpha_from_partition(step, [], [], [], [], [1.0])
        assert sa.weights[0, 0] == pytest.approx(1.0 / (0.4 * 0.6), rel=1e-15)

    def test_block_construction_normalizes(self):
        # two down atoms p=0.25 each, one up atom p=0.5, one block {first}
        step = StepSpec(0.5, (ShockAtom(-0.9, 0.25), ShockAtom(-0.2, 0.25),
                              ShockAtom(0.8, 0.5)),
                        VolatilitySpec.constant(1.0))
        sa = alpha_from_partition(step, [[0]], [], [0.5], [], [1.0])
        # delta = 1/2 splits evenly: the down factor is 2 on both atoms,
        # the single up atom contributes 1/0.5, so alpha = 4 on both pairs
        assert sa.weights == pytest.approx(np.full((2, 1), 4.0), rel=1e-15)
        total = 0.25 * 0.5 * sa.weights[0, 0] + 0.25 * 0.5 * sa.weights[1, 0]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mixtures_stay_normalized(self):
        step = StepSpec(0.5, (ShockAtom(-0.9, 0.2), ShockAtom(-0.2, 0.3),
                              ShockAtom(0.4, 0.3), ShockAtom(0.8, 0.2)),
                        VolatilitySpec.constant(1.0))
        sa = alpha_from_partition(step, [[0], [1]], [[2]], [0.3, 0.6], [0.25],
                                  [0.5, 0.5])
        pd = np.array([0.2, 0.3])
        pu = np.array([0.3, 0.2])
        assert float(pd @ sa.weights @ pu) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sa.weights > 0)

    def test_zero_probability_block_rejected(self):
        step = StepSpec(0.5, (ShockAtom(-0.9, 0.5), ShockAtom(0.8, 0.5)),
                        VolatilitySpec.constant(1.0))
        with pytest.raises(ValidationError):
            alpha_from_partition(step, [[0]], [], [0.5], [], [1.0])

    def test_gammas_must_be_convex(self):
        step = StepSpec(0.5, (ShockAtom(-0.9, 0.25), ShockAtom(-0.2, 0.25),
                              ShockAtom(0.8, 0.5)),
                        VolatilitySpec.constant(1.0))
        with pytest.raises(ValidationError):
            alpha_from_partition(step, [[0]], [], [0.5], [], [0.9])


class TestMixtureDensity:
    def test_value_rejects_cells_outside_the_density(self):
        m = random_model(3, n_max=1)
        m = EvolutionModel(m.s0, m.steps * 3)
        density = mixture_density(m, random_alpha(m, 1))
        assert density.value(2, (1,), 0) == density.psi[1][1, 0]
        for n, history, atom in ((2, (), 0), (0, (1, 1), 0), (1, (), -1),
                                 (3, (0,), 1), (1, (), len(m.steps[0].shocks)),
                                 (4, (0, 0, 0), 0)):
            with pytest.raises(ValidationError):
                density.value(n, history, atom)

    def test_two_point_reduces_to_psi_weights(self):
        m = two_point_model(100.0, 0.7, 1.2, 0.8, p_down=0.4)
        density = mixture_density(m, random_alpha(m, 5))
        pd, pu = psi_weights(m, (), -0.8, 0.8)
        # the induced atom probabilities coincide with the spot weights
        assert 0.4 * density.value(1, (), 0) == pytest.approx(pd, rel=1e-14)
        assert 0.6 * density.value(1, (), 1) == pytest.approx(pu, rel=1e-14)

    def test_normalization_payoff_one(self):
        for seed in range(10):
            m = small_model(seed)
            density = mixture_density(m, random_alpha(m, seed + 100))
            assert measure_expectation(m, density, Payoff.constant(1.0)) \
                == pytest.approx(1.0, abs=1e-12)

    def test_conditional_drift_by_direct_summation(self):
        for seed in range(10):
            m = small_model(seed, include_zero=(seed % 3 == 0))
            density = mixture_density(m, random_alpha(m, seed + 7))
            counts = m.atom_counts()
            for idx, path in enumerate_paths(m):
                for n in range(m.n_steps):
                    prefix = idx.atoms[:n]
                    flat = 0
                    for i, j in enumerate(prefix):
                        flat = flat * counts[i] + j
                    s_prev = path.price_seq[n]
                    drift = 0.0
                    for j, atom in enumerate(m.steps[n].shocks):
                        d, _, _ = delta_split(m, path.eps_seq[:n], atom)
                        drift += atom.prob * density.psi[n][flat, j] * d
                    assert abs(drift) <= 1e-10 * s_prev

    def test_terminal_martingale(self):
        sn = Payoff.piecewise_linear([(0.0, 0.0)], 1.0)
        for seed in range(10):
            m = small_model(seed)
            density = mixture_density(m, random_alpha(m, seed))
            assert measure_expectation(m, density, sn) \
                == pytest.approx(m.s0, rel=1e-10)

    def test_strictly_positive(self):
        for seed in range(10):
            m = small_model(seed, include_zero=(seed % 2 == 0))
            density = mixture_density(m, random_alpha(m, seed))
            assert density.strictly_positive


class TestVerifyMartingale:
    def test_mixture_passes(self):
        for seed in range(10):
            m = small_model(seed)
            density = mixture_density(m, random_alpha(m, seed))
            report = verify_martingale(m, density, tol=1e-9)
            assert report.passed and report.equivalent

    def test_perturbed_density_fails_with_location(self):
        m = small_model(1)
        density = mixture_density(m, random_alpha(m, 1))
        psi = tuple(p.copy() for p in density.psi)
        psi[0][0, 0] += 0.01
        bad = MeasureDensity(m, psi)
        report = verify_martingale(m, bad, tol=1e-9)
        assert not report.passed
        assert any(f[0] == 1 and f[1] == () for f in report.failures)

    def test_nan_cell_fails(self):
        m = small_model(1)
        density = mixture_density(m, random_alpha(m, 1))
        psi = tuple(p.copy() for p in density.psi)
        psi[-1][-1, -1] = math.nan
        report = verify_martingale(m, MeasureDensity(m, psi), tol=1e-9)
        assert report.passed is False
        assert math.isnan(report.max_norm_residual)
        assert not report.equivalent

    @staticmethod
    def bad_densities(m):
        """Factories of a perturbed and a NaN density."""
        base = mixture_density(m, random_alpha(m, 1))

        def perturbed():
            psi = tuple(p.copy() for p in base.psi)
            psi[0][0, 0] += 0.01
            # a drift of about 1e-12 at the last step, with normalization
            # kept: fails 1e-13, passes 1e-9
            probs = [at.prob for at in m.steps[-1].shocks]
            psi[-1][-1, 0] += 1e-11 / probs[0]
            psi[-1][-1, -1] -= 1e-11 / probs[-1]
            return MeasureDensity(m, psi)

        def nan():
            psi = tuple(p.copy() for p in base.psi)
            psi[-1][-1, -1] = math.nan
            return MeasureDensity(m, psi)

        return perturbed, nan

    def test_one_density_matches_fresh_densities(self):
        m = small_model(1)
        assert m.n_steps > 1
        perturbed, nan = self.bad_densities(m)
        for make in (perturbed, nan):
            for tols in ((1e-9, 1e-13), (1e-13, 1e-9)):
                density = make()
                kept = [verify_martingale(m, density, t) for t in tols]
                fresh = [verify_martingale(m, make(), t) for t in tols]
                assert bits(kept) == bits(fresh)
                assert all(r.passed == (not r.failures) for r in kept)
        loose, tight = (verify_martingale(m, perturbed(), t)
                        for t in (1e-9, 1e-13))
        assert {(f[0], f[2]) for f in loose.failures} == {
            (1, "normalization"), (1, "drift")}
        assert {(f[0], f[2]) for f in tight.failures} == {
            (1, "normalization"), (1, "drift"), (m.n_steps, "drift")}

    def test_other_model_rejected(self):
        m = small_model(1)
        density = mixture_density(m, random_alpha(m, 1))
        with pytest.raises(ValidationError, match="own model"):
            verify_martingale(small_model(2), density)
        reloaded = model_from_dict(model_to_dict(m))
        assert reloaded is not m
        assert bits(verify_martingale(reloaded, density)) \
            == bits(verify_martingale(m, density))

    def test_stored_levels_are_read_only(self):
        m = small_model(1)
        spot = SpotMeasure(m, next(all_selections(m))).as_density()
        for density in (mixture_density(m, random_alpha(m, 1)), spot):
            assert not any(p.flags.writeable for p in density.psi)

    def test_overflowing_exponential_rejected(self):
        # e^{40 * 20} overflows at step 1
        m = EvolutionModel(100.0, tuple(
            StepSpec(a, (ShockAtom(-0.7, 0.5), ShockAtom(20.0, 0.5)),
                     VolatilitySpec.constant(40.0)) for a in (0.5, 0.8)))
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match="overflows at step 1"):
                mixture_density(m, random_alpha(m, 1))
            with pytest.raises(ValidationError, match="overflows at step 1"):
                SpotMeasure(m, next(all_selections(m))).as_density()

    def test_degenerate_pairs_rejected(self):
        # sigma = 1e-300: e^{sigma eps} = 1 on both branches, so V = 0
        m = chain_model(100.0, (0.5, 0.5), 1e-300, 0.7)
        message = r"degenerate \(down, up\) pair with V = 0 at step 1"
        with pytest.raises(ValidationError, match=message):
            mixture_density(m, random_alpha(m, 1))
        with pytest.raises(ValidationError, match=message):
            SpotMeasure(m, next(all_selections(m))).as_density()

    def test_spot_density_distinguishes_equivalence(self):
        m = small_model(2)
        spot = SpotMeasure(m, next(all_selections(m)))
        report = verify_martingale(m, spot.as_density(), tol=1e-9)
        assert report.passed
        assert not report.equivalent

    def test_spot_density_expectation_matches_tree(self):
        m = small_model(4)
        spot = SpotMeasure(m, next(all_selections(m)))
        payoff = Payoff.call(m.s0)
        assert measure_expectation(m, spot.as_density(), payoff) \
            == pytest.approx(spot.expectation(payoff), rel=1e-12)


class TestIntegralRepresentation:
    def test_two_point_steps_exact(self):
        m = two_point_model(100.0, 0.5, 1.0, 0.7)
        alphas = random_alpha(m, 3)
        assert integral_representation_check(m, alphas, Payoff.call(95.0)) \
            == 0.0

    def test_constant_payoff(self):
        for seed in range(5):
            m = small_model(seed)
            alphas = random_alpha(m, seed)
            assert integral_representation_check(
                m, alphas, Payoff.constant(1.0)) <= 1e-12

    def test_random_models_and_payoffs(self):
        sn = Payoff.piecewise_linear([(0.0, 0.0)], 1.0)
        for seed in range(12):
            m = small_model(seed, include_zero=(seed % 4 == 0))
            alphas = random_alpha(m, seed + 11)
            for payoff in (sn, Payoff.call(m.s0), Payoff.asian_put(m.s0)):
                assert integral_representation_check(m, alphas, payoff) \
                    <= 1e-12

    def test_callables_match_coded_payoffs(self, monkeypatch):
        # a callable reads the lattice's price paths: bit for bit the coded
        # result, also when the paths come in several blocks
        for seed, chunk in ((0, None), (3, None), (5, 5), (8, 5)):
            if chunk is not None:
                monkeypatch.setattr(_engine, "CHUNK_LEAVES", chunk)
            m = random_model(seed, vol_kinds=("constant", "arch1", "garch11"))
            density = mixture_density(m, random_alpha(m, seed))
            s0 = m.s0
            for payoff in (Payoff.constant(2.5), Payoff.call(s0),
                           Payoff.put(1.2 * s0), Payoff.asian_call(0.9 * s0),
                           Payoff.asian_put(1.1 * s0),
                           Payoff.piecewise_linear(
                               [(0.0, 0.3 * s0), (0.5 * s0, 0.1 * s0),
                                (s0, 0.2 * s0)], 1.0)):
                assert measure_expectation(m, density, payoff) \
                    == measure_expectation(m, density,
                                           lambda p: payoff.value(p))

    def test_table_payoff_round_trip(self):
        m = small_model(6, n_max=2)
        alphas = random_alpha(m, 6)
        table = {idx.atoms: float(i % 3) for i, (idx, _)
                 in enumerate(enumerate_paths(m))}
        payoff = Payoff.path_table(table)
        assert integral_representation_check(m, alphas, payoff) <= 1e-12

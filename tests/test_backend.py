"""The batched tree engine against the per-leaf oracle, bit for bit."""

import ast
import dataclasses
import inspect
import math
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from superhedge import (EvolutionModel, Payoff, SearchConfig, ShockAtom,
                        SpotMeasure, StepSpec, VolatilitySpec,
                        brute_sup_selections, spot_expectation,
                        superhedge_sup)
from superhedge import _engine, measures, oracle, pricing
from superhedge.measures import all_selections, spot_tree_value
from superhedge.model import (PathIndex, delta_split, enumerate_paths,
                              price_path, simulate)

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
    """max_node_drift by a depth-first scalar walk over every node:
    exponentials saturate to inf, a saturated up branch has the weights
    (1, 0) and adds no drift, and a NaN ratio never wins."""
    eps_dn, eps_up = measures._selection_eps(m, sel)
    worst = 0.0

    def rec(level, price, sigma_prev, eps_prev):
        nonlocal worst
        if level == m.n_steps:
            return
        vol = m.steps[level].vol
        sigma = (vol.initial_sigma() if level == 0 else
                 vol.next_sigma(sigma_prev, eps_prev))
        ed = oracle.exp(sigma * eps_dn[level])
        eu = oracle.exp(sigma * eps_up[level])
        a = m.steps[level].a
        if eu == math.inf:
            drift = 1.0 * (price * a * (ed - 1.0))
        else:
            psi_d = (eu - 1.0) / (eu - ed)
            psi_u = (1.0 - ed) / (eu - ed)
            drift = psi_d * (price * a * (ed - 1.0)) \
                + psi_u * (price * a * (eu - 1.0))
        worst = max(worst, abs(drift) / price)   # max(x, nan) is x
        rec(level + 1, price * (1.0 + a * (ed - 1.0)), sigma, eps_dn[level])
        rec(level + 1, price * (1.0 + a * (eu - 1.0)), sigma, eps_up[level])

    rec(0, m.s0, 0.0, 0.0)
    return worst


def outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def drift_outcome(m, sel):
    """max_node_drift, or the type and message of what it raises."""
    try:
        return SpotMeasure(m, sel).max_node_drift()
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


def fresh(m):
    """An equal model object that has grown no spot tree yet."""
    return dataclasses.replace(m)


def prefix_failure_model():
    """Selections that raise next to ones that pass with the same prefix.
    At step 1 (a = 1, sigma = 10), e^{-80} - 1 rounds to -1 and makes a
    down child's price 0, and e^{800} saturates, so every node below the
    up child has price inf and a NaN ratio; at steps 2 and 3,
    e^{0.2 * (+-1e-300)} is 1 on both branches (equal exponentials)."""
    tiny = (ShockAtom(-0.4, 0.3), ShockAtom(-1e-300, 0.2),
            ShockAtom(1e-300, 0.2), ShockAtom(0.3, 0.3))
    return EvolutionModel(100.0, (
        StepSpec(1.0, (ShockAtom(-8.0, 0.3), ShockAtom(-0.5, 0.3),
                       ShockAtom(1.0, 0.2), ShockAtom(80.0, 0.2)),
                 VolatilitySpec.constant(10.0)),
        StepSpec(0.5, tiny, VolatilitySpec.constant(0.2)),
        StepSpec(0.6, tiny, VolatilitySpec.arch1(0.04, 0.3, 0.05))))


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
        cases = (
            # e^{-800} underflows to 0: with a = 1 the down child's price
            # is exactly 0
            EvolutionModel(100.0, (
                StepSpec(1.0, (ShockAtom(-8.0, 0.5), ShockAtom(1.0, 0.5)),
                         VolatilitySpec.constant(100.0)),) * 2),
            # e^{sigma*eps} rounds to 1 on both branches: 0 / 0 weights
            constant_chain(100.0, [0.5, 0.5], 1e-300, -0.7, 0.7),
            # price 0 off a level's first node: below the up child sigma is
            # about 100 and e^{-2000} underflows, below the down child not
            EvolutionModel(100.0, (
                StepSpec(0.5, (ShockAtom(-0.5, 0.5), ShockAtom(100.0, 0.5)),
                         VolatilitySpec.constant(1.0)),
                StepSpec(1.0, (ShockAtom(-20.0, 0.5), ShockAtom(1.0, 0.5)),
                         VolatilitySpec.arch1(1.0, 1.0, 0.0)),
                StepSpec(0.5, (ShockAtom(-0.5, 0.5), ShockAtom(0.5, 0.5)),
                         VolatilitySpec.constant(1.0)))),
        )
        for m in cases:
            sel = next(all_selections(m))
            assert outcome(walk_drift, m, sel) is ZeroDivisionError
            with pytest.raises(ZeroDivisionError):
                SpotMeasure(m, sel).max_node_drift()
        # e^{800} saturates at the root: the limit weights (1, 0) leave the
        # down branch's drift, 0.5 * (1 - e^{-70}), and e^{-70} - 1 rounds
        # to -1
        m = constant_chain(100.0, [0.5], 100.0, -0.7, 8.0)
        sel = next(all_selections(m))
        assert SpotMeasure(m, sel).max_node_drift() == walk_drift(m, sel) \
            == 0.5

    def test_equal_exponentials_win_within_a_tree(self):
        zero_then_equal = (prefix_failure_model(),
                           measures.AtomPairSelection(((0, 2), (0, 3), (1, 2))))
        # equal exponentials at level 1 (sigma = 1e-20 below the tiny down
        # shock), price 0 at level 2 (e^{-1581} below the up shock, a = 1)
        m = EvolutionModel(100.0, (
            StepSpec(0.5, (ShockAtom(-1e-25, 0.5), ShockAtom(5.0, 0.5)),
                     VolatilitySpec.constant(1.0)),
            StepSpec(1.0, (ShockAtom(-1.0, 0.5), ShockAtom(1e-3, 0.5)),
                     VolatilitySpec.arch1(1e-40, 1e5, 0.0)),
            StepSpec(0.5, (ShockAtom(-0.5, 0.5), ShockAtom(0.5, 0.5)),
                     VolatilitySpec.constant(1.0))))
        for m, sel in (zero_then_equal, (m, next(all_selections(m)))):
            assert outcome(walk_drift, m, sel) is ZeroDivisionError
            assert drift_outcome(m, sel) \
                == (ZeroDivisionError, _engine._EQUAL_EXP)

    def test_equal_exponentials_below_a_pruned_branch(self):
        # e^{710} saturates at the root: the up child has the weights
        # (1, 0) and is pruned.  Below it sigma = 7.1e-18 and e^{+-3 sigma}
        # is 1 on both branches; below the live down child (sigma = 2e-17)
        # it is not.  Tree values never divide at a pruned node, while the
        # drift check judges every node.
        m = EvolutionModel(100.0, (
            StepSpec(0.5, (ShockAtom(-2000.0, 0.5), ShockAtom(710.0, 0.5)),
                     VolatilitySpec.constant(1.0)),
            StepSpec(0.5, (ShockAtom(-3.0, 0.5), ShockAtom(3.0, 0.5)),
                     VolatilitySpec.arch1(1e-300, 1e-40, 1e-300))))
        sel = next(all_selections(m))
        atoms_dn, atoms_up, dn, up = measures._atom_candidates(m)
        for payoff, want in ((Payoff.call(40.0), 10.0),
                             (Payoff.put(120.0), 70.0),
                             (Payoff.asian_put(120.0), 160.0 / 3.0)):
            value = oracle_value(m, sel, payoff)
            assert value == pytest.approx(want, rel=1e-15)
            assert spot_expectation(m, sel, payoff) == value
            assert superhedge_sup(m, payoff, SearchConfig(
                mode="discrete_exhaustive")).value == value
            assert np.concatenate(list(_engine.scan_values(
                m, dn, up, payoff, atoms_dn, atoms_up))).tolist() == [value]
        assert drift_outcome(m, sel) \
            == (ZeroDivisionError, _engine._EQUAL_EXP)

    def test_first_failure_in_walk_order_wins(self):
        # the up child of the root saturates (sigma = 1001), which is no
        # failure; the down child's down child, earlier in a depth-first
        # walk but one level deeper, has price 0 (sigma = 50.2,
        # e^{-1004} = 0, a = 1)
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

    # A model keeps the levels of the last spot tree it grew; whatever the
    # calls before, a drift equals a first call on a fresh model.
    MODELS = [random_model(seed, n_max=5, vol_kinds=ALL_VOLS)
              for seed in range(12)] + [prefix_failure_model()]

    @staticmethod
    def cold(m, sels):
        want = [drift_outcome(fresh(m), s) for s in sels]
        walked = [outcome(walk_drift, m, s) for s in sels]
        assert [w if isinstance(w, float) else w[0] for w in want] == walked
        return want

    def test_every_order(self):
        rng = random.Random(3)
        for m in self.MODELS:
            sels = list(all_selections(m))[:60]
            want = self.cold(m, sels)
            orders = [list(range(len(sels))), list(range(len(sels)))[::-1],
                      rng.sample(range(len(sels)), len(sels)),
                      [i for i in range(len(sels)) for _ in range(2)]]
            for order in orders:
                m = fresh(m)
                assert [drift_outcome(m, sels[i]) for i in order] \
                    == [want[i] for i in order]

    def test_two_models_interleaved(self):
        a, b = self.MODELS[-1], self.MODELS[4]
        sels_a, sels_b = list(all_selections(a)), list(all_selections(b))
        want_a, want_b = self.cold(a, sels_a), self.cold(b, sels_b)
        a, b = fresh(a), fresh(b)
        for i in range(max(len(sels_a), len(sels_b))):
            assert drift_outcome(a, sels_a[i % len(sels_a)]) \
                == want_a[i % len(sels_a)]
            assert drift_outcome(b, sels_b[i % len(sels_b)]) \
                == want_b[i % len(sels_b)]

    def test_pass_after_failure_with_the_same_prefix(self):
        m = prefix_failure_model()
        sels = list(all_selections(m))
        want = self.cold(m, sels)
        failing = [i for i, w in enumerate(want) if not isinstance(w, float)]
        # both failure kinds occur, and a passing selection follows one
        # that raises equal exponentials at the last step
        assert {want[i][1] for i in failing} \
            == {_engine._EQUAL_EXP, "a node price of the spot tree is 0"}
        pairs = [(i, i + 1) for i in failing if i + 1 < len(sels)
                 and isinstance(want[i + 1], float)
                 and sels[i].pairs[:-1] == sels[i + 1].pairs[:-1]]
        assert pairs
        for i, j in pairs:
            m = fresh(m)
            assert [drift_outcome(m, sels[i]), drift_outcome(m, sels[j])] \
                == [want[i], want[j]]

    def test_threads_share_a_model(self, monkeypatch):
        # consecutive selections differ in outcome, so a call that read a
        # tree of another thread's half-done call would show
        m = prefix_failure_model()
        sels = list(all_selections(m))
        want = self.cold(m, sels)
        m = fresh(m)
        exp = _engine._exp

        def yielding_exp(x):
            time.sleep(0)     # let another thread run inside each call
            return exp(x)

        monkeypatch.setattr(_engine, "_exp", yielding_exp)
        # each thread sweeps its own order, so the trees the threads grow
        # share prefixes of every length
        orders = [random.Random(k).sample(range(len(sels)), len(sels)) * 12
                  for k in range(4)]
        start = threading.Barrier(4)
        got = {}

        def sweep(k):
            start.wait()
            got[k] = [drift_outcome(m, sels[i]) for i in orders[k]]

        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: [want[i] for i in order]
                       for k, order in enumerate(orders)}

    def test_model_equality_ignores_the_tree(self):
        m = self.MODELS[5]
        twin = fresh(m)
        shown, hashed = repr(m), hash(m)
        for sel in all_selections(m):
            drift_outcome(m, sel)
        assert m._drift_tree is not None and twin._drift_tree is None
        assert m == twin and hash(m) == hash(twin) == hashed
        assert repr(m) == repr(twin) == shown


def walk_outcome(m, sel):
    """max_node_drift's outcome by a depth-first scalar walk: walk_drift's
    value, or ZeroDivisionError with the engine's message.  A node fails
    where its two exponentials are equal or its price is 0.  The first
    failure block (the whole tree; with more than CHUNK_LEAVES leaves, the
    levels above the split level, then each subtree below it in
    depth-first order) that holds a failing node raises, equal
    exponentials before a zero price."""
    n, chunk = m.n_steps, _engine.CHUNK_LEAVES
    split = min(n - (chunk.bit_length() - 1), n - 1) if 2 ** n > chunk \
        else 0
    eps_dn, eps_up = measures._selection_eps(m, sel)
    fails = {}

    def rec(level, index, price, sigma_prev, eps_prev):
        if level == n:
            return
        vol = m.steps[level].vol
        sigma = (vol.initial_sigma() if level == 0 else
                 vol.next_sigma(sigma_prev, eps_prev))
        ed = oracle.exp(sigma * eps_dn[level])
        eu = oracle.exp(sigma * eps_up[level])
        block = 0 if level < split else 1 + (index >> (level - split))
        if ed == eu:
            fails.setdefault(block, set()).add(_engine._EQUAL_EXP)
        elif price == 0.0:
            fails.setdefault(block, set()).add(
                "a node price of the spot tree is 0")
        a = m.steps[level].a
        rec(level + 1, 2 * index, price * (1.0 + a * (ed - 1.0)), sigma,
            eps_dn[level])
        rec(level + 1, 2 * index + 1, price * (1.0 + a * (eu - 1.0)), sigma,
            eps_up[level])

    rec(0, 0, m.s0, 0.0, 0.0)
    if fails:
        kinds = fails[min(fails)]
        return ZeroDivisionError, (
            _engine._EQUAL_EXP if _engine._EQUAL_EXP in kinds
            else "a node price of the spot tree is 0")
    return walk_drift(m, sel)


def pair_model(pattern, vol, seed=7):
    """A model with ``pattern[k]`` spot pairs at step k: one down and p up
    atoms, or two of each for p = 4."""
    rng = random.Random(seed)
    steps = []
    for p in pattern:
        n_dn, n_up = (2, 2) if p == 4 else (1, p)
        eps = [-rng.uniform(0.1, 1.0) for _ in range(n_dn)] \
            + [rng.uniform(0.1, 1.0) for _ in range(n_up)]
        steps.append(StepSpec(rng.uniform(0.2, 0.9), tuple(
            ShockAtom(e, 1.0 / len(eps)) for e in eps), vol))
    return EvolutionModel(100.0, tuple(steps))


def test_engine_takes_no_numpy_exponential():
    # np.exp differs from math.exp in the last bit on some inputs, and
    # the engine's results are the scalar walk's bit for bit
    source = inspect.getsource(_engine)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "exp":
            assert not (isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy")), \
                f"line {node.lineno}: {ast.unparse(node)}"
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            assert "exp" not in [alias.name for alias in node.names]


class TestDriftBlocks:
    """One walk computes the drift outcome of a block of selections; every
    call's outcome is that of a scalar walk, in any call order."""

    ARCH = VolatilitySpec.arch1(0.04, 0.3, 0.05)
    GARCH = VolatilitySpec.garch11(0.04, 0.2, 0.5, 0.05)

    @staticmethod
    def check_orders(m, sels):
        want = [walk_outcome(m, s) for s in sels]
        rng = random.Random(11)
        for order in (list(range(len(sels))), list(range(len(sels)))[::-1],
                      rng.sample(range(len(sels)), len(sels))):
            m = fresh(m)
            assert [drift_outcome(m, sels[i]) for i in order] \
                == [want[i] for i in order]
        return want

    @pytest.mark.parametrize("chunk", [1 << 14, 64, 16, 4, 2, 1])
    def test_failing_block_mates(self, monkeypatch, chunk):
        # equal exponentials, zero prices and a saturated up branch share
        # blocks with passing selections: whole-tree blocks down to one
        # selection per block, and below 8 leaves a split walk
        monkeypatch.setattr(_engine, "CHUNK_LEAVES", chunk)
        m = prefix_failure_model()
        want = self.check_orders(m, list(all_selections(m)))
        kinds = {w[1] if isinstance(w, tuple) else float for w in want}
        assert kinds == {float, _engine._EQUAL_EXP,
                         "a node price of the spot tree is 0"}

    def test_many_blocks(self):
        for pattern, vol in (((2, 2, 2, 3, 3, 3, 3), self.ARCH),
                             ((2, 3, 3, 4, 4), self.GARCH)):
            m = pair_model(pattern, vol)
            sels = list(all_selections(m))
            assert len(sels) == math.prod(pattern)
            self.check_orders(m, sels)

    def test_random_models(self):
        for seed in range(8):
            m = random_model(seed, n_max=5, vol_kinds=ALL_VOLS)
            self.check_orders(m, list(all_selections(m))[:80])

    def test_deep_tree(self):
        m = arch_chain(15)
        steps = list(m.steps)
        for i in (0, 14):
            steps[i] = dataclasses.replace(steps[i], shocks=(
                ShockAtom(-0.4, 0.4), ShockAtom(0.3, 0.3),
                ShockAtom(0.6, 0.3)))
        m = dataclasses.replace(m, steps=tuple(steps))
        assert 2 ** m.n_steps > _engine.CHUNK_LEAVES
        want = self.check_orders(m, list(all_selections(m)))
        assert len(set(want)) == 4

    def test_pairs_outside_the_candidates(self):
        # shocks that are no atom of the model: the call walks its own tree
        m = pair_model((2, 3, 3), self.GARCH)
        other = dataclasses.replace(m, steps=tuple(
            dataclasses.replace(st, shocks=(ShockAtom(-0.05 * k - 0.1, 0.5),
                                            ShockAtom(0.07 * k + 0.2, 0.5)))
            for k, st in enumerate(m.steps)))
        sel = next(all_selections(other))
        shocks = measures._selection_shocks(other, sel)
        want = walk_drift(other, sel)
        assert _engine.max_drift(m, shocks) == want
        for s in all_selections(m):
            SpotMeasure(m, s).max_node_drift()
        assert _engine.max_drift(m, shocks) == want

    @pytest.mark.parametrize("pattern, blocks", [
        ((2, 2, 2, 3, 3, 3, 3), 4), ((2, 3, 3, 4, 4), 1)])
    def test_one_walk_per_block(self, monkeypatch, pattern, blocks):
        # a lexicographic sweep builds one block per distinct prefix above
        # the block level
        m = pair_model(pattern, self.ARCH)
        built = []
        build = _engine._drift_block

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(_engine, "_drift_block", counting)
        for sel in all_selections(m):
            SpotMeasure(m, sel).max_node_drift()
        assert len(built) == blocks

    @pytest.mark.parametrize("chunk, message", [
        (1 << 14, _engine._EQUAL_EXP), (4, _engine._ZERO_PRICE)])
    def test_first_failing_subtree_decides(self, monkeypatch, chunk,
                                           message):
        # price 0 at level 2 below the down child (sigma = 100, e^{-1000},
        # a = 1), equal exponentials at the up child (sigma = 1e-20): in
        # one part equal exponentials win, split below the root the down
        # child's subtree comes first
        monkeypatch.setattr(_engine, "CHUNK_LEAVES", chunk)
        m = EvolutionModel(100.0, (
            StepSpec(0.5, (ShockAtom(-100.0, 0.5), ShockAtom(1e-20, 0.5)),
                     VolatilitySpec.constant(1.0)),
            StepSpec(1.0, (ShockAtom(-10.0, 0.5), ShockAtom(0.5, 0.5)),
                     VolatilitySpec.arch1(1e-300, 1.0, 0.0)),
            StepSpec(0.5, (ShockAtom(-0.5, 0.5), ShockAtom(0.5, 0.5)),
                     VolatilitySpec.constant(1.0))))
        assert self.check_orders(m, list(all_selections(m))) \
            == [(ZeroDivisionError, message)]

    def test_sweep_takes_each_exponential_once(self, monkeypatch):
        # the blocks of a sweep read one grid of the model's histories: at
        # most one exponential per (history, atom) cell of its spot atoms
        m = pair_model((2, 2, 2, 3, 3, 3, 3), self.ARCH)
        args = []
        exp = _engine._exp

        def counting(x):
            args.append(x.size)
            return exp(x)

        monkeypatch.setattr(_engine, "_exp", counting)
        for sel in all_selections(m):
            SpotMeasure(m, sel).max_node_drift()
        atoms = [len(m.strict_down_indices(k)) + len(m.up_indices(k))
                 for k in range(1, m.n_steps + 1)]
        cells = sum(math.prod(atoms[:k + 1]) for k in range(m.n_steps))
        assert sum(args) <= cells

    def test_deep_tree_memory_stays_flat(self):
        # 2**17 leaves, read in parts of CHUNK_LEAVES leaves: 16 floats per
        # leaf of a part, where the whole tree at once would take 8 times
        # more
        m = arch_chain(17)
        sel = next(all_selections(m))
        peak = TestDeepTrees._peak(lambda: SpotMeasure(m, sel).max_node_drift())
        assert peak < 16 * 8 * _engine.CHUNK_LEAVES


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

    def test_sweep(self):
        # arch_chain(16) with a second up atom at step 1, in the levels
        # held above the split, and at step 16, inside the subtrees
        m = arch_chain(16)
        ups = (ShockAtom(-0.4, 0.4), ShockAtom(0.3, 0.3), ShockAtom(0.6, 0.3))
        steps = list(m.steps)
        for i in (0, 15):
            steps[i] = dataclasses.replace(steps[i], shocks=ups)
        m = dataclasses.replace(m, steps=tuple(steps))
        sels = list(all_selections(m))
        want = [walk_drift(m, s) for s in sels]
        assert len(set(want)) > 1
        for order in (sels, sels[::-1]):
            assert [SpotMeasure(m, s).max_node_drift() for s in order] \
                == [want[sels.index(s)] for s in order]

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
        config = SearchConfig(mode="grid", grid_points=9)
        for seed, n in ((1, 2), (2, 3), (3, 3)):
            m = constant_chain(100.0, [0.3 + 0.2 * i for i in range(n)],
                               2.0 + 0.3 * seed, -0.7, 0.7)
            dn, up = pricing._grid_candidates(m, config)
            for payoff in (Payoff.call(80.0), Payoff.asian_put(110.0)):
                assert pricing._ascent(m, payoff, dn, up, config)[:2] \
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

    @pytest.mark.parametrize("sigma", [40.0, 100.0, 1e308])
    def test_drifts_and_path_walks_saturate(self, sigma):
        # at sigma = 1e308, sigma * eps_up itself overflows to inf
        m = constant_chain(100.0, [0.5, 0.8], sigma, -0.7, 20.0)
        for sel in all_selections(m):
            drift = SpotMeasure(m, sel).max_node_drift()
            assert drift == walk_drift(m, sel)
            # the root's saturated up branch leaves the drift of its down
            # branch, 0.5 * (1 - e^{-0.7 sigma})
            assert drift >= 0.5 * (1.0 - math.exp(-0.7 * sigma))
        for idx, path in enumerate_paths(m):
            # atom 1 is the up shock: e^{20 sigma} = inf
            assert math.isinf(path.price_seq[-1]) == (1 in idx.atoms)
            assert math.isfinite(path.price_seq[1]) == (idx.atoms[0] == 0)
        for path in simulate(m, 8, 5):
            idx = PathIndex(tuple(int(e > 0) for e in path.eps_seq))
            assert path == price_path(m, idx)
        up, dn = m.steps[0].shocks[1], m.steps[0].shocks[0]
        assert delta_split(m, (), up) == (math.inf, 0.0, math.inf)
        assert delta_split(m, (20.0,), dn) == (-math.inf, math.inf, 0.0)
        for history in ((), (-0.7,), (20.0,)):
            assert measures.psi_weights(m, history, -0.7, 20.0) == (1.0, 0.0)


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

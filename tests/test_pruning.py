"""Pruned scans: the node-wise bound skips selections, and the sup and inf
stay bit for bit those of the full scan and of the oracle.

Most corpus trees fit in one block of ``CHUNK_LEAVES`` leaves, where the
scan never prunes, so the corpus tests shrink the block to one tree.  The
full scan, the reference, is selected by making ``_Search.start``
decline every input (``full_scan``)."""

import collections
import contextlib
import math
import random

import numpy as np
import pytest

from superhedge import (EvolutionModel, Payoff, SearchConfig, ShockAtom,
                        StepSpec, VolatilitySpec, brute_sup_selections,
                        superhedge_inf, superhedge_sup)
from superhedge import _engine, measures, pricing
from superhedge.model import enumerate_paths

from _corpus import chain_model, fixed_garch8, payoff_menu, random_model

EXHAUSTIVE = SearchConfig(mode="discrete_exhaustive")


@contextlib.contextmanager
def full_scan():
    """Every scan in the block values every combination."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine._Search, "start",
                   staticmethod(lambda *args: None))
        yield


def one_tree_blocks(monkeypatch, m):
    monkeypatch.setattr(_engine, "CHUNK_LEAVES", 2 ** m.n_steps)


def candidates(m):
    atoms_dn, atoms_up, dn, up = measures._atom_candidates(m)
    return dn, up, atoms_dn, atoms_up


def pruned(m, payoff, cands=None, maximize=True):
    """Whether the sup (inf) of ``payoff`` takes the pruned path."""
    dn, up, atoms_dn, atoms_up = cands or candidates(m)
    return _engine._Search.start(*_engine._prepare(
        m, dn, up, payoff, atoms_dn, atoms_up), maximize) is not None


def scans(m, payoff, cands=None):
    """(sup value bits, sup pairs, inf value bits)."""
    dn, up, atoms_dn, atoms_up = cands or candidates(m)
    best, pairs, _ = _engine.scan(m, dn, up, payoff, atoms_dn, atoms_up)
    return best.hex(), pairs, low_bits(m, payoff, cands)


def low_bits(m, payoff, cands=None):
    dn, up, atoms_dn, atoms_up = cands or candidates(m)
    return _engine.scan_min(m, dn, up, payoff, atoms_dn,
                            atoms_up)[0].hex()


def humps(m):
    s0 = m.s0
    return (Payoff.piecewise_linear([(0.0, 0.0), (0.9 * s0, 0.0),
                                     (s0, 0.1 * s0), (1.1 * s0, 0.0)], 0.0),
            Payoff.piecewise_linear([(0.0, 0.5 * s0), (0.8 * s0, 0.1 * s0),
                                     (1.2 * s0, 0.7 * s0),
                                     (1.6 * s0, 0.2 * s0)], 0.3))


def path_table(m):
    return Payoff.path_table({
        idx.atoms: max(max(path.price_seq) - m.s0, 0.0)
        for idx, path in enumerate_paths(m)})


def assert_matches_oracle(m, payoff):
    res = superhedge_sup(m, payoff, EXHAUSTIVE)
    value, sel = brute_sup_selections(m, payoff)
    assert res.value.hex() == value.hex()
    assert res.selection.pairs == sel.pairs
    return res


class TestCorpus:
    def test_sup_and_inf_equal_full_scan_and_oracle(self, monkeypatch):
        took, skipped = 0, 0
        for seed in range(170):
            m = random_model(seed)
            payoffs = payoff_menu(m) + humps(m) + (
                path_table(m), lambda prices: abs(prices[-1] - m.s0))
            # the oracle's sup is the full scan's (test_oracle.py)
            oracle = [brute_sup_selections(m, payoff) for payoff in payoffs]
            with full_scan():
                low = [low_bits(m, payoff) for payoff in payoffs]
            one_tree_blocks(monkeypatch, m)
            for payoff, (value, sel), ref in zip(payoffs, oracle, low):
                assert low_bits(m, payoff) == ref, (seed, payoff)
                res = superhedge_sup(m, payoff, EXHAUSTIVE)
                assert res.value.hex() == value.hex()
                assert res.selection.pairs == sel.pairs
                if pruned(m, payoff):
                    took += 1
                    skipped += measures.selection_count(m) + 1 > res.trees
            monkeypatch.undo()
        assert took > 1000 and skipped > 300

    def test_greedy_incumbent_is_an_engine_value(self):
        # the incumbent is taken on the bound's grid; it must be a value
        # the engine reaches, bit for bit, or a maximum could drop a tie
        checked = 0
        for seed in range(40):
            m = random_model(seed)
            dn, up, atoms_dn, atoms_up = candidates(m)
            for payoff in payoff_menu(m) + humps(m) + (path_table(m),):
                values = set(np.concatenate(list(_engine.scan_values(
                    m, dn, up, payoff, atoms_dn, atoms_up))).tolist())
                for maximize in (True, False):
                    bound = _engine._Bound(*_engine._prepare(
                        m, dn, up, payoff, atoms_dn, atoms_up), maximize)
                    if bound.ok:
                        assert bound.greedy() in values, (seed, payoff)
                        checked += 1
        assert checked > 500

    def test_inf_of_non_convex_payoffs(self, monkeypatch):
        for seed in range(40):
            m = random_model(seed)
            for payoff in humps(m):
                full = superhedge_inf(m, payoff, EXHAUSTIVE)
                assert full.trees == measures.selection_count(m)
                one_tree_blocks(monkeypatch, m)
                got = superhedge_inf(m, payoff, EXHAUSTIVE)
                monkeypatch.undo()
                assert got.value.hex() == full.value.hex()


class TestTies:
    """Every selection within eta of the incumbent is valued, so the first
    maximiser in lexicographic order still wins."""

    def check(self, monkeypatch, m, payoffs):
        for payoff in payoffs:
            with full_scan():
                full = scans(m, payoff)
            value, sel = brute_sup_selections(m, payoff)
            one_tree_blocks(monkeypatch, m)
            assert scans(m, payoff) == full
            res = superhedge_sup(m, payoff, EXHAUSTIVE)
            monkeypatch.undo()
            assert res.value.hex() == value.hex()
            assert res.selection.pairs == sel.pairs
            yield res

    def test_linear_claims(self, monkeypatch):
        for seed in range(30):
            m = random_model(seed)
            for _ in self.check(monkeypatch, m, (
                    Payoff.piecewise_linear([(0.0, 0.0)], 1.0),
                    Payoff.asian_call(1e-3 * m.s0), Payoff.constant(2.5))):
                pass

    def test_all_zero_claims(self, monkeypatch):
        for seed in range(30):
            m = random_model(seed)
            for res in self.check(monkeypatch, m, (Payoff.call(1e9 * m.s0),
                                                   Payoff.constant(0.0))):
                assert res.value.hex() == (0.0).hex()
                # the greedy tree and the first prefix's last-step trees:
                # every later prefix pays exactly 0
                n = m.n_steps
                assert res.trees <= 1 + len(m.strict_down_indices(n)) \
                    * len(m.up_indices(n))

    def test_duplicate_atoms(self, monkeypatch):
        # every candidate twice: each tree has an exact twin later in
        # lexicographic order, and the first copy must win
        models = [m for m in (random_model(seed, vol_kinds=("garch11",))
                              for seed in range(20))
                  if measures.selection_count(m) * 4 ** m.n_steps <= 600]
        assert len(models) >= 8
        for m in models:
            dn, up, atoms_dn, atoms_up = candidates(m)
            twice = tuple([c + c for c in per_step]
                          for per_step in (dn, up, atoms_dn, atoms_up))
            for payoff in payoff_menu(m) + humps(m):
                with full_scan():
                    full = scans(m, payoff, twice)
                one_tree_blocks(monkeypatch, m)
                # a one-step scan has nothing to skip
                assert pruned(m, payoff, twice) == (m.n_steps > 1)
                got = scans(m, payoff, twice)
                monkeypatch.undo()
                assert got == full
                assert all(i < len(dn[st]) and j < len(up[st])
                           for st, (i, j) in enumerate(got[1]))


def saturating_model(sigma):
    atoms = (ShockAtom(-0.7, 0.3), ShockAtom(-0.2, 0.2), ShockAtom(0.7, 0.3),
             ShockAtom(30.0, 0.2))
    return EvolutionModel(100.0, tuple(
        StepSpec(a, atoms, VolatilitySpec.constant(sigma))
        for a in (0.5, 0.3, 0.6)))


class TestFallbacks:
    """Where the bound does not hold or cannot be built, the full scan runs
    and decides the value, the argmax or the exception."""

    def check(self, monkeypatch, m, payoff, oracle=True):
        with full_scan():
            full = scans(m, payoff)
        one_tree_blocks(monkeypatch, m)
        assert not pruned(m, payoff)
        assert scans(m, payoff) == full
        if oracle:
            res = superhedge_sup(m, payoff, EXHAUSTIVE)
            value, sel = brute_sup_selections(m, payoff)
            assert res.value.hex() == value.hex()
            assert res.selection.pairs == sel.pairs
        monkeypatch.undo()
        return full

    @pytest.mark.parametrize("sigma", [30.0, 60.0, 1e308])
    def test_saturating_sigma(self, monkeypatch, sigma):
        m = saturating_model(sigma)
        for payoff in payoff_menu(m) + humps(m):
            self.check(monkeypatch, m, payoff)
        finite = saturating_model(1.0)
        one_tree_blocks(monkeypatch, finite)
        assert pruned(finite, Payoff.call(100.0))

    def test_equal_exponentials(self, monkeypatch):
        m = saturating_model(1e-300)
        payoff = Payoff.call(100.0)
        dn, up, atoms_dn, atoms_up = candidates(m)
        one_tree_blocks(monkeypatch, m)
        assert not pruned(m, payoff)
        for scan in (_engine.scan, _engine.scan_min):
            raised = []
            for context in (contextlib.nullcontext, full_scan):
                with context(), pytest.raises(ZeroDivisionError) as err:
                    scan(m, dn, up, payoff, atoms_dn, atoms_up)
                raised.append(str(err.value))
            assert raised[0] == raised[1] == _engine._EQUAL_EXP

    def test_negative_callable(self, monkeypatch):
        m = random_model(0, vol_kinds=("garch11",))
        self.check(monkeypatch, m, lambda prices: prices[-1] - 2.0 * m.s0)

    def test_nan_payoff(self, monkeypatch):
        m = random_model(0, vol_kinds=("garch11",))
        full = self.check(monkeypatch, m, lambda prices: math.nan,
                          oracle=False)
        assert full == ((-math.inf).hex(), None, math.inf.hex())

    def test_one_block_deep_trees_and_large_grids(self, monkeypatch):
        m = random_model(0, vol_kinds=("garch11",))
        assert not pruned(m, Payoff.call(m.s0))       # one block
        monkeypatch.setattr(_engine, "CHUNK_LEAVES", 2 ** (m.n_steps - 1))
        assert not pruned(m, Payoff.call(m.s0))       # trees split
        one_tree_blocks(monkeypatch, m)
        assert pruned(m, Payoff.call(m.s0))
        assert pruned(m, lambda prices: prices[-1])
        grid = math.prod(m.atom_counts())
        monkeypatch.setattr(_engine, "GRID_LEAVES", grid - 1)
        assert not pruned(m, Payoff.call(m.s0))


class TestRegressionGuard:
    """On the fixed 8-step GARCH model (11,664 selections) the convex
    claims value a handful of trees: a silent return to the full scan
    fails here."""

    @pytest.mark.parametrize("kind", ["call", "put", "asian_call"])
    def test_few_trees(self, kind):
        m = fixed_garch8()
        assert measures.selection_count(m) == 11_664
        payoff = Payoff(kind, strike=m.s0)
        res = superhedge_sup(m, payoff, EXHAUSTIVE)
        assert res.trees <= 16
        dn, up, atoms_dn, atoms_up = candidates(m)
        with full_scan():
            value, pairs, trees = _engine.scan(m, dn, up, payoff, atoms_dn,
                                               atoms_up)
        assert trees == 11_664
        assert res.value.hex() == value.hex()
        assert list(res.eps_pairs) == [
            (dn[st][i], up[st][j]) for st, (i, j) in enumerate(pairs)]

    def test_walk_reads_the_grid(self, monkeypatch):
        # the pruned walk values trees from the bound's grid: it grows no
        # branch, and a plain callable is called on the grid's leaves only
        m = fixed_garch8()
        dn, up, atoms_dn, atoms_up = candidates(m)
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        class Branch(_engine._Branch):
            def __init__(self, *args):
                calls["branch"] += 1
                super().__init__(*args)

        monkeypatch.setattr(_engine, "_Branch", Branch)
        monkeypatch.setattr(_engine, "_grow", counted("grow", _engine._grow))
        claim = counted("claim", lambda prices: max(prices[-1] - m.s0, 0.0))
        tie = Payoff.asian_call(0.2 * m.s0)
        assert pruned(m, tie) and pruned(m, claim)
        calls.clear()
        for payoff in (tie, claim):
            trees = _engine.scan(m, dn, up, payoff, atoms_dn, atoms_up)[2]
            assert trees > 1
        assert calls["branch"] == calls["grow"] == 0
        assert 0 < calls["claim"] <= math.prod(
            len(d) + len(u) for d, u in zip(dn, up))


GRID_PAYOFFS = ("call", "put", "asian_call", "asian_put")


def grid_chain(rng, n, sigma=None):
    """A chain and a strike drawn as the grid benchmark draws them."""
    s0 = rng.uniform(50.0, 150.0)
    a_list = [rng.uniform(0.05, 0.95) for _ in range(n)]
    strike = rng.uniform(0.2, 1.8) * s0
    if sigma is None:
        sigma = rng.uniform(2.1, 3.0)
    return chain_model(s0, a_list, sigma, 0.7), strike


def grid_cands(m, points):
    return pricing._grid_candidates(m, SearchConfig(
        mode="grid", grid_points=points)) + (None, None)


def outcome(scan):
    """``scan()``'s value bits and argmax, or the error it raises."""
    try:
        out = scan()
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return out[0].hex(), out[1] if len(out) == 3 else None


class TestGrid:
    """Grid scans prune wherever ``_Search.start`` accepts them, with the
    full scan's results bit for bit."""

    def check(self, m, payoff, cands, prunes=None):
        dn, up = cands[:2]
        runs = (lambda: _engine.scan(m, dn, up, payoff),
                lambda: _engine.scan_min(m, dn, up, payoff))
        with full_scan():
            full = [outcome(run) for run in runs]
        assert [outcome(run) for run in runs] == full
        if prunes is not None:
            assert pruned(m, payoff, cands) == prunes
        return full

    @pytest.mark.parametrize("n, points, count", [
        (1, 25, 2), (1, 49, 2), (2, 25, 6), (2, 49, 1), (3, 25, 1)])
    def test_corpus(self, n, points, count):
        # the 191M trees of an N=3, 49-point full scan are out of reach
        rng = random.Random(f"grid corpus {n} {points}")
        for _ in range(count):
            m, strike = grid_chain(rng, n)
            cands = grid_cands(m, points)
            for kind in GRID_PAYOFFS:
                self.check(m, Payoff(kind, strike=strike), cands,
                           prunes=n > 1)

    def test_ties(self):
        # a claim linear in the path mean: every tree is worth s0 - K up
        # to its last bits, so nothing is pruned and all are valued
        rng = random.Random("grid ties")
        for _ in range(3):
            m, _ = grid_chain(rng, 2)
            payoff = Payoff.asian_call(0.2 * m.s0)
            cands = grid_cands(m, 25)
            self.check(m, payoff, cands, prunes=True)
            dn, up = cands[:2]
            assert _engine.scan(m, dn, up, payoff)[2] >= 144 ** 2

    @pytest.mark.parametrize("sigma", [30.0, 60.0, 1e308])
    def test_saturating_sigma(self, sigma):
        rng = random.Random(f"grid saturating {sigma}")
        m, strike = grid_chain(rng, 2, sigma)
        cands = grid_cands(m, 25)
        for kind in GRID_PAYOFFS:
            self.check(m, Payoff(kind, strike=strike), cands, prunes=False)

    def test_inf_of_a_hump(self):
        rng = random.Random("grid hump")
        for _ in range(3):
            m, _ = grid_chain(rng, 2)
            s0 = m.s0
            hump = Payoff.piecewise_linear(
                [(0.0, 0.3 * s0), (0.8 * s0, 0.1 * s0),
                 (1.2 * s0, 0.6 * s0), (1.6 * s0, 0.2 * s0)], 0.3)
            config = SearchConfig(mode="grid", grid_points=25)
            assert pruned(m, hump, grid_cands(m, 25), maximize=False)
            with full_scan():
                full = superhedge_inf(m, hump, config)
            got = superhedge_inf(m, hump, config)
            assert got.value.hex() == full.value.hex()
            assert got.trees < full.trees == 144 ** 2

    def test_work_guard(self):
        # a silent return to the full scan fails here
        m = chain_model(100.0, (0.5, 0.3), 2.5, 0.7)
        res = superhedge_sup(m, Payoff.put(110.0),
                             SearchConfig(mode="grid", grid_points=25))
        assert res.combinations == 144 ** 2
        assert res.trees <= 200

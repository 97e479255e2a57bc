"""Pruned exhaustive scans: the node-wise bound skips selections, and the
sup and inf stay bit for bit those of the full scan and of the oracle.

Most corpus trees fit in one block of ``CHUNK_LEAVES`` leaves, where the
scan never prunes, so the corpus tests shrink the block to one tree."""

import math

import pytest

from superhedge import (EvolutionModel, Payoff, SearchConfig, ShockAtom,
                        StepSpec, VolatilitySpec, brute_sup_selections,
                        superhedge_inf, superhedge_sup)
from superhedge import _engine, measures
from superhedge.model import enumerate_paths

from _corpus import fixed_garch8, payoff_menu, random_model

EXHAUSTIVE = SearchConfig(mode="discrete_exhaustive")


def one_tree_blocks(monkeypatch, m):
    monkeypatch.setattr(_engine, "CHUNK_LEAVES", 2 ** m.n_steps)


def candidates(m):
    atoms_dn, atoms_up, dn, up = measures._atom_candidates(m)
    return dn, up, atoms_dn, atoms_up


def pruned(m, payoff, cands=None):
    """Whether the sup of ``payoff`` takes the pruned path."""
    dn, up, atoms_dn, atoms_up = cands or candidates(m)
    return _engine._Search.start(m, dn, up, payoff, atoms_dn, atoms_up,
                                 True) is not None


def scans(m, payoff, prune, cands=None):
    """(sup value bits, sup pairs, inf value bits)."""
    dn, up, atoms_dn, atoms_up = cands or candidates(m)
    best, pairs, _ = _engine.scan(m, dn, up, payoff, atoms_dn, atoms_up,
                                  prune=prune)
    return best.hex(), pairs, low_bits(m, payoff, prune, cands)


def low_bits(m, payoff, prune, cands=None):
    dn, up, atoms_dn, atoms_up = cands or candidates(m)
    return _engine.scan_min(m, dn, up, payoff, atoms_dn, atoms_up,
                            prune=prune)[0].hex()


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
            payoffs = payoff_menu(m) + humps(m) + (path_table(m),)
            # the oracle's sup is the full scan's (test_oracle.py)
            oracle = [brute_sup_selections(m, payoff) for payoff in payoffs]
            low = [low_bits(m, payoff, False) for payoff in payoffs]
            one_tree_blocks(monkeypatch, m)
            for payoff, (value, sel), ref in zip(payoffs, oracle, low):
                assert low_bits(m, payoff, True) == ref, (seed, payoff.kind)
                res = superhedge_sup(m, payoff, EXHAUSTIVE)
                assert res.value.hex() == value.hex()
                assert res.selection.pairs == sel.pairs
                if pruned(m, payoff):
                    took += 1
                    skipped += measures.selection_count(m) + 1 > res.trees
            monkeypatch.undo()
        assert took > 1000 and skipped > 300

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
            full = scans(m, payoff, False)
            value, sel = brute_sup_selections(m, payoff)
            one_tree_blocks(monkeypatch, m)
            assert scans(m, payoff, True) == full
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
                full = scans(m, payoff, False, twice)
                one_tree_blocks(monkeypatch, m)
                assert pruned(m, payoff, twice)
                got = scans(m, payoff, True, twice)
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
        full = scans(m, payoff, False)
        one_tree_blocks(monkeypatch, m)
        assert not pruned(m, payoff)
        assert scans(m, payoff, True) == full
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
            for prune in (True, False):
                with pytest.raises(ZeroDivisionError) as err:
                    scan(m, dn, up, payoff, atoms_dn, atoms_up, prune=prune)
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
        value, pairs, trees = _engine.scan(m, dn, up, payoff, atoms_dn,
                                           atoms_up)
        assert trees == 11_664
        assert res.value.hex() == value.hex()
        assert list(res.eps_pairs) == [
            (dn[st][i], up[st][j]) for st, (i, j) in enumerate(pairs)]

"""Batched spot-tree engine: the one implementation of the spot-tree walk.

A spot measure picks one (down, up) shock pair per step and induces a
weighted binary tree.  At a node with volatility ``sigma`` the price moves
to ``S * (1 + a * (e^{sigma*eps} - 1))`` with the weights of
``model._branch_weights``, (1, 0) where ``e^{sigma*eps_up}`` saturates to
inf; equal exponentials at a live node raise ZeroDivisionError.  A tree's
value is the sum over its leaves of weight times payoff; a branch of weight
exactly 0 is pruned with everything below it.  The volatility recursion is
``VolatilitySpec``'s (``next_sigmas``).  A ``Payoff`` with a formula values
the leaves of a level at once (``Payoff.values``); path-table payoffs and
plain callables receive each leaf's price path and atom indices.

The engine evaluates many trees level by level.  A level holds
``[rows, 2**level]`` arrays of node price, weight, path sum and
volatility.  The nodes of a row are in depth-first order, down branch
first, so the bits of leaf ``k`` (most significant = step 0, 0 = down)
spell its path.  ``value`` evaluates one tree given by its shocks.
``scan``, ``scan_min`` and ``scan_values`` run over every
combination of per-step candidate pairs in lexicographic order (step 0
most significant, down candidate the major index within a step); rows
that share a prefix share its nodes.  ``max_drift`` gives the largest
relative one-step drift over the nodes of the tree ``value`` evaluates.

Results are bit-identical to a depth-first scalar walk (``oracle``
re-derives them leaf by leaf) because:

* every element goes through the same IEEE operations, in the same order,
  as in the scalar recursion;
* leaves are summed left to right in depth-first order, one add at a time
  (column adds or ``np.add.accumulate``; ``np.sum`` adds pairwise);
* pruned branches are masked with ``np.where``, so ``0 * inf`` never turns
  into NaN;
* a maximum takes the first argmax, the strict ``>`` rule of a sequential
  scan, and NaN never wins a maximum or a minimum;
* exponentials come from ``math.exp`` (``model._saturating_exp``), once
  per distinct argument (``np.exp`` differs from it in the last bit on
  some inputs).

Work is cut into blocks of at most ``CHUNK_LEAVES`` leaves, so memory
stays flat however many trees a scan covers and however deep a tree is: a
tree with more leaves is grown whole down to the level whose nodes each
root ``CHUNK_LEAVES`` leaves, and below it one node's subtree at a time,
in depth-first order, adding into the same running sums.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

import numpy as np

from .errors import ValidationError
from .model import _branch_weights, _saturating_exp

NAME = "numpy"
CHUNK_LEAVES = 1 << 14
_FEW = 256         # at most this many exponentials: no de-duplication
_INF = float("inf")
_EQUAL_EXP = "equal e^(sigma*eps) on both branches: the weights divide by zero"


# -- payoffs -------------------------------------------------------------

def formula(payoff):
    """``payoff`` when it values paths by a formula (``Payoff.values``);
    None for path tables and plain callables."""
    return None if getattr(payoff, "kind", "table") == "table" else payoff


def payoff_fn(payoff) -> Callable:
    """Normalize a payoff to a callable (prices, atoms) -> float."""
    value = getattr(payoff, "value", None)
    if value is not None:
        return value
    if callable(payoff):
        return lambda prices, atoms: float(payoff(prices))
    raise ValidationError("payoff is neither a Payoff nor a callable")


# -- one level -----------------------------------------------------------

class _Model:
    """The per-step constants of a model."""

    __slots__ = ("s0", "n", "a", "vols", "radix", "code_dtype")

    def __init__(self, model):
        self.s0 = model.s0
        self.n = model.n_steps
        self.a = [s.a for s in model.steps]
        self.vols = [s.vol for s in model.steps]
        # an atom path is carried as one mixed-radix code, step 0 most
        # significant; Python ints where int64 could overflow
        self.radix = [max(1, len(s.shocks)) for s in model.steps]
        self.code_dtype = np.int64 if math.prod(self.radix) < 2 ** 62 \
            else object

    def atom_paths(self, codes: np.ndarray) -> list[tuple[int, ...]]:
        """The atom index per step of each code."""
        cols = []
        for r in reversed(self.radix):
            codes, atom = np.divmod(codes, r)
            cols.append(atom)
        return list(map(tuple, np.stack(cols[::-1], axis=1).tolist()))


class _Nodes:
    """One level of a batch: ``rows`` partial trees (or shared prefixes of
    trees) with ``2**level`` nodes each.  ``live`` is None while no branch
    has been pruned; ``psum``, ``hist`` (price paths) and ``atoms`` (atom
    path codes, see ``_Model``) are carried only when the payoff needs
    them."""

    __slots__ = ("price", "prob", "psum", "live", "sigma", "hist", "atoms")

    def __init__(self, price, prob, psum, live, sigma, hist, atoms):
        self.price = price
        self.prob = prob
        self.psum = psum
        self.live = live
        self.sigma = sigma
        self.hist = hist
        self.atoms = atoms

    @property
    def rows(self) -> int:
        return self.price.shape[0]

    @property
    def width(self) -> int:
        return self.price.shape[1]

    def take(self, lo: int, hi: int) -> "_Nodes":
        """Rows ``lo:hi``."""
        def cut(x):
            return x if x is None or x.shape[0] == 1 else x[lo:hi]
        return self._map(cut)

    def cols(self, lo: int, hi: int) -> "_Nodes":
        """Nodes ``lo:hi`` of every row."""
        def cut(x):
            return x if x is None or x.shape[1] == 1 else x[:, lo:hi]
        return self._map(cut)

    def _map(self, cut) -> "_Nodes":
        return _Nodes(cut(self.price), cut(self.prob), cut(self.psum),
                      cut(self.live), cut(self.sigma), cut(self.hist),
                      cut(self.atoms))


def _root(m: _Model, want_psum: bool, want_paths: bool,
          with_atoms: bool) -> _Nodes:
    one = np.full((1, 1), m.s0)
    sigma = np.full((1, 1), m.vols[0].initial_sigma())
    return _Nodes(one, np.ones((1, 1)), one if want_psum else None, None,
                  sigma, one[:, :, None] if want_paths else None,
                  np.zeros((1, 1), dtype=m.code_dtype) if with_atoms else None)


def _exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element of the 1-D ``x``, once per distinct
    value; an overflow gives inf."""
    inv = None
    if x.size > _FEW:
        x, inv = np.unique(x, return_inverse=True)
    args = x.tolist()
    try:
        out = np.fromiter(map(math.exp, args), float, len(args))
    except OverflowError:
        out = np.array([_saturating_exp(v) for v in args])
    return out if inv is None else out[inv.ravel()]


class _Branch:
    """Exponentials and branch weights of every (node, pair) at one level,
    shaped ``[rows | 1, pairs, nodes | 1]``."""

    __slots__ = ("ed", "eu", "psi_d", "psi_u")

    def __init__(self, nodes: _Nodes, eps_d, eps_u):
        s = nodes.sigma[:, None, :]
        args_d = s * eps_d[:, :, None]
        args_u = s * eps_u[:, :, None]
        e = _exp(np.concatenate((args_d.ravel(), args_u.ravel())))
        self.ed = ed = e[:args_d.size].reshape(args_d.shape)
        self.eu = eu = e[args_d.size:].reshape(args_u.shape)
        equal = ed == eu
        if nodes.live is not None:
            equal = equal & nodes.live[:, None, :]
        if equal.any():
            raise ZeroDivisionError(_EQUAL_EXP)
        self.psi_d, self.psi_u = _branch_weights(ed, eu)


def _children(shape, dtype=float) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """An array for the children of ``[rows, pairs, nodes]`` parents, laid
    out as ``[rows * pairs, 2 * nodes]`` (down child first), with views of
    its down and up halves in the parents' shape."""
    out = np.empty(shape + (2,), dtype=dtype)
    return out.reshape(shape[0] * shape[1], shape[2] * 2), out[..., 0], \
        out[..., 1]


def _interleave(x_d, x_u, shape) -> np.ndarray:
    out, down, up = _children(shape, np.result_type(x_d, x_u))
    down[...] = x_d
    up[...] = x_u
    return out


def _grow(m: _Model, level: int, nodes: _Nodes, br: _Branch, eps_d, eps_u,
          at_d, at_u) -> _Nodes:
    """The next level: every node of every row under every pair."""
    a = m.a[level]
    price = nodes.price[:, None, :]
    shape = np.broadcast_shapes(price.shape, br.ed.shape)
    new_price, p_d, p_u = _children(shape)
    for e, out in ((br.ed, p_d), (br.eu, p_u)):
        f = e - 1.0                       # price * (1 + a * (e - 1))
        f *= a
        f += 1.0
        np.multiply(price, f, out=out)
    prob = nodes.prob[:, None, :]
    new_prob, q_d, q_u = _children(shape)
    np.multiply(prob, br.psi_d, out=q_d)
    np.multiply(prob, br.psi_u, out=q_u)
    psum = None
    if nodes.psum is not None:
        s = nodes.psum[:, None, :]
        psum = _interleave(s + p_d, s + p_u, shape)
    keep_d, keep_u = br.psi_d != 0.0, br.psi_u != 0.0
    live = nodes.live
    if live is not None or not (keep_d.all() and keep_u.all()):
        was = True if live is None else live[:, None, :]
        live = _interleave(was & keep_d, was & keep_u, shape)
    sigma = None
    if level + 1 < m.n:
        vol = m.vols[level + 1]
        if vol.kind == "constant":
            sigma = np.full((1, 1), vol.sigma)
        else:
            s = nodes.sigma[:, None, :, None]
            eps = np.stack((eps_d, eps_u), axis=-1)
            sig = vol.next_sigmas(s, s * eps[:, :, None, :])
            if sig.shape != shape + (2,):
                sig = np.broadcast_to(sig, shape + (2,))
            sigma = sig.reshape(shape[0] * shape[1], shape[2] * 2)
    hist = atoms = None
    if nodes.hist is not None:
        out = np.empty(shape + (2, level + 2))
        out[..., :level + 1] = nodes.hist[:, None, :, None, :]
        out[:, :, :, 0, level + 1] = p_d
        out[:, :, :, 1, level + 1] = p_u
        hist = out.reshape(shape[0] * shape[1], shape[2] * 2, level + 2)
    if nodes.atoms is not None:
        base = nodes.atoms[:, None, :] * m.radix[level]
        atoms = _interleave(base + at_d[:, :, None], base + at_u[:, :, None],
                            shape)
    return _Nodes(new_price, new_prob, psum, live, sigma, hist, atoms)


# -- leaves --------------------------------------------------------------

class _Payoff:
    """How the leaves of one evaluation are valued."""

    __slots__ = ("formula", "fn", "want_psum", "want_paths")

    def __init__(self, payoff):
        self.formula = formula(payoff)
        self.fn = None if self.formula is not None else payoff_fn(payoff)
        self.want_psum = self.formula is not None \
            and self.formula.reads_path_sum
        self.want_paths = self.formula is None


def _leaf_values(m: _Model, pay: _Payoff, nodes: _Nodes,
                 acc: np.ndarray | None = None) -> np.ndarray:
    """Tree value of every row: its leaves' weight * payoff, added left to
    right in depth-first order to ``acc`` (zeros when None)."""
    if pay.formula is not None:
        contrib = pay.formula.values(nodes.price, nodes.psum, m.n)
    else:
        contrib = _path_values(m, pay.fn, nodes)
    contrib *= nodes.prob
    if nodes.live is not None:
        contrib[~nodes.live] = 0.0
    rows, cols = contrib.shape
    if acc is None:
        acc = np.zeros(rows)
    # acc + c0 + c1 + ..., one add at a time: a numpy call per column for
    # many short rows, a sequential accumulate along each of a few long ones
    if rows >= cols:
        for k in range(cols):
            acc += contrib[:, k]
    else:
        contrib[:, 0] += acc
        np.add.accumulate(contrib, axis=1, out=contrib)
        acc[...] = contrib[:, -1]
    return acc


def _path_values(m: _Model, fn, nodes: _Nodes) -> np.ndarray:
    """A callable payoff at every live leaf; with atom paths known, once
    per distinct path."""
    shape = nodes.price.shape
    hist = nodes.hist.reshape(-1, nodes.hist.shape[-1])
    out = np.zeros(hist.shape[0])
    idx = (np.arange(out.size) if nodes.live is None
           else np.flatnonzero(nodes.live))
    if nodes.atoms is None:
        out[idx] = [fn(tuple(h), None) for h in hist[idx].tolist()]
    elif idx.size:
        codes, first, inv = np.unique(nodes.atoms.reshape(-1)[idx],
                                      return_index=True, return_inverse=True)
        vals = [fn(tuple(h), atoms) for h, atoms in
                zip(hist[idx[first]].tolist(), m.atom_paths(codes))]
        out[idx] = np.array(vals, dtype=float)[inv.ravel()]
    return out.reshape(shape)


# -- explicit trees --------------------------------------------------------

def _split_level(n: int) -> int:
    """The level whose nodes each root at most ``CHUNK_LEAVES`` leaves of
    an ``n``-step tree (0 when the whole tree fits)."""
    return max(0, n - (CHUNK_LEAVES.bit_length() - 1))


def _leaf_blocks(m: _Model, nodes: _Nodes, grow) -> Iterator[_Nodes]:
    """The leaves under the roots ``nodes``, grown by ``grow(nodes,
    level)``, in depth-first blocks of at most ``CHUNK_LEAVES`` leaves.
    Only a single tree (one row) can hold more."""
    top = _split_level(m.n)
    for level in range(top):
        nodes = grow(nodes, level)
    for j in range(nodes.width if top else 1):
        block = nodes.cols(j, j + 1) if top else nodes
        for level in range(top, m.n):
            block = grow(block, level)
        yield block


def _tree_value(m: _Model, pay: _Payoff, eps_dn, eps_up, atoms_dn,
                atoms_up) -> float:
    with_atoms = atoms_dn is not None and pay.want_paths
    eps_d = np.asarray(eps_dn, dtype=float).reshape(m.n, 1, 1)
    eps_u = np.asarray(eps_up, dtype=float).reshape(m.n, 1, 1)
    if with_atoms:
        at_d = np.asarray(atoms_dn, dtype=np.int64).reshape(m.n, 1, 1)
        at_u = np.asarray(atoms_up, dtype=np.int64).reshape(m.n, 1, 1)
    else:
        at_d = at_u = [None] * m.n

    def grow(nodes, level):
        return _grow(m, level, nodes,
                     _Branch(nodes, eps_d[level], eps_u[level]),
                     eps_d[level], eps_u[level], at_d[level], at_u[level])

    acc = np.zeros(1)
    for leaves in _leaf_blocks(m, _root(m, pay.want_psum, pay.want_paths,
                                        with_atoms), grow):
        _leaf_values(m, pay, leaves, acc)
    return float(acc[0])


def value(model, eps_dn, eps_up, payoff, atoms_dn=None,
          atoms_up=None) -> float:
    """Expectation of ``payoff`` under one spot tree: ``eps_dn`` /
    ``eps_up`` hold its shock pair per step, and ``atoms_dn`` /
    ``atoms_up`` the atom indices that path tables and callables
    receive."""
    m = _Model(model)
    with np.errstate(all="ignore"):
        return _tree_value(m, _Payoff(payoff), eps_dn, eps_up, atoms_dn,
                           atoms_up)


def _drift(m: _Model, pairs, first: int, stop: int, price, sigma):
    """Grow one spot tree from the nodes of level ``first`` (prices
    ``price``, volatility ``sigma``, one value when shared) down to level
    ``stop``: the largest drift ratio over the nodes grown (at least 0),
    and the prices and volatilities of level ``stop``."""
    prices, exps = [], []
    for level in range(first, stop):
        args = sigma[:, None] * pairs[level]
        e = _exp(args.ravel()).reshape(args.shape)
        prices.append(price)
        exps.append(e if e.shape[0] == price.size
                    else np.broadcast_to(e, (price.size, 2)))
        if level + 1 == m.n:
            break
        price = (price[:, None] * (1.0 + m.a[level] * (e - 1.0))).ravel()
        vol = m.vols[level + 1]
        if vol.kind == "constant":
            sigma = np.array([vol.sigma])
        else:
            sigma = vol.next_sigmas(sigma[:, None], args)
            if sigma.size != price.size:
                sigma = np.broadcast_to(sigma, (price.size // 2, 2))
            sigma = sigma.ravel()
    s = np.concatenate(prices)
    e = np.concatenate(exps)
    ed, eu = e[:, 0], e[:, 1]
    psi_d, psi_u = _branch_weights(ed, eu)
    pa = s * np.repeat(m.a[first:stop], [p.size for p in prices])
    em1 = e - 1.0
    # a saturated up branch has weight 0 and adds no drift, not 0 * inf
    ratio = np.abs(psi_d * (pa * em1[:, 0]) + np.where(
        eu == _INF, 0.0, psi_u * (pa * em1[:, 1]))) / s
    top = float(np.maximum.reduce(ratio))
    if not math.isfinite(top):     # a failing node's ratio is inf or NaN
        if (ed == eu).any():
            raise ZeroDivisionError(_EQUAL_EXP)
        if (s == 0.0).any():
            raise ZeroDivisionError("a node price of the spot tree is 0")
        top = float(np.fmax.reduce(ratio, initial=0.0))
    return top, price, sigma


def max_drift(model, eps_dn, eps_up) -> float:
    """Largest |conditional one-step drift| / node price over the nodes of
    one spot tree (``eps_dn`` / ``eps_up``: its shock pair per step), every
    node, pruned or not.  The tree is the one ``value`` evaluates:
    exponentials saturate to inf, a saturated up branch has the limit
    weights (1, 0) and a drift of psi_down * S * a * (e^{sigma*eps_dn} - 1),
    and NaN ratios (below an infinite price) never win.  ZeroDivisionError
    where a node's two exponentials are equal (a zero weight denominator)
    or its price is 0."""
    m = _Model(model)
    n = m.n
    pairs = [np.array(p) for p in zip(eps_dn, eps_up)]
    top = min(_split_level(n), n - 1)
    price = np.array([m.s0])
    sigma = np.array([m.vols[0].initial_sigma()])
    worst = 0.0
    with np.errstate(all="ignore"):
        if top:
            worst, price, sigma = _drift(m, pairs, 0, top, price, sigma)
        for j in range(price.size):
            s = sigma[j:j + 1] if sigma.size > 1 else sigma
            worst = max(worst,
                        _drift(m, pairs, top, n, price[j:j + 1], s)[0])
    return worst


# -- scans over candidate combinations ----------------------------------------

class _Plan:
    """Per-step candidate pairs of a scan, pair ``p = i * n_up + j``."""

    def __init__(self, dn_cands, up_cands, atoms_dn, atoms_up):
        self.eps_d, self.eps_u, self.at_d, self.at_u = [], [], [], []
        self.n_up, self.pairs = [], []
        for st, (dn, up) in enumerate(zip(dn_cands, up_cands)):
            nd, nu = len(dn), len(up)
            self.eps_d.append(np.repeat(np.asarray(dn, dtype=float), nu)[None])
            self.eps_u.append(np.tile(np.asarray(up, dtype=float), nd)[None])
            if atoms_dn is not None:
                self.at_d.append(np.repeat(np.asarray(atoms_dn[st],
                                                      dtype=np.int64), nu)[None])
                self.at_u.append(np.tile(np.asarray(atoms_up[st],
                                                    dtype=np.int64), nd)[None])
            else:
                self.at_d.append(None)
                self.at_u.append(None)
            self.n_up.append(nu)
            self.pairs.append(nd * nu)

    def decode(self, flat: int) -> list[tuple[int, int]]:
        out = []
        for p_count, nu in zip(reversed(self.pairs), reversed(self.n_up)):
            flat, p = divmod(flat, p_count)
            out.append((p // nu, p % nu))
        return out[::-1]


def _deep_scan(m: _Model, pay: _Payoff, plan: _Plan, with_atoms: bool
               ) -> Iterator[np.ndarray]:
    """``scan_values`` for trees of more than ``CHUNK_LEAVES`` leaves: one
    tree at a time."""
    with np.errstate(all="ignore"):
        for combo in itertools.product(*map(range, plan.pairs)):
            def pick(per_step):
                return [per_step[st][0, p] for st, p in enumerate(combo)]
            yield np.array([_tree_value(
                m, pay, pick(plan.eps_d), pick(plan.eps_u),
                pick(plan.at_d) if with_atoms else None,
                pick(plan.at_u) if with_atoms else None)])


def scan_values(model, dn_cands, up_cands, payoff, atoms_dn=None,
                atoms_up=None) -> Iterator[np.ndarray]:
    """Tree values of every candidate combination, in lexicographic order,
    one chunk at a time."""
    m = _Model(model)
    pay = _Payoff(payoff)
    plan = _Plan(dn_cands, up_cands, atoms_dn, atoms_up)
    with_atoms = atoms_dn is not None and pay.want_paths
    n = m.n
    if 2 ** n > CHUNK_LEAVES:
        yield from _deep_scan(m, pay, plan, with_atoms)
        return
    below = [0] * (n + 1)      # leaves under one row at each level
    below[n] = 2 ** n
    for level in range(n - 1, -1, -1):
        below[level] = below[level + 1] * plan.pairs[level]

    def expand(nodes, level, lo=0, hi=None):
        sl = slice(lo, hi)
        eps_d, eps_u = plan.eps_d[level][:, sl], plan.eps_u[level][:, sl]
        br = _Branch(nodes, eps_d, eps_u)
        at_d = plan.at_d[level][:, sl] if with_atoms else None
        at_u = plan.at_u[level][:, sl] if with_atoms else None
        return _grow(m, level, nodes, br, eps_d, eps_u, at_d, at_u)

    def walk(nodes, level):
        if level == n:
            yield _leaf_values(m, pay, nodes)
            return
        rows, per_row = nodes.rows, below[level]
        if rows * per_row <= CHUNK_LEAVES:
            yield from walk(expand(nodes, level), level + 1)
        elif per_row <= CHUNK_LEAVES:
            step = CHUNK_LEAVES // per_row
            for lo in range(0, rows, step):
                yield from walk(expand(nodes.take(lo, lo + step), level),
                                level + 1)
        else:
            step = max(1, CHUNK_LEAVES // below[level + 1])
            for r in range(rows):
                row = nodes.take(r, r + 1)
                for lo in range(0, plan.pairs[level], step):
                    yield from walk(expand(row, level, lo, lo + step),
                                    level + 1)

    with np.errstate(all="ignore"):
        yield from walk(_root(m, pay.want_psum, pay.want_paths, with_atoms), 0)


def scan(model, dn_cands, up_cands, payoff, atoms_dn=None, atoms_up=None):
    """Maximum tree value over every candidate combination and its per-step
    (down, up) candidate indices; ties and NaN resolve as in a sequential
    scan that keeps the incumbent unless a value is strictly larger
    (indices None when no value exceeds -inf)."""
    plan = _Plan(dn_cands, up_cands, None, None)
    best, best_at, offset = -_INF, None, 0
    for vals in scan_values(model, dn_cands, up_cands, payoff, atoms_dn,
                            atoms_up):
        clean = np.where(np.isnan(vals), -_INF, vals)
        i = int(np.argmax(clean))
        if clean[i] > best:
            best, best_at = float(clean[i]), offset + i
        offset += vals.size
    return best, None if best_at is None else plan.decode(best_at)


def scan_min(model, dn_cands, up_cands, payoff, atoms_dn=None,
             atoms_up=None) -> float:
    """Minimum tree value over every candidate combination (NaN never
    wins; +inf when there is nothing smaller)."""
    worst = _INF
    for vals in scan_values(model, dn_cands, up_cands, payoff, atoms_dn,
                            atoms_up):
        low = float(np.where(np.isnan(vals), _INF, vals).min())
        if low < worst:
            worst = low
    return worst

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
relative one-step drift over the nodes of the tree ``value`` evaluates, in
the same floats.  A node's drift depends only on its history and the pair
of its level, so it is computed once per (history, pair) on a grid of
every history of the candidate atoms (``_DriftGrid``, whose forward pass
``_histories`` is also ``_Bound``'s), and a selection gathers its nodes
from the grid.  A call reads the outcomes of a block, every selection of
the model's candidate pairs that shares the call's pairs above a level,
and keeps block and grid on the model: a sweep over the selections builds
the model's grid once and gathers one block at a time.

Results are bit-identical to a depth-first scalar walk (``oracle``
re-derives them leaf by leaf) because:

* every element goes through the same IEEE operations, in the same order,
  as in the scalar recursion;
* leaves are summed left to right in depth-first order, one add at a time
  (``_row_sums``: column adds or ``np.add.accumulate``; ``np.sum`` adds
  pairwise);
* pruned branches are masked with ``np.where``, so ``0 * inf`` never turns
  into NaN;
* a maximum takes the first argmax, the strict ``>`` rule of a sequential
  scan, and NaN never wins a maximum or a minimum;
* exponentials come from ``math.exp`` (``model._saturating_exp``), once
  per distinct argument (``np.exp`` differs from it in the last bit on
  some inputs).

Work is cut into blocks of at most ``CHUNK_LEAVES`` leaves (for drifts,
(node, pair) cells of the last level that has drifts, the leaves'
parents), so memory stays flat however many trees a scan covers and
however deep a tree is: a tree with more leaves is grown whole down to the
split level, whose nodes each root ``CHUNK_LEAVES`` leaves
(``_split_level``), and below it one node's subtree at a time, in
depth-first order, adding into the same running sums (for drifts, a grid
per subtree and the same running maximum).

``scan`` and ``scan_min`` (every sup and inf scan of ``pricing``:
exhaustive, grid and grid mode's coordinate ascent) skip the combinations
that cannot win.  ``_Bound`` holds every history of the candidate atoms,
with the engine's weights and leaf payoffs, and prices each by backward
induction, choosing the best pair at each node (Föllmer & Schied,
*Stochastic Finance*): an upper (lower) price of every selection below a
history.  ``_Search`` walks the full scan's batches in its order on that
grid, a row being its nodes' history indices and weights, and drops a
prefix whose bound, widened by the rounding allowance eta, delta proved
in ``_Bound``, cannot reach the best value found (Land & Doig).  A kept
combination's value is the sum of its leaves' weight times payoff in the
full scan's operations and order, so the value, the argmax and the
tie-breaking are the full scan's bit for bit; values within eta of each
other are all valued, since only their last bits decide the first argmax,
so a claim whose selections tie (a linear claim) gains nothing, and a
batch whose bounds dropped nothing grows its subtree without them.
The full scan runs only where ``_Search.start`` declines: one block holds
the whole scan or it has one step, a tree has more than ``CHUNK_LEAVES``
leaves, the candidate grid has more than ``GRID_LEAVES`` leaves, or the
bound holds a non-finite exponential, price or value or a negative payoff
or raises (the full scan then raises its own error).
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

    def take(self, rows) -> "_Nodes":
        """The rows ``rows`` (a slice or an index array)."""
        def cut(x):
            return x if x is None or x.shape[0] == 1 else x[rows]
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
    shaped ``[rows | 1, pairs, nodes | 1]``.  Where a node's two
    exponentials are equal its weights are 0 / 0: a tree walk raises there
    if the node is live (``checked``)."""

    __slots__ = ("ed", "eu", "psi_d", "psi_u")

    def __init__(self, nodes: _Nodes, eps_d, eps_u):
        s = nodes.sigma[:, None, :]
        args_d = s * eps_d[:, :, None]
        args_u = s * eps_u[:, :, None]
        e = _exp(np.concatenate((args_d.ravel(), args_u.ravel())))
        self.ed = ed = e[:args_d.size].reshape(args_d.shape)
        self.eu = eu = e[args_d.size:].reshape(args_u.shape)
        self.psi_d, self.psi_u = _branch_weights(ed, eu)

    def checked(self, nodes: _Nodes) -> "_Branch":
        """This branch; ZeroDivisionError where a live node of ``nodes``
        has equal exponentials (nothing below a pruned node is valued)."""
        equal = self.ed == self.eu
        if nodes.live is not None:
            equal = equal & nodes.live[:, None, :]
        if equal.any():
            raise ZeroDivisionError(_EQUAL_EXP)
        return self


def _moved(price, e, a: float, out=None) -> np.ndarray:
    """The price step ``price * (1 + a * (e - 1))``, in this operation
    order, for every (node, exponential) that broadcasts together."""
    f = e - 1.0
    f *= a
    f += 1.0
    return np.multiply(price, f, out=out)


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
        _moved(price, e, a, out)
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
    """Tree value of every row: its leaves' weight * payoff, added to
    ``acc`` as ``_row_sums`` adds them."""
    contrib = _payoffs(m, pay, nodes)
    contrib *= nodes.prob
    if nodes.live is not None:
        contrib[~nodes.live] = 0.0
    return _row_sums(contrib, acc)


def _row_sums(contrib: np.ndarray, acc: np.ndarray | None = None
              ) -> np.ndarray:
    """Every row of ``contrib`` added left to right, one add at a time, to
    ``acc`` (zeros when None): a tree's leaf terms in depth-first order.
    ``contrib`` may be overwritten."""
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


def _payoffs(m: _Model, pay: _Payoff, nodes: _Nodes) -> np.ndarray:
    """The payoff at every leaf of ``nodes`` (a fresh array)."""
    if pay.formula is not None:
        return pay.formula.values(nodes.price, nodes.psum, m.n)
    return _path_values(m, pay.fn, nodes)


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
    an ``n``-step tree, at most ``n - 1`` so that a subtree has a level
    (0 when the whole tree fits)."""
    return max(0, min(n - (CHUNK_LEAVES.bit_length() - 1), n - 1))


def _leaf_blocks(m: _Model, nodes: _Nodes, grow) -> Iterator[_Nodes]:
    """The leaves under the roots ``nodes``, grown by ``grow(nodes,
    level)``, in depth-first blocks of at most ``CHUNK_LEAVES`` leaves
    (two at least).  Only a single tree (one row) can hold more."""
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
                     _Branch(nodes, eps_d[level], eps_u[level]).checked(nodes),
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


_ZERO_PRICE = "a node price of the spot tree is 0"


def _outcomes(top, equal, zero) -> tuple:
    """Per completion its drift (+0.0 when no ratio is positive), or the
    message it raises: equal exponentials before a zero price."""
    out = np.where(top > 0.0, top, 0.0).tolist()
    for i in np.flatnonzero(zero).tolist():
        out[i] = _ZERO_PRICE
    for i in np.flatnonzero(equal).tolist():
        out[i] = _EQUAL_EXP
    return tuple(out)


# -- history grids ---------------------------------------------------------

def _histories(m: _Model, eps, price=None, sigma=None,
               first: int = 0) -> Iterator[tuple]:
    """The forward pass over every history of per-level candidate atoms,
    for ``_Bound``'s grid and the drift grid.  ``eps[i]`` holds the atoms
    of level ``first + i`` (a 1-D array), ``price`` / ``sigma`` the
    histories at level ``first`` (the root when None).  Yields, per level,
    the node prices ``[G]``, volatilities (``[1]`` for a constant law) and
    exponentials ``[G | 1, c]``, a child's history index being its
    parent's times ``c`` plus its atom's; after the last level, the
    children's prices and volatilities (None at the leaves) with None.
    The engine's own arithmetic (``_exp``, ``_moved``, ``next_sigmas``),
    so every float is a tree walk's bit for bit."""
    if price is None:
        price = np.array([m.s0])
        sigma = np.array([m.vols[0].initial_sigma()])
    for k, x in enumerate(eps, first):
        args = sigma[:, None] * x
        e = _exp(args.ravel()).reshape(args.shape)
        yield price, sigma, e
        grown = _moved(price[:, None], e, m.a[k])          # [G, c]
        if k + 1 == m.n:
            sigma = None
        else:
            vol = m.vols[k + 1]
            sigma = (np.array([vol.sigma]) if vol.kind == "constant"
                     else np.broadcast_to(vol.next_sigmas(
                         sigma[:, None], args), grown.shape).ravel())
        price = grown.ravel()
    yield price, sigma, None


def _pair_atoms(cands) -> tuple[list, list]:
    """A level's atoms for candidate pairs ``cands`` ((eps_d, eps_u)
    tuples): their distinct down shocks, then their distinct up shocks,
    and each pair's (down, up) atom column."""
    downs = list(dict.fromkeys(d for d, _ in cands))
    ups = list(dict.fromkeys(u for _, u in cands))
    col_d = {d: i for i, d in enumerate(downs)}
    col_u = {u: i for i, u in enumerate(ups, len(downs))}
    return downs + ups, [(col_d[d], col_u[u]) for d, u in cands]


class _DriftGrid:
    """The drift inputs of every history of the candidate pairs ``cands``
    (per level from ``first``, a tuple of (eps_d, eps_u)), the histories
    being ``_histories``' over each level's ``_pair_atoms``.  Per level:
    the ratio |psi_d S a (e_d - 1) + psi_u S a (e_u - 1)| / S and the
    equal-exponential flag of every (history, pair), ``[G, pairs]``, and
    the zero-price flag of every history.  The weights are
    ``_branch_weights``', and a saturated up branch, weight 0, adds no
    drift.  Where the grid ends above the leaves, ``price`` and ``sigma``
    hold the histories of the next level.  Never written once built."""

    __slots__ = ("cands", "cols", "width", "ratio", "equal", "zero",
                 "price", "sigma")

    def __init__(self, m: _Model, cands, first: int = 0, price=None,
                 sigma=None):
        self.cands = cands
        atoms, self.cols = [], []
        for c in cands:
            at, cols = _pair_atoms(c)
            atoms.append(np.array(at, dtype=float))
            self.cols.append(np.array(cols, dtype=np.intp))
        self.width = [at.size for at in atoms]
        self.ratio, self.equal, self.zero = [], [], []
        self.price = self.sigma = None
        below = first + len(cands) < m.n      # the grid ends above the leaves
        levels = itertools.islice(_histories(m, atoms, price, sigma, first),
                                  len(cands) + below)
        for k, (price, sigma, e) in enumerate(levels, first):
            if e is None:
                self.price = price
                self.sigma = np.broadcast_to(sigma, price.shape)
                break
            cols = self.cols[k - first]
            ed, eu = e[:, cols[:, 0]], e[:, cols[:, 1]]
            psi_d, psi_u = _branch_weights(ed, eu)
            s = price[:, None]
            pa = s * m.a[k]
            ratio = np.abs(psi_d * (pa * (ed - 1.0)) + np.where(
                eu == _INF, 0.0, psi_u * (pa * (eu - 1.0)))) / s
            self.ratio.append(ratio)
            self.equal.append(np.broadcast_to(ed == eu, ratio.shape))
            self.zero.append(price == 0.0)

    def reduce(self, picks) -> tuple:
        """Per completion of the tree below the grid's first history, level
        ``i`` taking each pair of ``picks[i]`` (an index array; every pair
        when None), in mixed radix, the first level most significant: the
        running maximum of its nodes' ratios (``fmax`` from 0.0, so NaN
        never wins), and whether a node has equal exponentials, or price
        0.  Each completion gathers its nodes' history indices."""
        hidx = np.zeros((1, 1), dtype=np.intp)          # [rows, nodes]
        top = np.zeros(1)
        equal = zero = np.zeros(1, dtype=bool)
        for i, pick in enumerate(picks):
            ratio, eq, cols = self.ratio[i], self.equal[i], self.cols[i]
            if pick is not None:
                ratio, eq, cols = ratio[:, pick], eq[:, pick], cols[pick]
            top = np.maximum(top[:, None], np.fmax.reduce(
                ratio[hidx], axis=1, initial=0.0)).ravel()
            equal = (equal[:, None] | eq[hidx].any(axis=1)).ravel()
            zero = np.repeat(zero | self.zero[i][hidx].any(axis=1),
                             len(cols))
            if i + 1 < len(picks):
                hidx = (hidx[:, None, :, None] * self.width[i]
                        + cols[:, None, :]).reshape(top.size, -1)
        return top, equal, zero


# -- the drift check -------------------------------------------------------

class _DriftBlock:
    """The drift outcomes of every selection whose pairs above ``level``
    are ``prefix``: one per completion below ``level``, ``where`` mapping
    its pairs to its index, and the grid they were read from (None for a
    tree of more than ``CHUNK_LEAVES`` leaves).  Never written once
    built."""

    __slots__ = ("level", "prefix", "where", "outcomes", "grid")

    def __init__(self, level, prefix, where, outcomes, grid):
        self.level = level
        self.prefix = prefix
        self.where = where
        self.outcomes = outcomes
        self.grid = grid

    def find(self, pairs) -> int | None:
        """The completion index of ``pairs``, or None outside the block."""
        if pairs[:self.level] != self.prefix:
            return None
        return self.where.get(pairs[self.level:])


def _block_level(counts) -> int:
    """The first level whose block (every completion of ``counts`` pairs
    per step below it) holds at most ``CHUNK_LEAVES`` nodes at a tree's
    last drift level, ``2**(n - 1)`` per tree."""
    n = len(counts)
    completions = 1
    for level in range(n - 1, -1, -1):
        completions *= counts[level]
        if completions * 2 ** (n - 1) > CHUNK_LEAVES:
            return level + 1
    return 0


def _split_outcome(m: _Model, pairs, split: int):
    """The outcome of one tree of more than ``CHUNK_LEAVES`` leaves, read
    in parts so that memory stays flat: a grid of its levels above
    ``split``, then one per subtree below it, in depth-first order.  The
    first failing part decides, and no later part is built."""
    own = tuple((p,) for p in pairs)

    def parts():
        top = _DriftGrid(m, own[:split])
        yield top.reduce([None] * split)
        for j in range(top.price.size):
            yield _DriftGrid(m, own[split:], split, top.price[j:j + 1],
                             top.sigma[j:j + 1]).reduce([None] * (m.n - split))

    worst = np.zeros(1)
    for top, equal, zero in parts():
        worst = np.maximum(worst, top)
        outcomes = _outcomes(worst, equal, zero)
        if isinstance(outcomes[0], str):
            break
    return outcomes


def _drift_block(model, pairs, last) -> _DriftBlock:
    """The block of ``pairs``, read from a history grid (``_DriftGrid``).
    The candidates are the model's spot pairs (``_pair_eps``, as
    ``all_selections`` reads them); a level whose candidates miss the
    call's pair takes that pair alone.  The block level is
    ``_block_level``'s.  The grid spans every candidate when the call's
    pairs are all candidates and its last drift level holds at most
    ``CHUNK_LEAVES`` (history, pair) cells, the budget of one block;
    otherwise only the block's own: the call's pairs above the block level
    and the candidates below it.  ``last``'s grid is read again when its
    candidates are the same.  A tree of more than ``CHUNK_LEAVES`` leaves
    is a block of one selection (``_split_outcome``)."""
    m = _Model(model)
    split = _split_level(m.n)
    if split:
        return _DriftBlock(m.n, pairs, {(): 0},
                           _split_outcome(m, pairs, split), None)
    full = tuple(tuple(t.values()) for t in model._pair_eps)
    own = [c if p in c else (p,) for c, p in zip(full, pairs)]
    level = _block_level([len(c) for c in own])
    whole = all(c is f for c, f in zip(own, full)) and len(full[-1]) \
        * math.prod(len(_pair_atoms(c)[0]) for c in full[:-1]) <= CHUNK_LEAVES
    cands = full if whole else tuple(
        (p,) for p in pairs[:level]) + tuple(own[level:])
    grid = None if last is None else last.grid
    if grid is None or grid.cands != cands:
        grid = _DriftGrid(m, cands)
    picks = [np.array([cands[k].index(p)]) if whole else None
             for k, p in enumerate(pairs[:level])] + [None] * (m.n - level)
    where = {c: i for i, c in enumerate(itertools.product(*cands[level:]))}
    return _DriftBlock(level, pairs[:level], where,
                       _outcomes(*grid.reduce(picks)), grid)


def max_drift(model, pairs) -> float:
    """Largest |conditional one-step drift| / node price over the nodes of
    one spot tree (``pairs``: a tuple of its (eps_dn, eps_up) shock pairs,
    one per step), every node, pruned or not.  The tree is the one
    ``value`` evaluates, in the same floats: exponentials saturate to inf,
    a saturated up branch has the limit weights (1, 0) and a drift of
    psi_down * S * a * (e^{sigma*eps_dn} - 1), and NaN ratios (below an
    infinite price) never win.  ZeroDivisionError where a node's two
    exponentials are equal (a zero weight denominator) or its price is 0,
    equal exponentials first in the first failing part of the tree (the
    whole tree, or with more than ``CHUNK_LEAVES`` leaves the levels above
    the split level, then each subtree below it in depth-first order).

    A node's drift depends only on its history and the pair of its level,
    so the ratios and flags are computed once per (history, pair) on a
    grid (``_DriftGrid``), and a selection gathers its 2**k nodes per
    level.  One call reads a block: every selection that shares the
    call's pairs above the block level L, the first level whose
    completions below it, times a tree's ``2**(N - 1)`` nodes at its last
    drift level, fit in ``CHUNK_LEAVES`` (a tree of more leaves is a block
    of one selection).  ``model._drift_tree`` keeps the block with its
    grid; a later call in it looks up its outcome, and a later block on
    the same candidates reads the same grid (``_drift_block``).  Read
    once and replaced by one assignment, never written, block and grid are
    safe across threads."""
    block = model._drift_tree
    i = None if block is None else block.find(pairs)
    if i is None:
        with np.errstate(all="ignore"):
            block = _drift_block(model, pairs, block)
        # the dataclass is frozen: fill the cached_property's slot
        object.__setattr__(model, "_drift_tree", block)
        i = block.find(pairs)
    worst = block.outcomes[i]
    if isinstance(worst, str):
        raise ZeroDivisionError(worst)
    return worst


# -- scans over candidate combinations ----------------------------------------

class _Plan:
    """Per-step candidate pairs of a scan, pair ``p = i * n_up + j``, and
    the candidates they come from (``_Bound`` reads them).  Atom indices
    are kept only when the payoff reads atom paths (``with_atoms``)."""

    def __init__(self, dn_cands, up_cands, atoms_dn, atoms_up,
                 want_paths: bool):
        self.with_atoms = atoms_dn is not None and want_paths
        if not self.with_atoms:
            atoms_dn = atoms_up = None
        self.dn, self.up = dn_cands, up_cands
        self.atoms_dn, self.atoms_up = atoms_dn, atoms_up
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


def _deep_scan(m: _Model, pay: _Payoff, plan: _Plan) -> Iterator[np.ndarray]:
    """``_values`` for trees of more than ``CHUNK_LEAVES`` leaves: one
    tree at a time."""
    for combo in itertools.product(*map(range, plan.pairs)):
        def pick(per_step):
            return [per_step[st][0, p] for st, p in enumerate(combo)]
        yield np.array([_tree_value(
            m, pay, pick(plan.eps_d), pick(plan.eps_u),
            pick(plan.at_d) if plan.with_atoms else None,
            pick(plan.at_u) if plan.with_atoms else None)])


def _walk(plan: _Plan, n: int, root, expand) -> Iterator:
    """The lexicographic walk of a scan: the leaf batches grown from
    ``root`` in lexicographic order, each of at most ``CHUNK_LEAVES``
    leaves.  ``expand(batch, level, step)`` yields the children of every
    row of ``batch`` one batch per ``step`` pairs (all pairs at once when
    ``step`` is None), skipping a batch with no child kept; it is resumed
    only once the previous batch's subtree has been walked.  A batch has
    ``rows`` and ``take(rows)``."""
    below = [0] * (n + 1)      # leaves under one row at each level
    below[n] = 2 ** n
    for level in range(n - 1, -1, -1):
        below[level] = below[level + 1] * plan.pairs[level]

    def walk(batch, level):
        if level == n:
            yield batch
            return
        rows, per_row = batch.rows, below[level]
        step = None
        if rows * per_row <= CHUNK_LEAVES:
            parts = (batch,)
        elif per_row <= CHUNK_LEAVES:
            size = CHUNK_LEAVES // per_row
            parts = (batch.take(slice(lo, lo + size))
                     for lo in range(0, rows, size))
        else:
            step = max(1, CHUNK_LEAVES // below[level + 1])
            parts = (batch.take(slice(r, r + 1)) for r in range(rows))
        for part in parts:
            for child in expand(part, level, step):
                yield from walk(child, level + 1)

    yield from walk(root, 0)


def _values(m: _Model, pay: _Payoff, plan: _Plan) -> Iterator[np.ndarray]:
    """The full scan: tree values of every candidate combination, in
    lexicographic order, one chunk at a time."""
    with np.errstate(all="ignore"):
        if 2 ** m.n > CHUNK_LEAVES:
            yield from _deep_scan(m, pay, plan)
            return

        def expand(nodes, level, step):
            pairs = plan.pairs[level]
            for lo in range(0, pairs, step or pairs):
                sl = slice(lo, lo + (step or pairs))
                eps_d, eps_u = plan.eps_d[level][:, sl], \
                    plan.eps_u[level][:, sl]
                br = _Branch(nodes, eps_d, eps_u).checked(nodes)
                at_d = plan.at_d[level][:, sl] if plan.with_atoms else None
                at_u = plan.at_u[level][:, sl] if plan.with_atoms else None
                yield _grow(m, level, nodes, br, eps_d, eps_u, at_d, at_u)

        root = _root(m, pay.want_psum, pay.want_paths, plan.with_atoms)
        for leaves in _walk(plan, m.n, root, expand):
            yield _leaf_values(m, pay, leaves)


def _prepare(model, dn_cands, up_cands, payoff, atoms_dn, atoms_up):
    pay = _Payoff(payoff)
    return _Model(model), pay, _Plan(dn_cands, up_cands, atoms_dn, atoms_up,
                                     pay.want_paths)


def scan_values(model, dn_cands, up_cands, payoff, atoms_dn=None,
                atoms_up=None) -> Iterator[np.ndarray]:
    """Tree values of every candidate combination, in lexicographic order,
    one chunk at a time."""
    yield from _values(*_prepare(model, dn_cands, up_cands, payoff,
                                 atoms_dn, atoms_up))


def scan(model, dn_cands, up_cands, payoff, atoms_dn=None, atoms_up=None):
    """Maximum tree value over every candidate combination, its per-step
    (down, up) candidate indices and the number of trees valued; ties and
    NaN resolve as in a sequential scan that keeps the incumbent unless a
    value is strictly larger (indices None when no value exceeds -inf).
    The combinations that cannot win are skipped by the node-wise bound
    (``_Bound``, ``_Search``) wherever ``_Search.start`` accepts the scan;
    elsewhere every combination is valued.  The result is the same."""
    m, pay, plan = _prepare(model, dn_cands, up_cands, payoff, atoms_dn,
                            atoms_up)
    search = _Search.start(m, pay, plan, True)
    if search is not None:
        best, best_at, trees = search.run()
    else:
        best, best_at, trees = -_INF, None, 0
        for vals in _values(m, pay, plan):
            clean = np.where(np.isnan(vals), -_INF, vals)
            i = int(np.argmax(clean))
            if clean[i] > best:
                best, best_at = float(clean[i]), trees + i
            trees += vals.size
    return best, None if best_at is None else plan.decode(best_at), trees


def scan_min(model, dn_cands, up_cands, payoff, atoms_dn=None,
             atoms_up=None) -> tuple[float, int]:
    """Minimum tree value over every candidate combination (NaN never
    wins; +inf when there is nothing smaller) and the number of trees
    valued; pruned as in ``scan``."""
    m, pay, plan = _prepare(model, dn_cands, up_cands, payoff, atoms_dn,
                            atoms_up)
    search = _Search.start(m, pay, plan, False)
    if search is not None:
        worst, _, trees = search.run()
        return worst, trees
    worst, trees = _INF, 0
    for vals in _values(m, pay, plan):
        low = float(np.where(np.isnan(vals), _INF, vals).min())
        if low < worst:
            worst = low
        trees += vals.size
    return worst, trees


# -- the node-wise bound and the pruned scans ---------------------------------

GRID_LEAVES = 1 << 20     # a larger candidate grid is scanned in full
_U = math.ldexp(1.0, -53)  # the unit roundoff


class _Bound:
    """Node-wise upper (``maximize``) or lower prices of a scan.

    The grid holds every history of the scan's candidate atoms (each
    step's down candidates, then its up candidates; a history's index in
    its level is row-major, step 0 most significant).  Its node prices,
    volatilities and exponentials come from the forward pass
    ``_histories``, and its weights and leaf payoffs from
    ``_branch_weights`` and ``_payoffs``, so at every history they equal
    the engine's floats bit for bit: ``psi[k]`` holds the weights
    (psi_d, psi_u) of every (history, down candidate, up candidate) of
    level k, ``[G | 1, downs, ups]`` (one row where the level's histories
    share one volatility), and ``value[N]`` the payoff of every leaf, from
    which ``greedy`` and ``_Search`` value trees.  Backward induction gives
    V_N = payoff and V_k(h) = max (min) over the step's candidate pairs of
    psi_d * V_{k+1}(h d) + psi_u * V_{k+1}(h u): the price of the best
    node-wise choice of pairs, which includes every per-step selection.
    ``zero[k]`` marks the histories below which every leaf pays exactly 0
    (None when there is none).

    ``ok`` is False, and the scan runs in full, when an exponential, a
    weight, a price or a V is not finite (saturation, equal exponentials)
    or a payoff is negative; the analysis below needs finite non-negative
    terms and weights in [0, 1].

    **The bound.**  Let s extend a prefix of k + 1 steps, whose level-k
    nodes j carry the engine's weight prob_j and branch weights psi, and
    B = sum_j prob_j * (psi_d V_{k+1}(j d) + psi_u V_{k+1}(j u)), summed in
    floats in any order.  Then the engine's value of s obeys
    ``value(s) <= B * (1 + eta) + delta`` (upper) or
    ``value(s) >= B * (1 - eta) - delta`` (lower), with, for N steps and
    L = 2^N leaves,

        eta = gamma_{2L + 3N + 4},   gamma_j = j u / (1 - j u),  u = 2^-53,
        delta = 8 L (N F + 1) 2^-1074,

    F the largest payoff or grid value.  Proof (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2.2 and 3.1): every float product
    is x y (1 + d) + e with |d| <= u and |e| <= lam = 2^-1075 (underflow),
    and a sum of non-negative floats is (x + y)(1 + d).  Write E(s) for the
    exact sum over leaves of (product of the float psi) * (float payoff).

    1. The engine forms each leaf weight by N - 1 products from 1, times
       the payoff, and adds the L terms one at a time.  As psi <= 1, a
       term is within the factors (1 +- u)^N of its exact value, up to
       (2 N F + 1) lam, and the sum adds the factors (1 +- u)^L:
       value(s) = E(s) * prod_{N+L}(1 +- u) +- dE, dE = 2 L (2 N F + 1) lam.
    2. V_j(h) takes two products and a sum per level, and its max (min)
       includes s's pair, so by induction from the leaves
       V_j(h) >= E_j(h; s) (1 - u)^{2(N-j)} - 2^{N-j+1} lam (upper; the
       lower case mirrors every inequality), E_j the exact value of h's
       subtree under s: psi_d + psi_u <= 2 at most doubles the inherited
       error per level.
    3. B takes k - 1 products for prob_j, three more per node and at most
       2^k - 1 sums, so with m = 2^k + 2N <= L/2 + 2N factors
       B >= E(s) (1 - u)^m - dB, dB = L (3 N F + 4) lam: the weight's
       underflow, 2 k lam, meets a bracket <= 3F, and the V errors sum to
       2 L lam.
    4. With steps 1 and 3, value(s) <= (B + dB) prod_{N+L}(1 + u) /
       (1 - u)^m + dE, and a product of n factors (1 + u)^{+-1} is at most
       1 + gamma_n (Higham, Lemma 3.1), so with n = N + L + m <= 2L + 3N:
       value(s) <= B (1 + gamma_n) + 2 dB + dE
                <= B (1 + gamma_n) + L (5 N F + 5) 2^-1074.
       The four extra units in eta and the slack in delta absorb the
       three roundings of ``B * (1 + eta) + delta`` itself (and of the
       lower twin).  QED.

    So when the computed upper bound is below a value already reached,
    no selection extending the prefix reaches it, nor ties it.
    """

    def __init__(self, m: _Model, pay: _Payoff, plan: _Plan, maximize: bool):
        n = m.n
        dn_cands, up_cands = plan.dn, plan.up
        atoms_dn, atoms_up = plan.atoms_dn, plan.atoms_up
        levels = _histories(m, [np.asarray(list(d) + list(u), dtype=float)
                                for d, u in zip(dn_cands, up_cands)])
        price, _, e = next(levels)
        psum = price if pay.want_psum else None
        hist = price[:, None] if pay.want_paths else None
        codes = np.zeros(1, dtype=m.code_dtype) if plan.with_atoms else None
        self.n_down, self.width, self.psi = [], [], []
        self.maximize, self.ok = maximize, False
        for k in range(n):
            if not np.isfinite(e).all():
                return
            nd = len(dn_cands[k])
            # a weight of 0 / 0 (equal exponentials) is NaN, and so are the
            # V above it: the check of the V's below refuses it
            psi = _branch_weights(e[:, :nd, None], e[:, None, nd:])
            self.n_down.append(nd)
            self.width.append(e.shape[1])
            self.psi.append(psi)
            price, _, next_e = next(levels)
            grown = price.reshape(-1, e.shape[1])              # [G, c]
            if psum is not None:
                psum = (psum[:, None] + grown).ravel()
            if hist is not None:
                out = np.empty(grown.shape + (k + 2,))
                out[..., :k + 1] = hist[:, None, :]
                out[..., k + 1] = grown
                hist = out.reshape(grown.size, k + 2)
            if codes is not None:
                cand = np.asarray(list(atoms_dn[k]) + list(atoms_up[k]),
                                  dtype=m.code_dtype)
                codes = (codes[:, None] * m.radix[k] + cand).ravel()
            e = next_e
        if not np.isfinite(price).all():   # an infinite price stays so
            return
        leaves = _Nodes(price[None], None, None if psum is None
                        else psum[None], None, None,
                        None if hist is None else hist[None],
                        None if codes is None else codes[None])
        pay_n = _payoffs(m, pay, leaves)[0]
        if not (np.isfinite(pay_n).all() and (pay_n >= 0.0).all()):
            return
        extreme = np.max if maximize else np.min
        self.value = [None] * n + [pay_n]
        for k in range(n - 1, -1, -1):
            nd, c = self.n_down[k], self.width[k]
            child = self.value[k + 1].reshape(-1, c)
            psi_d, psi_u = self.psi[k]
            t = psi_d * child[:, :nd, None] + psi_u * child[:, None, nd:]
            self.value[k] = extreme(t.reshape(t.shape[0], -1), axis=1)
        # NaN (a weight of 0 / 0) wins every max and min
        tops = np.array([v.max() for v in self.value])
        if not np.isfinite(tops).all():
            return
        top = float(tops.max())
        # None where no history's subtree pays exactly 0 throughout
        self.zero = [None] * (n + 1)
        zero = pay_n == 0.0
        if zero.any():
            self.zero[n] = zero
            for k in range(n - 1, -1, -1):
                zero = zero.reshape(-1, self.width[k]).all(axis=1)
                if not zero.any():
                    break
                self.zero[k] = zero
        leaves_n = 2 ** n
        steps = 2 * leaves_n + 3 * n + 4
        self.eta = steps * _U / (1.0 - steps * _U)
        self.delta = math.ldexp(8.0 * leaves_n * (n * top + 1.0), -1074)
        self.ok = True

    def greedy(self) -> float:
        """The engine's value of the greedy selection: at every level the
        pair of best bound for the prefix chosen so far.  Its leaf weights
        are products of the grid's weights taken in the engine's order and
        its terms are added left to right, in depth-first order, so it is
        the engine's value bit for bit (a term below a weight of exactly 0
        is 0, as the engine's masked one)."""
        hist = np.zeros(1, dtype=np.intp)      # the prefix's grid nodes
        prob = np.ones(1)
        for k, (psi_d, psi_u) in enumerate(self.psi):
            nd, c = self.n_down[k], self.width[k]
            if psi_d.shape[0] > 1:
                psi_d, psi_u = psi_d[hist], psi_u[hist]
            v = self.value[k + 1].reshape(-1, c)[hist]
            t = psi_d * v[:, :nd, None]
            t += psi_u * v[:, None, nd:]
            b = prob @ t.reshape(prob.size, -1)
            i, j = divmod(int(b.argmax() if self.maximize else b.argmin()),
                          t.shape[2])
            hist = (hist[:, None] * c + (i, nd + j)).ravel()
            w = np.empty((psi_d.shape[0], 2))
            w[:, 0], w[:, 1] = psi_d[:, i, j], psi_u[:, i, j]
            prob = (prob[:, None] * w).ravel()
        return float(_row_sums((self.value[-1][hist] * prob)[None])[0])


class _Prefixes:
    """A batch of the pruned walk.  Per row and node, ``[rows, nodes]``:
    the node's history in the bound's grid (``hidx``, int32) and its
    weight (``prob``).  ``bounded`` is False in a subtree grown without
    bounds.  And where the rows come from, so that a row's prefix is known
    as a flat lexicographic index (``code``) only when it is asked for:
    the rows ``lo:`` of ``up`` (``pairs`` None), or the children of
    ``up``'s rows under ``pairs`` pairs per step, (row ``r[i]``, pair
    ``lo + q[i]``) or, when ``r`` is None, every row under pairs
    ``lo:lo + width``."""

    __slots__ = ("hidx", "prob", "bounded", "up", "lo", "pairs", "width",
                 "r", "q")

    def __init__(self, hidx, prob, bounded: bool, up=None, lo=0, pairs=None,
                 width=0, r=None, q=None):
        self.hidx, self.prob, self.bounded = hidx, prob, bounded
        self.up, self.lo, self.pairs = up, lo, pairs
        self.width, self.r, self.q = width, r, q

    @property
    def rows(self) -> int:
        return self.hidx.shape[0]

    def take(self, rows: slice) -> "_Prefixes":
        return _Prefixes(self.hidx[rows], self.prob[rows], self.bounded,
                         self, rows.start or 0)

    def code(self, i: int) -> int:
        if self.up is None:
            return 0
        if self.pairs is None:
            return self.up.code(self.lo + i)
        if self.r is None:
            row, pair = divmod(i, self.width)
        else:
            row, pair = int(self.r[i]), int(self.q[i])
        return self.up.code(row) * self.pairs + self.lo + pair


class _Search:
    """``scan`` / ``scan_min`` by branch and bound (Land & Doig 1960) on
    ``_Bound``: the walk of the full scan, in the same lexicographic order
    and batches, on the bound's grid.  A row is its nodes' grid histories
    and weights: a child's history is its parent's times the level's width
    plus its candidate's column, down child first (``_interleave``), its
    weight its parent's times the grid's psi at (history, pair), and a
    tree's value the sum of weight * ``_Bound.value[N]`` over its leaves,
    added left to right (``_row_sums``).  These are the engine's
    operations on the engine's floats (``_Bound``), so every value is the
    full scan's bit for bit.  As ``_Bound.ok`` holds, every exponential,
    weight, price and V is finite and no payoff is negative, so the
    engine's live mask changes no term (below a weight of exactly 0 a term
    is 0 either way) and its equal-exponential check cannot fire (equal
    exponentials give the grid NaN weights).

    Before a batch's children are grown each child prefix gets its bound
    from its row's own weights, and a child that cannot win is dropped
    with every selection below it.  At the last step a child is one tree,
    whose bound costs about what valuing it does, so those children are
    all valued.

    The incumbent starts as the engine value of one greedy descent (the
    child of best bound at every level, taken on the grid by
    ``_Bound.greedy``) and is the best value reached so far.  A maximum
    drops a child whose upper bound is below it: no selection there
    reaches it, nor ties it.  It also drops a child whose
    every reachable leaf pays exactly 0 once a selection earlier in
    lexicographic order has reached a value >= 0: the child's selections
    are worth exactly 0.0 and cannot replace that one under the strict
    ``>`` rule.  Every kept selection is valued as in the full scan, so
    the maximum, its first argmax and the tie-breaking are those of the
    full scan: the first maximiser is never dropped.  A minimum has no
    argmax, so it drops a child whose lower bound (at least 0, as payoffs
    are non-negative) is not below the incumbent, and counts the greedy
    selection among its candidates.

    Bounds are taken once per batch and pair range, for as many of the
    walk's chunks of pairs as ``CHUNK_LEAVES`` (row, pair, node) entries
    hold, and each chunk is compared with the incumbent of its turn.
    Ties cost time: a selection within eta of the incumbent is valued,
    since only its last bits can say which of the two comes first.  So a
    batch whose bounds keep every child once the walk has valued a tree
    (before that the zero rule is off) grows its subtree without bounds:
    its bounds separated nothing, and those below it would be paid for
    every child and, on a tie, drop none.  A row's flat index is derived
    from its batch's origin only for a new maximum (``_Prefixes.code``)."""

    def __init__(self, plan: _Plan, bound: _Bound, maximize: bool):
        self.plan, self.bound, self.maximize = plan, bound, maximize
        self.n = len(plan.pairs)
        self.best = -_INF if maximize else _INF   # of the walk, in order
        self.best_at = None
        self.incumbent = self.best
        self.trees = 0
        # per level, each pair's down and up candidate as grid columns
        self.cols = []
        for pairs, nu, nd in zip(plan.pairs, plan.n_up, bound.n_down):
            i, j = np.divmod(np.arange(pairs, dtype=np.int32), nu)
            self.cols.append((i, j + nd))

    @classmethod
    def start(cls, m: _Model, pay: _Payoff, plan: _Plan,
              maximize: bool) -> "_Search | None":
        """The pruned scan, or None where the full scan runs instead: when
        the scan fits in one block or has one step (nothing to skip: a
        one-step scan's children are trees, all valued), a tree has more
        than ``CHUNK_LEAVES`` leaves (rows are held whole), the grid has
        more than ``GRID_LEAVES`` leaves, or the bound is not ``ok`` or
        raises (the full scan then raises its own error)."""
        leaves = 2 ** m.n
        if m.n == 1 or leaves > CHUNK_LEAVES \
                or math.prod(plan.pairs) * leaves <= CHUNK_LEAVES \
                or math.prod(len(d) + len(u)
                             for d, u in zip(plan.dn, plan.up)) > GRID_LEAVES:
            return None
        try:
            with np.errstate(all="ignore"):
                bound = _Bound(m, pay, plan, maximize)
        except Exception:     # a payoff's own error, say: the full scan
            return None       # meets it where it occurs and raises it
        return cls(plan, bound, maximize) if bound.ok else None

    def run(self) -> tuple[float, int | None, int]:
        """The extreme value, its flat index (maximum only) and the number
        of trees valued."""
        root = _Prefixes(np.zeros((1, 1), dtype=np.int32), np.ones((1, 1)),
                         True)
        with np.errstate(all="ignore"):
            self.incumbent = self.bound.greedy()
            self.trees = 1
            for leaves in _walk(self.plan, self.n, root, self._expand):
                self._value(leaves)
        if self.maximize:
            return self.best, self.best_at, self.trees
        return self.incumbent, None, self.trees

    def _value(self, leaves: _Prefixes) -> None:
        vals = _row_sums(self.bound.value[-1][leaves.hidx] * leaves.prob)
        self.trees += vals.size
        if self.maximize:
            i = int(np.argmax(vals))
            if vals[i] > self.best:
                self.best, self.best_at = float(vals[i]), leaves.code(i)
                self.incumbent = max(self.incumbent, self.best)
        else:
            self.incumbent = min(self.incumbent, float(vals.min()))

    def _weights(self, batch: _Prefixes, level: int, cols):
        """The grid's (psi_d, psi_u) of every (row, pair, node) for the
        pairs of grid columns ``cols``, ``[rows, pairs, nodes]``, or
        ``[1, pairs, 1]`` where the level's histories share one volatility
        (the root, a constant one)."""
        psi = self.bound.psi[level]
        i, j = cols[0], cols[1] - self.bound.n_down[level]
        if psi[0].shape[0] == 1:
            return tuple(p[0, i, j][None, :, None] for p in psi)
        h = batch.hidx[:, None, :]
        return tuple(p[h, i[:, None], j[:, None]] for p in psi)

    def _bounds(self, batch: _Prefixes, level: int, psi, cols):
        """The bound of every (row, pair) child."""
        bound = self.bound
        v = bound.value[level + 1].reshape(-1, bound.width[level])[
            batch.hidx].transpose(0, 2, 1)             # [rows, c, nodes]
        t = psi[0] * v[:, cols[0]]
        t += psi[1] * v[:, cols[1]]
        t *= batch.prob[:, None, :]
        return t.sum(axis=2)

    def _zero(self, batch: _Prefixes, level: int, cols):
        """Whether every reachable leaf of each (row, pair) child pays
        exactly 0."""
        bound = self.bound
        zero = bound.zero[level + 1].reshape(-1, bound.width[level])[
            batch.hidx]                                # [rows, nodes, c]
        return (zero[:, :, cols[0]] & zero[:, :, cols[1]]).all(axis=1)

    def _expand(self, batch: _Prefixes, level: int, step):
        pairs = self.plan.pairs[level]
        step = step or pairs
        every_col = self.cols[level]
        if not batch.bounded or level + 1 == self.n:
            for lo in range(0, pairs, step):
                cols = tuple(c[lo:lo + step] for c in every_col)
                yield self._children(batch, level, lo,
                                     self._weights(batch, level, cols), cols,
                                     None, None, False)
            return
        bound = self.bound
        unit = step * max(1, CHUNK_LEAVES
                          // (batch.rows * batch.hidx.shape[1] * step))
        for first in range(0, pairs, unit):
            cols = tuple(c[first:first + unit] for c in every_col)
            psi = self._weights(batch, level, cols)
            b = self._bounds(batch, level, psi, cols)
            reach = (b * (1.0 + bound.eta) + bound.delta if self.maximize
                     else np.maximum(b * (1.0 - bound.eta) - bound.delta,
                                     0.0))
            zero = against = None
            for lo in range(0, b.shape[1], step):
                zeros = self.maximize and self.best >= 0.0 \
                    and bound.zero[level + 1] is not None
                if against != (self.incumbent, zeros):
                    against = (self.incumbent, zeros)
                    if not self.maximize:
                        keep = reach < self.incumbent
                    else:
                        keep = ~(reach < self.incumbent)
                        if zeros:
                            if zero is None:
                                zero = self._zero(batch, level, cols)
                            keep &= ~zero
                    every = bool(keep.all())
                r = q = None
                if not every:
                    part = keep[:, lo:lo + step]
                    r, q = np.nonzero(part)
                    if r.size == 0:
                        continue
                    if r.size == part.size:
                        r = q = None
                yield self._children(
                    batch, level, first + lo,
                    tuple(p[:, lo:lo + step] for p in psi),
                    tuple(c[lo:lo + step] for c in cols), r, q,
                    not (self.trees > 1 and every))

    def _children(self, batch: _Prefixes, level: int, lo: int, psi, cols,
                  r, q, bounded: bool) -> _Prefixes:
        """The children (row ``r[i]``, pair ``lo + q[i]``), in that order
        (every child when ``r`` is None), of the pairs from ``lo`` with
        the weights ``psi`` and the grid columns ``cols``."""
        hidx, prob = batch.hidx, batch.prob
        (psi_d, psi_u), (d, u) = psi, cols
        width = d.size
        if r is not None:
            def pick(x):       # [rows | 1, pairs, nodes | 1] -> [kept, 1, .]
                return (x[r, q] if x.shape[0] > 1 else x[0, q])[:, None]
            hidx, prob = hidx[r], prob[r]
            psi_d, psi_u = pick(psi_d), pick(psi_u)
            d, u = d[q, None], u[q, None]
        shape = (hidx.shape[0], psi_d.shape[1], hidx.shape[1])
        base = hidx[:, None, :] * self.bound.width[level]
        new_prob, prob_d, prob_u = _children(shape)
        np.multiply(prob[:, None, :], psi_d, out=prob_d)
        np.multiply(prob[:, None, :], psi_u, out=prob_u)
        return _Prefixes(_interleave(base + d[..., None], base + u[..., None],
                                     shape), new_prob, bounded, batch, lo,
                         self.plan.pairs[level], width, r, q)

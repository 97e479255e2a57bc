"""The three benchmark workloads: seeded inputs, requests and output checks.

Every workload is a closed loop with one client in one process.  Its
inputs are grouped into *rounds*; a round always holds the same mix of
request classes (sizes, payoffs, code paths) and only the seeded
parameters differ.  A run executes a fixed number of rounds, so every run
sends the same number of requests of each class whatever the machine
speed, and the median and tail latencies fall inside the same class.

* ``grid_sup``: ``superhedge price --method grid`` through ``cli.main`` on
  constant-sigma chains drawn like acceptance criteria 3/4.  Every round is
  distinct inputs.  Scalar tree recursion with per-step cached factors
  (``_tree_py._cached_tree`` under ``scan_selections``) does the work; the
  numpy grid layers stay idle.
* ``exhaustive_sup``: spot-tree walks over every atom selection of GARCH and
  ARCH models (deep trees, sigma and exp recomputed at every node).  The
  seeded pool holds ``EXHAUSTIVE_POOL_ROUNDS`` distinct rounds, cycled, and
  every round adds the same 9,216-selection sup.
* ``family_decompose``: the vectorised ``measures``/``decomposition`` layers
  on 4-atom GARCH models with 4k, 65k and 1M paths.  The N=8 and N=10 models
  are fixed; each round holds 4 N=10, 1 N=8 and 1 N=6 requests.

Output checks run after the timed loop.  Oracle answers are cached per
distinct input, and one ``brute_expectation`` pass serves every payoff
priced under the same density.  Known defects (ROADMAP item 3: non-finite
grid sups at saturating sigma and gap-bound misses) count as failed
requests but do not make the run incorrect; any other failure does.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

import numpy as np

from superhedge import cli, decomposition, measures, oracle, pricing
from superhedge.model import enumerate_paths, model_from_dict
from superhedge.pricing import Payoff, SearchConfig

PAYOFFS = ("call", "put", "asian_call", "asian_put")
MARTINGALE_TOL = 1e-9
INTEGRAL_TOL = 1e-12
DECOMPOSITION_TOL = 1e-10
EXPECTATION_REL_TOL = 1e-12
EXHAUSTIVE_POOL_ROUNDS = 3
GAP_RE = re.compile(r"at most ([-+0-9.eE]+|inf|nan)")


@dataclass
class Request:
    kind: str        # executor name
    label: str       # request class, e.g. "grid N=2 P=49"
    key: int         # distinct-input id; oracle answers are cached on it
    data: dict = field(default_factory=dict)


def _step_doc(rng: random.Random, pairs: int, vol_kind: str,
              eps_hi: float = 1.5) -> dict:
    """One step whose (down, up) pair count is ``pairs``: 2 -> 3 atoms,
    3 -> 4 atoms split 1/3 or 3/1, 4 -> 4 atoms split 2/2."""
    n_down = {2: rng.choice((1, 2)), 3: rng.choice((1, 3)), 4: 2}[pairs]
    n_up = {2: 3, 3: 4, 4: 4}[pairs] - n_down
    eps = sorted(-rng.uniform(0.05, eps_hi) for _ in range(n_down))
    eps += sorted(rng.uniform(0.05, eps_hi) for _ in range(n_up))
    raw = [rng.uniform(0.05, 1.0) for _ in eps]
    probs = [r / sum(raw) for r in raw]
    probs[-1] = 1.0 - sum(probs[:-1])
    omega0, alpha1 = rng.uniform(0.01, 0.09), rng.uniform(0.0, 0.3)
    if vol_kind == "garch11":
        vol = {"kind": "garch11", "omega0": omega0, "alpha1": alpha1,
               "beta1": rng.uniform(0.0, 0.4), "floor": 0.05}
    else:
        vol = {"kind": "arch1", "omega0": omega0, "alpha1": alpha1,
               "floor": 0.05}
    return {"a": rng.uniform(0.05, 0.9), "vol": vol,
            "shocks": [{"eps": e, "prob": p} for e, p in zip(eps, probs)]}


def history_model_doc(rng: random.Random, pattern, vol_kind: str) -> dict:
    steps = [_step_doc(rng, p, vol_kind) for p in pattern]
    return {"s0": rng.uniform(50.0, 150.0), "steps": steps}


def chain_doc(s0: float, a_list, sigma: float) -> dict:
    shocks = [{"eps": -0.7, "prob": 0.5}, {"eps": 0.7, "prob": 0.5}]
    return {"s0": s0, "steps": [{"a": a, "vol": {"kind": "constant",
                                                  "sigma": sigma},
                                 "shocks": shocks} for a in a_list]}


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Seeded corpus plus the executor and checker of its requests."""

    name = ""
    nominal_round_s = 1.0   # baseline cost of one round; sets the round count

    def __init__(self, seed: int, workdir: str, smoke: bool = False,
                 n_rounds: int = 1):
        self.workdir = workdir
        self.smoke = smoke
        self.n_rounds = n_rounds
        self.rounds: list[list[Request]] = []
        self.warmup: list[Request] = []
        self._oracle: dict = {}
        self._keys = 0
        self.build(random.Random(f"{self.name}:{seed}"))

    def new_key(self) -> int:
        self._keys += 1
        return self._keys

    def build(self, rng: random.Random) -> None:
        raise NotImplementedError

    def execute(self, req: Request, seq: int):
        return getattr(self, "_run_" + req.kind)(req, seq)

    def check(self, req: Request, out) -> str | None:
        """None when the output is correct, else the reason it is not."""
        return getattr(self, "_check_" + req.kind)(req, out)

    def known_defect(self, req: Request, reason: str) -> bool:
        return False

    def cached_oracle(self, key, fn):
        if key not in self._oracle:
            self._oracle[key] = fn()
        return self._oracle[key]

    def _cli(self, argv) -> int:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)


# -- grid_sup ----------------------------------------------------------------

class GridSup(Workload):
    name = "grid_sup"
    nominal_round_s = 6.0

    # (N, grid points, count per payoff), plus one saturating request of
    # each SATURATING class per payoff and one N=2 P=49 scan per round.
    # Of a round's 125 requests, the 80 at N=1 are the fastest, so the
    # median falls inside the N=1 P=49 class; the one N=2 P=49 scan is the
    # slowest, and the 32 N=2 P=25 scans below it hold the tail latency as
    # long as a run has fewer than TAIL_BEYOND + 1 rounds.
    CLASSES = ((1, 25, 9), (1, 49, 10), (3, 25, 2), (3, 49, 1), (2, 25, 7))
    SATURATING = ((1, 25), (2, 25))
    SMOKE_CLASSES = ((1, 25, 1), (3, 25, 1))

    def build(self, rng):
        os.makedirs(os.path.join(self.workdir, "grid"), exist_ok=True)
        if self.smoke:
            self.rounds = [self._round(rng, 0, self.SMOKE_CLASSES,
                                       ((2, 25),), None)]
            self.warmup = [self._request(rng, 1, 25, "call", False)]
            return
        self.rounds = [self._round(rng, r, self.CLASSES, self.SATURATING,
                                   (2, 49)) for r in range(self.n_rounds)]
        self.warmup = [self._request(rng, 1, 25, "put", False),
                       self._request(rng, 3, 25, "call", False)]

    def _round(self, rng, r, classes, saturating, big):
        reqs = []
        for payoff in PAYOFFS:
            for n, pts, count in classes:
                reqs += [self._request(rng, n, pts, payoff, False)
                         for _ in range(count)]
            reqs += [self._request(rng, n, pts, payoff, True)
                     for n, pts in saturating]
        if big is not None:
            reqs.append(self._request(rng, big[0], big[1],
                                      PAYOFFS[r % len(PAYOFFS)], False))
        return reqs

    def _request(self, rng, n, pts, payoff, saturating):
        s0 = rng.uniform(50.0, 150.0)
        a_list = [rng.uniform(0.05, 0.95) for _ in range(n)]
        strike = rng.uniform(0.2, 1.8) * s0
        sigma = rng.uniform(40.0, 100.0) if saturating \
            else rng.uniform(2.1, 3.0)
        key = self.new_key()
        path = os.path.join(self.workdir, "grid", f"m{key}.json")
        _write_json(path, chain_doc(s0, a_list, sigma))
        label = f"grid N={n} P={pts}" + (" saturating" if saturating else "")
        return Request("grid", label, key, {
            "model": path, "s0": s0, "a": a_list, "payoff": payoff,
            "strike": strike, "points": pts, "saturating": saturating})

    def _run_grid(self, req, seq):
        d = req.data
        out = os.path.join(self.workdir, "grid", f"r{seq}.json")
        rc = self._cli(["price", "--model", d["model"], "--payoff",
                        d["payoff"], "--strike", repr(d["strike"]),
                        "--method", "grid", "--grid-points",
                        str(d["points"]), "--out", out])
        return rc, out

    def _check_grid(self, req, out):
        rc, path = out
        if rc != 0:
            return f"exit code {rc}"
        d = req.data
        report = _read_json(path)
        value = float(report["value"])
        if not math.isfinite(value):
            return "non-finite value"
        payoff = Payoff(d["payoff"], strike=d["strike"])
        closed = pricing.closed_form_price(payoff, d["s0"], d["a"])
        iv = pricing.non_arbitrage_interval(d["s0"], d["a"], payoff)
        # the sup is attained exactly where the interval is a point, so the
        # search value may land an ulp outside it: the acceptance gate's
        # 1e-12 * s0 headroom applies to both checks
        ulp = 1e-12 * d["s0"]
        if not iv.lower - ulp <= value <= iv.upper + ulp:
            return "outside the non-arbitrage interval"
        if value > closed + ulp:
            return "exceeds the closed form"
        gap = GAP_RE.search(report["provenance"])
        if gap is None:
            return "no printed gap bound"
        if closed - value > float(gap.group(1)):
            return "gap bound miss"
        return None

    def known_defect(self, req, reason):
        # ROADMAP item 3: the sup overflows to inf at saturating sigma (the
        # report writer then raises), and the printed gap bound can fail.
        if reason == "gap bound miss":
            return True
        return (req.data["saturating"]
                and reason.startswith("raised ValueError"))


# -- exhaustive_sup ----------------------------------------------------------

class ExhaustiveSup(Workload):
    name = "exhaustive_sup"
    nominal_round_s = 3.4

    # (kind, pairs per step, volatility, requests per round); selections =
    # product of pairs.  Of a round's 22 requests the 14 at N=4 and N=5 are
    # the fastest, so the median falls inside the N=5 requests; the
    # 9,216-selection sup (BIG) is the slowest, and the three N=7 drift
    # sweeps below it hold the tail latency as long as a run has fewer than
    # TAIL_BEYOND + 1 rounds.
    SLOTS = (
        ("cli", (3, 3, 4, 4), "garch11", 2),
        ("inf", (3, 3, 4, 4), "garch11", 2),
        ("table", (3, 3, 4, 4), "garch11", 2),
        ("cli", (2, 3, 3, 4, 4), "arch1", 2),
        ("inf", (2, 3, 3, 4, 4), "arch1", 2),
        ("table", (2, 3, 3, 4, 4), "arch1", 2),
        ("drift", (2, 3, 3, 4, 4), "garch11", 2),
        ("integral", (3, 3, 4, 4), "arch1", 1),
        ("integral", (2, 3, 3, 4, 4), "garch11", 1),
        ("cli", (2, 2, 2, 2, 2, 2, 2, 2), "garch11", 1),
        ("cli", (4, 4, 3, 3, 3, 3), "arch1", 1),
        ("drift", (2, 2, 2, 3, 3, 3, 3), "arch1", 3),
    )
    # the same input in every round, so its oracle runs once per run
    BIG = ("cli", (4, 4, 4, 4, 4, 3, 3), "garch11")
    SMOKE_SLOTS = (("cli", (2, 3, 2), "garch11", 1),
                   ("inf", (2, 3), "arch1", 1),
                   ("table", (2, 3), "garch11", 1),
                   ("drift", (3, 2), "arch1", 1),
                   ("integral", (2, 2), "garch11", 1))

    def build(self, rng):
        os.makedirs(os.path.join(self.workdir, "exh"), exist_ok=True)
        slots = self.SMOKE_SLOTS if self.smoke else self.SLOTS
        pool = 1 if self.smoke else min(self.n_rounds, EXHAUSTIVE_POOL_ROUNDS)
        pool_rounds = []
        for r in range(pool):
            reqs = []
            for kind, pattern, vol, count in slots:
                reqs += [self._request(rng, kind, pattern, vol, len(reqs) + r)
                         for _ in range(count)]
            pool_rounds.append(reqs)
        big = [] if self.smoke else [self._request(rng, *self.BIG,
                                                   rng.randrange(4))]
        self.rounds = [pool_rounds[r % pool] + big
                       for r in range(self.n_rounds)]
        self.warmup = [self._request(rng, kind, (2, 2), vol, 0)
                       for kind, _, vol, _ in self.SMOKE_SLOTS]

    def _request(self, rng, kind, pattern, vol, turn):
        doc = history_model_doc(rng, pattern, vol)
        model = model_from_dict(doc)
        s0 = doc["s0"]
        key = self.new_key()
        label = f"{kind} N={len(pattern)} sel={math.prod(pattern)}"
        data = {"model": model}
        if kind == "cli":
            data["path"] = os.path.join(self.workdir, "exh", f"m{key}.json")
            _write_json(data["path"], doc)
            data["payoff"] = PAYOFFS[turn % len(PAYOFFS)]
            data["strike"] = rng.uniform(0.6, 1.4) * s0
        elif kind == "inf":
            data["payoff"] = self._hump(rng, s0)
        elif kind == "table":
            strike = rng.uniform(0.8, 1.2) * s0
            data["payoff"] = Payoff.path_table({
                idx.atoms: max(max(path.price_seq) - strike, 0.0)
                for idx, path in enumerate_paths(model)})
        elif kind == "integral":
            data["alphas"] = oracle.random_alpha(model, rng.randrange(2**31))
        return Request(kind, label, key, data)

    @staticmethod
    def _hump(rng, s0):
        """A non-convex piecewise-linear payoff (a dip, then a hump)."""
        k = rng.uniform(0.8, 1.2) * s0
        payoff = Payoff.piecewise_linear(
            [(0.0, rng.uniform(0.3, 0.6) * k), (0.8 * k, 0.1 * k),
             (1.2 * k, rng.uniform(0.5, 0.8) * k), (1.6 * k, 0.2 * k)],
            rng.uniform(0.1, 0.5))
        assert not payoff.is_convex
        return payoff

    def _run_cli(self, req, seq):
        d = req.data
        out = os.path.join(self.workdir, "exh", f"r{seq}.json")
        rc = self._cli(["price", "--model", d["path"], "--payoff",
                        d["payoff"], "--strike", repr(d["strike"]),
                        "--method", "exhaustive", "--out", out])
        return rc, out

    def _run_inf(self, req, seq):
        d = req.data
        return pricing.superhedge_inf(d["model"], d["payoff"],
                                      SearchConfig()).value

    def _run_table(self, req, seq):
        d = req.data
        res = pricing.superhedge_sup(d["model"], d["payoff"], SearchConfig())
        return res.value, res.selection.pairs

    def _run_drift(self, req, seq):
        model = req.data["model"]
        return max(measures.SpotMeasure(model, sel).max_node_drift()
                   for sel in measures.all_selections(model))

    def _run_integral(self, req, seq):
        d = req.data
        model = d["model"]
        payoffs = (Payoff.constant(1.0),
                   Payoff.piecewise_linear([(0.0, 0.0)], 1.0),
                   Payoff.call(model.s0))
        return max(measures.integral_representation_check(
            model, d["alphas"], p) for p in payoffs)

    def _brute_sup(self, req, payoff):
        return self.cached_oracle(req.key, lambda: oracle.brute_sup_selections(
            req.data["model"], payoff))

    def _check_cli(self, req, out):
        rc, path = out
        if rc != 0:
            return f"exit code {rc}"
        d = req.data
        report = _read_json(path)
        value, sel = self._brute_sup(req, Payoff(d["payoff"],
                                                 strike=d["strike"]))
        if float(report["value"]) != value:
            return "value differs from brute_sup_selections"
        if [tuple(p) for p in report["argmax_selection"]] != list(sel.pairs):
            return "selection differs from brute_sup_selections"
        return None

    def _check_table(self, req, out):
        value, sel = self._brute_sup(req, req.data["payoff"])
        if out[0] != value:
            return "value differs from brute_sup_selections"
        if out[1] != sel.pairs:
            return "selection differs from brute_sup_selections"
        return None

    def _check_inf(self, req, out):
        # spot expectations are sums of prob * payoff, so the oracle's sup of
        # -payoff is exactly minus the inf
        pwl = req.data["payoff"]
        value, _ = self.cached_oracle(
            req.key, lambda: oracle.brute_sup_selections(
                req.data["model"], lambda prices: -pwl.value(prices)))
        return None if out == -value else "inf differs from the oracle"

    def _check_drift(self, req, out):
        if not 0.0 <= out <= MARTINGALE_TOL:
            return f"spot node drift {out!r} above {MARTINGALE_TOL}"
        return None

    def _check_integral(self, req, out):
        if not 0.0 <= out <= INTEGRAL_TOL:
            return f"integral deviation {out!r} above {INTEGRAL_TOL}"
        return None


# -- family_decompose --------------------------------------------------------

def _wealth_levels(model, kappas) -> list[np.ndarray]:
    """Self-financing wealth per history prefix (row-major): a martingale
    under the whole family, computed here from the model parameters."""
    vol = model.steps[0].vol
    sigma = np.array([max(vol.floor, math.sqrt(vol.omega0))])
    levels = [np.array([1.0])]
    for n, step in enumerate(model.steps):
        if n > 0:
            vol = step.vol
            eps_prev = np.array([at.eps for at in model.steps[n - 1].shocks])
            prev = np.repeat(sigma, eps_prev.size)
            s2 = vol.omega0 + vol.alpha1 * (prev * np.tile(
                eps_prev, sigma.size)) ** 2 + vol.beta1 * prev ** 2
            sigma = np.maximum(vol.floor, np.sqrt(s2))
        eps = np.array([at.eps for at in step.shocks])
        rel = step.a * (np.exp(np.outer(sigma, eps)) - 1.0)
        levels.append((levels[n][:, None] * (1.0 + kappas[n] * rel)).ravel())
    return levels


def fixed_family_models():
    """The fixed models: ROADMAP item 1's 8-step GARCH model (4 atoms per
    step, 65,536 paths, 11,664 selections) and the N=10 family model
    (1,048,576 paths).  They do not depend on the workload seed."""
    garch8 = history_model_doc(random.Random("fixed:garch8"),
                               (4, 4, 3, 3, 3, 3, 3, 3), "garch11")
    family10 = history_model_doc(random.Random("fixed:family10"),
                                 (4, 3, 3, 4, 3, 3, 4, 3, 3, 3), "garch11")
    return model_from_dict(garch8), model_from_dict(family10)


class _PayoffVector:
    """Several payoffs evaluated on one path, so that one
    ``brute_expectation`` pass returns the expectation of each."""

    def __init__(self, payoffs):
        self.payoffs = payoffs

    def value(self, prices, atoms=None):
        return np.array([p.value(prices, atoms) for p in self.payoffs])


class FamilyDecompose(Workload):
    name = "family_decompose"
    nominal_round_s = 2.6

    def build(self, rng):
        self._densities: dict = {}    # density key -> the payoffs under it
        if self.smoke:
            small = [model_from_dict(history_model_doc(rng, p, "garch11"))
                     for p in ((4, 3, 3), (3, 4, 3, 4))]
            self.rounds = [[self._request(rng, m, rng.randrange(2**31))
                            for m in small]]
            self.warmup = [self._request(rng, small[0], 0)]
            return
        # Two thirds of the requests and most of the time are N=10, so the
        # median and the tail latency both fall inside that class whenever a
        # run has at least 3 rounds.  The N=10 and N=8 requests of a run
        # share one density each, so one oracle pass checks all of them.
        garch8, family10 = fixed_family_models()
        seed10, seed8 = rng.randrange(2**31), rng.randrange(2**31)
        ten = [self._request(rng, family10, seed10) for _ in range(2)]
        eight = [self._request(rng, garch8, seed8) for _ in range(2)]
        self.rounds = []
        for r in range(self.n_rounds):
            six = self._request(rng, model_from_dict(history_model_doc(
                rng, (4, 3, 3, 4, 3, 3), "garch11")), rng.randrange(2**31))
            self.rounds.append(ten * 2 + [eight[r % 2], six])
        self.warmup = [self._request(rng, model_from_dict(history_model_doc(
            rng, (4, 3, 3), "garch11")), 0)]

    def _request(self, rng, model, alpha_seed):
        s0 = model.s0
        theta = rng.uniform(0.1, 0.9)
        u, v = (_wealth_levels(model, [rng.uniform(-0.2, 0.9)
                                       for _ in model.steps])
                for _ in range(2))
        mix = [theta * a + (1.0 - theta) * b for a, b in zip(u, v)]
        data = {"model": model, "alpha_seed": alpha_seed,
                "call": rng.uniform(0.6, 1.4) * s0,
                "asian": rng.uniform(0.6, 1.4) * s0, "levels": mix,
                "cap": (rng.uniform(0.6, 1.1) * s0 if model.n_steps <= 8
                        else None)}
        data["density_key"] = (id(model), alpha_seed)
        self._densities.setdefault(data["density_key"], []).extend(
            (Payoff.call(data["call"]), Payoff.asian_call(data["asian"])))
        return Request("family", f"family N={model.n_steps}", self.new_key(),
                       data)

    def _run_family(self, req, seq):
        d = req.data
        model = d["model"]
        alphas = oracle.random_alpha(model, d["alpha_seed"])
        density = measures.mixture_density(model, alphas)
        mart = measures.verify_martingale(model, density, MARTINGALE_TOL)
        e_call = measures.measure_expectation(model, density,
                                              Payoff.call(d["call"]))
        e_asian = measures.measure_expectation(model, density,
                                               Payoff.asian_call(d["asian"]))
        surface_cls = decomposition.SupermartingaleSurface
        surfaces = [surface_cls.from_values(model, d["levels"])]
        if d["cap"] is not None:
            cap = d["cap"]
            surfaces.append(surface_cls.from_price_function(
                model, lambda prices: min(prices[-1], cap)))
        checks = []
        for surface in surfaces:
            bound = decomposition.check_ratio_bound(model, surface)
            dec = decomposition.optional_decompose(model, surface)
            rep = decomposition.verify_decomposition(
                model, surface, dec, [density], tol=DECOMPOSITION_TOL)
            checks.append((bound.passed, rep.passed))
        return {"martingale": mart.passed and mart.equivalent,
                "call": e_call, "asian": e_asian, "surfaces": checks}

    def _brute(self, d) -> dict:
        """brute_expectation of every payoff priced under the density of
        ``d``, in one pass over the paths, keyed by (kind, strike)."""
        model = d["model"]
        payoffs = self._densities[d["density_key"]]
        density = measures.mixture_density(
            model, oracle.random_alpha(model, d["alpha_seed"]))
        values = oracle.brute_expectation(model, density,
                                          _PayoffVector(payoffs))
        return {(p.kind, p.strike): float(v) for p, v in zip(payoffs, values)}

    def _check_family(self, req, out):
        d = req.data
        model = d["model"]
        if not out["martingale"]:
            return f"martingale check failed at tol {MARTINGALE_TOL}"
        for bound_ok, dec_ok in out["surfaces"]:
            if not bound_ok:
                return "ratio bound failed"
            if not dec_ok:
                return ("verify_decomposition failed at tol "
                        f"{DECOMPOSITION_TOL}")
        s0 = model.s0
        for name, payoff in (("call", Payoff.call(d["call"])),
                             ("asian", Payoff.asian_call(d["asian"]))):
            value = out[name]
            # under any martingale measure (s0 - K)^+ <= E[claim] <= s0
            slack = MARTINGALE_TOL * s0
            if not (math.isfinite(value) and max(s0 - payoff.strike, 0.0)
                    - slack <= value <= s0 + slack):
                return f"{name} expectation {value!r} outside its bounds"
            if model.path_count() > oracle.OracleBudget().max_paths:
                continue
            slow = self.cached_oracle(d["density_key"],
                                      lambda: self._brute(d))[
                                          (payoff.kind, payoff.strike)]
            if abs(value - slow) / max(1.0, abs(slow)) > EXPECTATION_REL_TOL:
                return f"{name} expectation differs from brute_expectation"
        return None


WORKLOADS = {w.name: w for w in (GridSup, ExhaustiveSup, FamilyDecompose)}

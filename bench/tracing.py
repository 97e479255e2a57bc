"""Spans around the package's public calls, recorded from outside.

``Tracer.install`` replaces module and class attributes of ``superhedge``
with wrappers that record a span per call: name, start, end, parent span
and request id.  No source file of the package is edited, and
``uninstall`` puts the originals back.  Spans stay in memory until
``write``.  A span's self time is its duration minus the time covered by
its child spans; a layer's ``busy_s`` is the sum of its spans' self time.

Work counters (trees, leaves, nodes, cells, paths) are computed from each
call's inputs, before the span opens; the trees of a grid-mode coordinate
ascent are its calls to ``pricing.spot_tree_value``.  Counters repeat
exactly for equal inputs and are comparable across tree engines.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from superhedge import cli, decomposition, measures, oracle, pricing, reports

CHECK = "check"   # request id of spans recorded by the output-check pass


def _selections(model) -> int:
    return math.prod(sum(at.eps < 0 for at in s.shocks)
                     * sum(at.eps > 0 for at in s.shocks) for s in model.steps)


def _history_counts(model) -> list[int]:
    """Number of history prefixes at each step 0..N-1."""
    out, h = [], 1
    for c in model.atom_counts():
        out.append(h)
        h *= c
    return out


def _grid_pairs(config) -> int:
    pts = np.linspace(config.eps_range[0], config.eps_range[1],
                      config.grid_points)
    return int((pts < 0).sum()) * int((pts > 0).sum())


def _classify_sup(model, payoff, config, *rest, **kw):
    n = model.n_steps
    if config.mode == "discrete_exhaustive":
        if payoff.kind == "table":
            return "pricing.sup_table", {}
        sel = _selections(model)
        return "pricing.sup_exhaustive", {"trees": sel, "leaves": sel * 2 ** n}
    combos = _grid_pairs(config) ** n
    if config.mode == "grid" and combos <= measures.SELECTION_CAP:
        return "pricing.sup_grid", {"trees": combos}
    return "pricing.sup_ascent", {}     # trees: spot_tree_value calls


def _classify_inf(model, payoff, config, *rest, **kw):
    if config.mode == "discrete_exhaustive":
        return "pricing.inf_exhaustive", {"trees": _selections(model)}
    return "pricing.inf_grid", {}


def _plain(name):
    return lambda *args, **kw: (name, {})


def _surface_nodes(model, *rest, **kw):
    h = sum(_history_counts(model)) + math.prod(model.atom_counts())
    return "decomposition.surface_build", {"nodes": h}


def _decomposition_bytes(result, *args, **kw) -> dict:
    arrays = [a for part in (result.gamma, result.xi0, result.g, result.M)
              for a in part]
    return {"bytes_computed": sum(a.nbytes for a in arrays)}


def _surface_bytes(result, *args, **kw) -> dict:
    return {"bytes_computed": sum(v.nbytes for v in result.values)}


def _report_bytes(result, path, *args, **kw) -> dict:
    return {"bytes": os.path.getsize(path)}


# (owner, attribute, classify(*args) -> (name, counters),
#  post(result, *args) -> counters known only after the call)
WRAPS = (
    (pricing, "superhedge_sup", _classify_sup, None),
    (pricing, "superhedge_inf", _classify_inf, None),
    (measures.SpotMeasure, "max_node_drift",
     lambda self: ("measures.max_node_drift",
                   {"nodes": 2 ** self.model.n_steps - 1}), None),
    (measures, "integral_representation_check",
     lambda model, alphas, payoff: (
         "measures.integral_representation_check",
         {"trees": math.prod(len(sa.down_atoms) * len(sa.up_atoms)
                             for sa in alphas.steps)}), None),
    (measures, "mixture_density",
     lambda model, alphas: ("measures.mixture_density", {"cells": sum(
         h * c for h, c in zip(_history_counts(model), model.atom_counts()))}),
     None),
    (measures, "verify_martingale",
     lambda model, *a, **k: ("measures.verify_martingale",
                             {"nodes": sum(_history_counts(model))}), None),
    (measures, "measure_expectation",
     lambda model, *a, **k: ("measures.measure_expectation",
                             {"paths": model.path_count()}), None),
    (decomposition.SupermartingaleSurface, "from_values", _surface_nodes,
     _surface_bytes),
    (decomposition.SupermartingaleSurface, "from_price_function",
     _surface_nodes, _surface_bytes),
    (decomposition, "check_ratio_bound",
     _plain("decomposition.check_ratio_bound"), None),
    (decomposition, "optional_decompose",
     _plain("decomposition.optional_decompose"), _decomposition_bytes),
    (decomposition, "verify_decomposition",
     lambda model, surface, dec, densities, *a, **k: (
         "decomposition.verify_decomposition",
         {"densities": len(densities)}), None),
    (cli, "main", _plain("cli.main"), None),
    (cli, "load_model", _plain("model.load_model"), None),
    (reports, "write_report", _plain("reports.write_report"), _report_bytes),
    (oracle, "brute_sup_selections", _plain("oracle.brute_sup_selections"),
     None),
    (oracle, "brute_expectation", _plain("oracle.brute_expectation"), None),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # [name, start, end, parent index, request id, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.request = None
        self.tree_calls = 0

    # -- recording -----------------------------------------------------
    def open(self, name: str, counters: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request, counters or {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, classify, post):
        tracer = self

        def traced(*args, **kwargs):
            name, counters = classify(*args, **kwargs)
            stack = tracer._stack
            nested = bool(stack) and tracer.spans[stack[-1]][0] == name
            trees_before = tracer.tree_calls
            idx = tracer.open(name, {} if nested else counters)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "pricing.sup_ascent":
                trees = tracer.tree_calls - trees_before
                tracer.spans[idx][5]["trees"] = trees
            if post is not None and not nested:
                tracer.spans[idx][5].update(post(result, *args, **kwargs))
            return result

        return traced

    def _count_trees(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.tree_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, classify, post in WRAPS:
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, classify,
                                                  post))
            else:
                wrapped = self._wrap(original, classify, post)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        # grid-mode ascent evaluates one spot tree per candidate
        original = pricing.__dict__["spot_tree_value"]
        self._saved.append((pricing, "spot_tree_value", original))
        pricing.spot_tree_value = self._count_trees(original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layers(self, requests: bool = True) -> dict:
        """Per span name: calls, busy_s (self time) and summed counters,
        over spans of timed requests (or, with requests=False, of the
        output-check pass)."""
        stats: dict = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, req, counters = span
            if (req == CHECK) == requests or req is None:
                continue
            st = stats[name]
            st["calls"] += 1
            st["busy_s"] += self_s
            for k, v in counters.items():
                st[k] += v
        return {k: dict(v) for k, v in stats.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req, counters in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "request": req,
                    **({"counters": counters} if counters else {})}) + "\n")

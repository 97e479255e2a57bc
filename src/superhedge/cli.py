"""Command-line front end.

Commands: price, interval, estimate, verify, decompose, oracle.
Exit codes: 0 success, 1 validation failure, unreadable/unwritable file or
degenerate branch weights (ZeroDivisionError), 2 budget/cap exceeded.
Reports are JSON with floats at 17 significant digits; stdout carries a
human-readable summary.  ``main(argv)`` may be called repeatedly in one
process; every call shares the one parser ``build_parser`` returns.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import estimation, measures, oracle, pricing, reports
from .decomposition import (export_decomposition, optional_decompose,
                            surface_from_nodes)
from .errors import CapExceededError, ValidationError
from .model import _number, _require, load_json, load_model
from .pricing import Payoff, SearchConfig

_PAYOFFS = ("call", "put", "asian_call", "asian_put")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _eps_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO,HI") from None
    return lo, hi


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Every caller gets the same parser, so callers must not change it.
    ``parse_args`` keeps no state between calls: each returns a fresh
    namespace and every default is immutable.
    """
    parser = _Parser(prog="superhedge")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("price", help="super-hedge fair price")
    p.add_argument("--model", required=True)
    p.add_argument("--payoff", required=True, choices=_PAYOFFS)
    p.add_argument("--strike", required=True, type=float)
    p.add_argument("--method", required=True,
                   choices=("closed", "exhaustive", "grid"))
    p.add_argument("--eps-range", type=_eps_range, default=(-12.0, 12.0))
    p.add_argument("--grid-points", type=int, default=49)
    p.add_argument("--out")

    p = sub.add_parser("interval", help="non-arbitrage price interval")
    p.add_argument("--model", required=True)
    p.add_argument("--payoff", required=True, choices=_PAYOFFS)
    p.add_argument("--strike", required=True, type=float)
    p.add_argument("--out")

    p = sub.add_parser("estimate", help="estimate exposures from prices")
    p.add_argument("--prices", required=True)
    p.add_argument("--statistic", required=True,
                   choices=("constant_one", "capped_ratio", "identity_tail"))
    p.add_argument("--tail-k", type=int, default=None)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--out")
    p.add_argument("--report")

    p = sub.add_parser("verify", help="martingale-family checks")
    p.add_argument("--model", required=True)
    p.add_argument("--alphas", type=int, default=1, metavar="SEED")
    p.add_argument("--tol", type=float, default=1e-9, help="the integral "
                   "representation deviation is held to tol * max(1, s0)")
    p.add_argument("--out")
    p.add_argument("--dump-density", metavar="FILE",
                   help="write the mixture density per (step, history, atom)")

    p = sub.add_parser("decompose", help="optional decomposition of a surface")
    p.add_argument("--model", required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = p.add_subparsers(dest="subop", required=True, parser_class=_Parser)
    oe = osub.add_parser("expectation")
    oe.add_argument("--model", required=True)
    oe.add_argument("--alphas", type=int, default=1, metavar="SEED")
    oe.add_argument("--payoff", required=True, choices=_PAYOFFS)
    oe.add_argument("--strike", required=True, type=float)
    os_ = osub.add_parser("sup")
    os_.add_argument("--model", required=True)
    os_.add_argument("--payoff", required=True, choices=_PAYOFFS)
    os_.add_argument("--strike", required=True, type=float)
    return parser


def _cmd_price(args) -> int:
    model = load_model(args.model)
    payoff = Payoff(args.payoff, strike=args.strike)
    interval = pricing.non_arbitrage_interval(model.s0, model.a_list, payoff)
    if args.method == "closed":
        value = pricing.closed_form_price(payoff, model.s0, model.a_list)
        argmax = None
        provenance = interval.provenance
    else:
        mode = "discrete_exhaustive" if args.method == "exhaustive" else "grid"
        config = SearchConfig(mode=mode, eps_range=args.eps_range,
                              grid_points=args.grid_points)
        res = pricing.superhedge_sup(model, payoff, config)
        value = res.value
        provenance = res.provenance
        if res.selection is not None:
            argmax = [list(p) for p in res.selection.pairs]
        else:
            argmax = [list(p) for p in res.eps_pairs]
    report = {"payoff": args.payoff, "strike": args.strike,
              "method": args.method, "value": value,
              "interval": {"lower": interval.lower, "upper": interval.upper},
              "argmax_selection": argmax, "provenance": provenance}
    if args.method != "closed":
        key = "selections" if args.method == "exhaustive" else "combinations"
        report["stats"] = {key: res.combinations, "trees": res.trees}
    print(f"{args.payoff} strike {args.strike}: value {value:.10g} "
          f"({args.method}); non-arbitrage [{interval.lower:.10g}, "
          f"{interval.upper:.10g}]")
    if args.out:
        reports.write_report(args.out, report)
    return 0


def _cmd_interval(args) -> int:
    model = load_model(args.model)
    payoff = Payoff(args.payoff, strike=args.strike)
    iv = pricing.non_arbitrage_interval(model.s0, model.a_list, payoff)
    print(f"{args.payoff} strike {args.strike}: non-arbitrage interval "
          f"[{iv.lower:.10g}, {iv.upper:.10g}] ({iv.provenance})")
    if args.out:
        reports.write_report(args.out, {
            "payoff": args.payoff, "strike": args.strike,
            "interval": {"lower": iv.lower, "upper": iv.upper,
                         "attained_lower": iv.attained_lower,
                         "attained_upper": iv.attained_upper},
            "provenance": iv.provenance})
    return 0


def _cmd_estimate(args) -> int:
    sample = estimation.load_price_csv(args.prices)
    spec = estimation.StatisticSpec(args.statistic, tau0=args.tau0,
                                    tail_k=args.tail_k)
    params = estimation.estimate_a(sample, spec)
    print("a = [" + ", ".join(f"{a:.10g}" for a in params.a) + "]")
    if args.out:
        reports.write_report(args.out, estimation.estimated_model_dict(params))
    if args.report:
        reports.write_report(args.report,
                             estimation.estimation_report_dict(sample, params))
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    model = load_model(args.model)
    alphas = oracle.random_alpha(model, args.alphas)
    density = measures.mixture_density(model, alphas)
    if args.dump_density:
        reports.write_report(args.dump_density,
                             measures.export_density(density))
    mart = measures.verify_martingale(model, density, args.tol)
    payoffs = {
        "constant": Payoff.constant(1.0),
        "terminal_price": Payoff.piecewise_linear([(0.0, 0.0)], 1.0),
        "call_at_s0": Payoff.call(model.s0),
    }
    # np.max, unlike max, propagates a NaN deviation
    max_dev = float(np.max([measures.integral_representation_check(
        model, alphas, p) for p in payoffs.values()]))
    ok = mart.passed and max_dev <= args.tol * max(1.0, model.s0)
    print(f"normalization residual {mart.max_norm_residual:.3e}; "
          f"drift residual {mart.max_drift_residual:.3e}; "
          f"equivalence {'ok' if mart.equivalent else 'FAILED'}; "
          f"integral representation deviation {max_dev:.3e}; "
          f"{'PASS' if ok else 'FAIL'} at tol {args.tol:g}")
    if args.out:
        reports.write_report(args.out, {
            "alphas_seed": args.alphas, "tol": args.tol,
            "max_normalization_residual": mart.max_norm_residual,
            "max_drift_residual": mart.max_drift_residual,
            "equivalent": mart.equivalent,
            "min_psi": mart.min_psi,
            "integral_representation_deviation": max_dev,
            "passed": ok})
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    model = load_model(args.model)
    doc = _require(load_json(args.surface), dict, "surface")
    extra = set(doc) - {"floor", "nodes"}
    if extra:
        raise ValidationError(f"unknown surface fields {sorted(extra)}")
    if "floor" not in doc or "nodes" not in doc:
        raise ValidationError("surface file needs 'floor' and 'nodes'")
    surface = surface_from_nodes(
        model, _number(doc, "floor", "in the surface"), doc["nodes"])
    dec = optional_decompose(model, surface)
    max_g = max(float(g.max()) for g in dec.g)
    print(f"decomposed {model.n_steps}-step surface: f0 = "
          f"{surface.values[0][0]:.10g}, max consumption increment "
          f"{max_g:.10g}")
    if args.out:
        reports.write_report(args.out, {
            "floor": surface.floor, "shift": surface.shift,
            "nodes": export_decomposition(dec)})
    return 0


def _cmd_oracle(args) -> int:
    model = load_model(args.model)
    payoff = Payoff(args.payoff, strike=args.strike)
    if args.subop == "expectation":
        alphas = oracle.random_alpha(model, args.alphas)
        density = measures.mixture_density(model, alphas)
        fast = measures.measure_expectation(model, density, payoff)
        slow = oracle.brute_expectation(model, density, payoff)
        rel = abs(fast - slow) / max(1.0, abs(slow))
        print(f"measure_expectation {fast!r}; brute {slow!r}; "
              f"relative deviation {rel:.3e}")
        return 0 if rel <= 1e-12 else 1
    value, selection = oracle.brute_sup_selections(model, payoff)
    res = pricing.superhedge_sup(
        model, payoff, SearchConfig(mode="discrete_exhaustive"))
    same = value == res.value and selection.pairs == res.selection.pairs
    print(f"superhedge_sup {res.value!r} at {res.selection.pairs}; "
          f"brute {value!r} at {selection.pairs}; "
          f"{'bit-identical' if same else 'MISMATCH'}")
    return 0 if same else 1


_DISPATCH = {"price": _cmd_price, "interval": _cmd_interval,
             "estimate": _cmd_estimate, "verify": _cmd_verify,
             "decompose": _cmd_decompose, "oracle": _cmd_oracle}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

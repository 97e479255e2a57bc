"""Benchmark of the superhedge package: three closed-loop workloads.

Run one workload (the form the benchmark contract uses):

    python3 bench/run.py --workload grid_sup --seed 1 --seconds 20 --trace 0

A run executes ``round(seconds / nominal_round_s)`` whole rounds of the
workload's request mix (at least one), so at baseline speed it lasts about
``--seconds`` and on any engine it sends the same requests.

or all of them, each in its own process, untraced and traced:

    python3 bench/run.py [--seed 1] [--seconds 20]

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around the package's public calls and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, with environment
provenance, go to ``bench/out/<workload>-s<seed>-t<trace>.json`` and, for
traced runs, the spans to ``bench/out/spans-<workload>-s<seed>.jsonl``.
``--smoke`` runs one round of tiny inputs; ``bench/selftest.py`` uses it.

The package is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BASELINE_ENGINE = "python"   # the engine the recorded baseline ran on
SETUP_REPEATS = 7
TAIL_BEYOND = 10             # samples beyond the reported tail percentile
WORK_UNITS = {"tree": "trees", "leaf": "leaves"}   # ns_per_<unit> divisors


# -- environment provenance --------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpuinfo(field: str) -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith(field):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        d = os.path.join(base, entry)
        if entry.startswith("index"):
            out[f"L{_read(d + '/level')} {_read(d + '/type')}"] = _read(
                d + "/size")
    return out


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    for line in _read("/proc/self/maps").splitlines():
        lib = line.split()[-1]
        if "openblas" not in lib.lower():
            continue
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(superhedge, numpy) -> dict:
    engine = superhedge.backend_name
    return {
        "engine": engine, "baseline_engine": BASELINE_ENGINE,
        "comparable": engine == BASELINE_ENGINE,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": _cpuinfo("model name"), "cpu_flags": _cpuinfo("flags"),
        "nproc": len(os.sched_getaffinity(0)), "caches": _caches(),
        "blas_threads": _blas_threads(),
    }


# -- one workload ------------------------------------------------------------

def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import superhedge; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def round_count(workload_cls, seconds, smoke) -> int:
    if smoke:
        return 1
    return max(1, round(seconds / workload_cls.nominal_round_s))


def setup(workload_cls, seed, workdir, smoke, rounds, repeats):
    """Import, generate the seeded corpus and model files, and warm up,
    ``repeats`` times; returns the last workload and, per repeat, the
    seconds of each part."""
    parts = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        t_import = _import_seconds()
        t0 = time.perf_counter()
        workload = workload_cls(seed, workdir, smoke, rounds)
        t1 = time.perf_counter()
        for i, req in enumerate(workload.warmup):
            workload.execute(req, -1 - i)
        t2 = time.perf_counter()
        parts.append({"import_s": t_import, "build_s": t1 - t0,
                      "warmup_s": t2 - t1, "total_s": t_import + t2 - t0})
    return workload, parts


def execute(workload, req, seq, tracer=None) -> dict:
    """One request; with a tracer, inside a ``request`` span."""
    if tracer is not None:
        tracer.request = seq
        root = tracer.open("request")
    t0 = time.perf_counter()
    out, error = None, None
    try:
        out = workload.execute(req, seq)
    except Exception as exc:   # a failed request, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.request = None
    return {"req": req, "out": out, "error": error, "latency": latency}


def run_rounds(workload, rounds):
    """Closed loop over the first ``rounds`` rounds.  Returns (records,
    elapsed, the duration of each round)."""
    records, round_s = [], []
    start = time.perf_counter()
    for r in range(rounds):
        for req in workload.rounds[r]:
            records.append(execute(workload, req, len(records)))
        round_s.append(time.perf_counter() - start - sum(round_s))
    return records, time.perf_counter() - start, round_s


def check_records(workload, records) -> None:
    """Set each record's failure reason (None when its output is correct)
    and whether that failure is a known defect."""
    for rec in records:
        reason = rec["error"]
        if reason is None:
            try:
                reason = workload.check(rec["req"], rec["out"])
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        rec["failure"] = reason
        rec["known"] = reason is not None and workload.known_defect(
            rec["req"], reason)


def outcome(records) -> dict:
    failed = [r for r in records if r["failure"] is not None]
    reasons: dict = {}
    for r in failed:
        key = f"{r['req'].label}: {r['failure'][:120]}"
        reasons[key] = reasons.get(key, 0) + 1
    return {"attempted": len(records), "failed": len(failed),
            "correct": all(r["known"] for r in failed),
            "failed_ratio": len(failed) / len(records),
            "failures": dict(sorted(reasons.items()))}


def latency_stats(latencies) -> dict:
    """Median, and the latency at the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {"p50_ms": statistics.median(lat) * 1e3, "tail_ms": lat[k] * 1e3,
            "tail_percentile": 100.0 * (k + 1) / n, "samples": n,
            "beyond_tail": n - k - 1}


def _layer_metric(layers, name, stat):
    st = layers.get(name, {})
    if stat.startswith("ns_per_"):
        work = st.get(WORK_UNITS[stat[len("ns_per_"):]], 0)
        return st.get("busy_s", 0.0) * 1e9 / work if work else 0.0
    if stat == "self_s":
        stat = "busy_s"
    return st.get(stat, 0.0) if stat == "busy_s" else int(st.get(stat, 0))


def per_layer_metrics(spec, tracer, traced_s, untraced_s):
    layers = tracer.layers()
    layers.update((name, st) for name, st in tracer.layers(requests=False)
                  .items() if name.startswith("oracle."))   # output checks
    request_s = layers.get("request", {})
    total = sum(end - start for name, start, end, _, req, _ in tracer.spans
                if name == "request")
    bytes_computed = sum(st.get("bytes_computed", 0)
                         for name, st in layers.items()
                         if name.startswith("decomposition."))
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_ratio":
            value = 1.0 - untraced_s / traced_s
        elif name == "trace.attributed_share":
            value = 1.0 - request_s.get("busy_s", 0.0) / total
        elif name == "decomposition.bytes_computed":
            value = int(bytes_computed)
        else:
            layer, stat = name.rsplit(".", 1)
            value = _layer_metric(layers, layer, stat)
        out[name] = {"value": value, "unit": m["unit"]}
    return out, layers


def run_workload(args, spec) -> int:
    if not os.path.isfile(os.path.join(SRC, "superhedge", "__init__.py")):
        print(f"error: no superhedge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy
    import superhedge
    import_s = time.perf_counter() - t0
    if not os.path.abspath(superhedge.__file__).startswith(SRC + os.sep):
        print(f"error: imported superhedge from {superhedge.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment(superhedge, numpy)
    if not env["comparable"]:
        print(f"warning: engine {env['engine']!r} differs from the baseline "
              f"engine {BASELINE_ENGINE!r}; results are not comparable",
              file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    workdir = os.path.join(args.out, f"work-{args.workload}-{os.getpid()}")
    workload_cls = WORKLOADS[args.workload]
    try:
        workload, setup_parts = setup(
            workload_cls, args.seed, workdir, args.smoke,
            round_count(workload_cls, args.seconds, args.smoke),
            1 if args.smoke else SETUP_REPEATS)
        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke, "env": env, "import_s": import_s,
                  "rounds": workload.n_rounds, "setup_runs": setup_parts}
        if args.trace:
            metrics = traced_run(args, spec, workload, result)
        else:
            metrics = untraced_run(args, spec, workload, result, statistics
                                   .median(p["total_s"] for p in setup_parts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = metrics
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']} {m['unit']}")
    if "latency" in result:
        lat = result["latency"]
        print(f"{args.workload} latency_tail_ms is the "
              f"p{lat['tail_percentile']:.2f} latency of {lat['samples']} "
              f"requests ({lat['beyond_tail']} beyond it)")
    print(f"{args.workload} failed_ratio {result['failed_ratio']} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def untraced_run(args, spec, workload, result, setup_s) -> dict:
    records, elapsed, round_s = run_rounds(workload, workload.n_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    check_records(workload, records)
    result["check_s"] = time.perf_counter() - t0
    result.update(outcome(records))
    lat = latency_stats([r["latency"] for r in records])
    classes: dict = {}
    for r in records:
        classes.setdefault(r["req"].label, []).append(r["latency"])
    lat["class_p50_ms"] = {k: statistics.median(v) * 1e3 for k, v in
                           sorted(classes.items())}
    lat["class_count"] = {k: len(v) for k, v in sorted(classes.items())}
    repeats = len(records) - len({r["req"].key for r in records})
    result.update({"elapsed_s": elapsed, "round_s": round_s, "latency": lat,
                   "repeat_share": repeats / len(records)})
    values = {"requests_per_s": len(records) / elapsed,
              "latency_p50_ms": lat["p50_ms"],
              "latency_tail_ms": lat["tail_ms"],
              "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def traced_run(args, spec, workload, result) -> dict:
    """Trace half of the untraced run's rounds; each traced request is
    followed at once by the same request untraced, so that the tracing
    overhead is measured on pairs that run under the same machine load."""
    from tracing import CHECK, Tracer

    rounds = max(1, workload.n_rounds // 2)
    tracer = Tracer()
    traced, replay = [], []
    for r in range(rounds):
        for req in workload.rounds[r]:
            tracer.install()
            try:
                traced.append(execute(workload, req, 2 * len(traced), tracer))
            finally:
                tracer.uninstall()
            replay.append(execute(workload, req, 2 * len(replay) + 1))
    traced_s = sum(rec["latency"] for rec in traced)
    untraced_s = sum(rec["latency"] for rec in replay)
    tracer.install()
    tracer.request = CHECK
    try:
        check_records(workload, traced + replay)
    finally:
        tracer.uninstall()
    result.update(outcome(traced + replay))
    metrics, layers = per_layer_metrics(spec, tracer, traced_s, untraced_s)
    result.update({"traced_rounds": rounds, "traced_s": traced_s,
                   "untraced_s": untraced_s, "layers": layers})
    tracer.write(os.path.join(args.out,
                              f"spans-{args.workload}-s{args.seed}.jsonl"))
    return metrics


# -- all workloads -----------------------------------------------------------

def run_all(args, spec) -> int:
    """Each workload in its own process, untraced then traced."""
    summary = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   w["name"], "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace), "--out", args.out]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            summary[f"{w['name']}/trace{trace}"] = json.loads(lines[-1])
    path = os.path.join(args.out, f"summary-s{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of tiny inputs")
    parser.add_argument("--out", default=os.path.join(BENCH, "out"))
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    sys.path.insert(0, BENCH)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

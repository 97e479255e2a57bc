"""Self-test of the benchmark, on tiny inputs.

    python3 bench/selftest.py

Asserts that the smoke run of every workload emits every metric named in
BENCHMARK.json with its unit, that a deliberately corrupted answer (an
exhaustive sup off by one ulp) counts as failed and makes the run
incorrect, and that the benchmark refuses to run without the package
sources.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out", "selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(spec) -> None:
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, "--workload", w["name"], "--seed", "3",
                        "--seconds", "1", "--trace", str(trace), "--smoke",
                        "--out", OUT)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] is True, result
            assert result["attempted"] >= 1
            assert any("failed_ratio" in line for line in lines[:-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            assert set(got) == set(want), set(got) ^ set(want)
            for name, m in got.items():
                assert m["unit"] == want[name], (name, m["unit"])
                assert isinstance(m["value"], (int, float)), name
                assert math.isfinite(m["value"]), name
            print(f"ok   {w['name']} trace {trace}: {len(got)} metrics")


def check_corruption() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import run
    from workloads import ExhaustiveSup

    workdir = os.path.join(OUT, "corrupt")
    workload = ExhaustiveSup(3, workdir, smoke=True)
    records, _, _ = run.run_rounds(workload, 1)
    run.check_records(workload, records)
    assert run.outcome(records)["failed"] == 0
    corrupted = 0
    for rec in records:
        if rec["req"].kind == "table":
            value, sel = rec["out"]
            rec["out"] = (math.nextafter(value, math.inf), sel)
            corrupted += 1
        elif rec["req"].kind == "cli":
            path = rec["out"][1]
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            report["value"] = math.nextafter(report["value"], math.inf)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            corrupted += 1
    assert corrupted == 2
    run.check_records(workload, records)
    result = run.outcome(records)
    assert result["failed"] == corrupted, result
    assert result["correct"] is False, result
    shutil.rmtree(workdir, ignore_errors=True)
    print("ok   an exhaustive value off by one ulp counts as failed")


def check_refuses_without_sources() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
    done = _run(bare, "--workload", "grid_sup", "--seed", "1", "--seconds",
                "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    shutil.rmtree(bare)
    print(f"ok   without src/ the benchmark exits {done.returncode}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corruption()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())

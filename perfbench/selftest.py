#!/usr/bin/env python3
"""Self-test of the benchmark; exits 0 only if every check passes.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, passes the oracle
   gate and emits every metric BENCHMARK.json names, with its unit.
2. The traced run writes a Chrome trace holding every span kind.
3. Negative control: with one row of each run's table corrupted, the gate
   counts the run as failed and the command exits non-zero.
4. In a directory holding only BENCHMARK.json and the benchmark's files,
   the command exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--seed", "7", "--seconds", "0.2", "--steps", "30"]
SPANS = {"workload.build", "engine.construct", "engine.run", "model.grad",
         "model.hook", "replay.cache", "replay.table.read",
         "replay.table.apply", "replay.pq"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, args):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{workload} --trace {trace}"
            code, result, err = run(ROOT, ["--workload", workload,
                                           "--trace", str(trace)] + TINY)
            check(code == 0 and result is not None, f"{tag}: exits 0 "
                  f"with a result (exit {code}){'' if code == 0 else err[-400:]}")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{tag}: result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{tag}: oracle gate passed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: metrics and units match "
                  f"BENCHMARK.json (missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))})")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{tag}: every value is a number")
        path = os.path.join(ROOT, ".bench_build", "traces",
                            f"{workload}-seed7.json")
        try:
            with open(path) as f:
                chrome = json.load(f)
            names = {e["name"] for e in chrome["traceEvents"]
                     if e.get("ph") == "X"}
            check(SPANS <= names and "nproc" in chrome["metadata"],
                  f"{workload}: Chrome trace has every span and the header "
                  f"(missing {sorted(SPANS - names)})")
        except (OSError, ValueError, KeyError) as err:
            check(False, f"{workload}: Chrome trace readable ({err})")

    code, result, _ = run(ROOT, ["--workload", "zipf-hot", "--trace", "0",
                                 "--negative-control"] + TINY)
    check(code != 0 and result is not None and result["correct"] is False
          and result["failed"] >= 1,
          f"negative control: corrupted row fails the gate (exit {code})")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run(bare, ["--workload", "zipf-hot", "--trace", "0"]
                          + TINY)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          f"benchmark files alone: exits non-zero without a result "
          f"(exit {code})")

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

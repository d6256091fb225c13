#!/usr/bin/env python3
"""Smoke test of the decision-path benchmark at minimal size.

Runs every workload named in BENCHMARK.json untraced and traced with
--smoke, and checks that each run:
  - exits 0 and ends with the JSON result line, correct and with 0 failed;
  - prints exactly the end_to_end (untraced) or per_layer (traced) metrics
    of BENCHMARK.json, each with its unit and a finite value;
  - prints the same decision digest traced as untraced.

Usage, from the root of a checkout: python3 perfbench/smoke_test.py
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    digest = re.search(r"^digest (\S+)", out.stdout, re.M)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def check(workload, trace, result, expected):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        errors.append(f"metrics missing {missing}, unexpected {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r}")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        untraced, digest0 = run(name, 0)
        traced, digest1 = run(name, 1)
        errors += check(name, 0, untraced, bench["end_to_end"])
        errors += check(name, 1, traced, bench["per_layer"])
        if digest0 is None or digest0 != digest1:
            errors.append(f"{name}: digest untraced {digest0} != traced "
                          f"{digest1}")
        print(f"{name}: digest {digest0}, "
              f"{len(untraced['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics")
    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

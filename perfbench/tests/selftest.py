#!/usr/bin/env python3
"""Self-test of the host-performance benchmark, at tiny scale.

    python3 perfbench/tests/selftest.py

Checks, for every workload in BENCHMARK.json:
  * --trace 0 prints every end_to_end metric and --trace 1 every
    per_layer metric, each as a "metric <name> <value> <unit>" line and
    in the final JSON object with the unit BENCHMARK.json names;
  * the final line is a JSON object with exactly the keys correct,
    attempted, failed and metrics, and no run fails;
and then that
  * a deliberately wrong expectation (an expected access count off by
    one) counts every run in "failed" while the benchmark still exits 0
    and prints its result, instead of aborting;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark exit non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT, timeout=170):
    return subprocess.run(["python3", "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")


def result_of(proc, label):
    check(proc.returncode == 0,
          f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    check(lines, f"{label}: no output")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}")
    return result, lines


def check_metrics(result, lines, wanted, label):
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        check(name in result["metrics"], f"{label}: {name} missing")
        got = result["metrics"][name]
        check(got["unit"] == unit,
              f"{label}: {name} unit {got['unit']} != {unit}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: {name} value {got['value']!r}")
        check(printed.get(name) == unit,
              f"{label}: {name} not printed with its unit")
    check(len(result["metrics"]) == len(wanted),
          f"{label}: unexpected metrics "
          f"{sorted(set(result['metrics']) - {m['name'] for m in wanted})}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            result, lines = result_of(
                run(["--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", str(trace), "--tiny"]), label)
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: {result['failed']} failed run(s)\n" +
                  "\n".join(lines[-20:]))
            check_metrics(result, lines, SPEC[key], label)
            print(f"ok  {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} runs")

    workload = SPEC["workloads"][0]["name"]
    result, lines = result_of(
        run(["--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", "0", "--tiny", "--corrupt-expect"]),
        "corrupted expectation")
    check(not result["correct"], "corrupted expectation: reported correct")
    check(result["failed"] == result["attempted"],
          f"corrupted expectation: {result['failed']} of "
          f"{result['attempted']} runs counted as failed")
    check(any(l.startswith("FAILED run") and "accesses" in l for l in lines),
          "corrupted expectation: failing check not named")
    print(f"ok  corrupted expectation: {result['failed']} of "
          f"{result['attempted']} runs failed, process exited 0")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check('"metrics"' not in proc.stdout, "bare directory: printed a result")
    print("ok  bare directory: exit code", proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()

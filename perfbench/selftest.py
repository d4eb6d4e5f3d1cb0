#!/usr/bin/env python3
"""Self-test of the benchmark: a reduced-size pass over every workload.

    python3 perfbench/selftest.py        (from the repository root)

Checks that BENCHMARK.json and run.py agree on the workloads and end-to-end
metrics; that every run of every workload is correct and prints each metric
BENCHMARK.json names, with its unit, both in the table and in the JSON
result (end-to-end metrics at --trace 0, per-layer metrics at --trace 1);
and that a run whose expected counter is corrupted fails. Lists every
problem found and exits non-zero if there was any.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402


def invoke(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL", what, flush=True)

    check({w["name"]: w["why"] for w in manifest["workloads"]} == bench.WORKLOADS,
          "BENCHMARK.json workloads differ from run.py WORKLOADS")
    check([(m["name"], m["unit"]) for m in manifest["end_to_end"]] == bench.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.py END_TO_END")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in manifest[section]}
        for workload in bench.WORKLOADS:
            tag = f"{workload} --trace {trace}"
            code, table, result = invoke(workload, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{tag}: run not correct (exit {code})")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                check(got.get(name) == want.get(name),
                      f"{tag}: {name} has unit {got.get(name)}, BENCHMARK.json says "
                      f"{want.get(name)}")
            rows = {line.split()[0]: line.split()[-1] for line in table if line.split()}
            for name, unit in want.items():
                check(rows.get(name) == unit, f"{tag}: table does not print {name} in {unit}")
            print("ok", tag, flush=True)

    code, _, result = invoke("zipf-hits", 0, "--corrupt-counter", "delivered")
    failed_as_expected = code != 0 and not result["correct"] and result["failed"] > 0
    check(failed_as_expected, "a corrupted expected counter did not fail the run")
    if failed_as_expected:
        print("ok a corrupted expected counter fails the run", flush=True)

    if problems:
        print(f"selftest: {len(problems)} problem(s)")
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the anycastd benchmark at toy scale.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at toy scale
with tracing off and on, and checks that the last line is the result object
with exactly the metrics BENCHMARK.json names, each with its unit, that
the run is correct with no failed operation, and that every end-to-end
value is positive. It then runs each workload with a deliberately
corrupted oracle answer and checks that the run reports itself incorrect
and exits non-zero. Last, it checks that a directory holding only
BENCHMARK.json and the benchmark fails without printing a result.
Exits 0 when every check passes.
"""
import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done


def check_result(result, expected, positive):
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}: {result}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    if result["failed"] != 0:
        problems.append(f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing} extra {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: malformed {entry}")
            continue
        value = entry["value"]
        if entry["unit"] != unit:
            problems.append(f"{name}: unit {entry['unit']!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value} is not positive")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0

    def report(label, problems):
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"       {problem}")

    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--scale", "toy"]
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            code, result, done = run([*base, "--trace", trace])
            problems = check_result(result, expected, trace == "0")
            if code != 0:
                problems.insert(0, f"exit code {code}: {done.stderr[-400:]}")
            report(f"{workload} --trace {trace}", problems)
        code, result, done = run([*base, "--trace", "0", "--corrupt-oracle"])
        problems = []
        if code == 0:
            problems.append("exit code 0 with a corrupted oracle")
        if not isinstance(result, dict) or result.get("correct") is not False:
            problems.append(f"result does not say incorrect: {result}")
        report(f"{workload} corrupted oracle fails", problems)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, done = run(["--workload", spec["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    report("benchmark alone fails without a result",
           ([] if code != 0 else ["exit code 0"]) +
           ([] if result is None else [f"printed a result: {result}"]))

    print(f"selftest: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

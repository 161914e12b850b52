#!/usr/bin/env python3
"""Self-test of the rmbench harness (about a minute):

    python3 rmbench/selftest.py

1. The same --seed yields an identical arrival schedule; another seed does not.
2. A tiny smoke run of every workload, untraced and traced, prints exactly
   the metric names BENCHMARK.json declares (refused percentiles print as
   null under --smoke), and the harness accepts exactly the listed workloads.
3. Run from a directory holding only BENCHMARK.json and rmbench/, the
   benchmark exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper beside this file)

ROOT = run.ROOT


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def bench(binary, *args):
    return subprocess.run([binary] + list(args), cwd=ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)


def check_schedules(binary, workloads):
    for workload in workloads:
        dumps = [bench(binary, "--workload", workload, "--seed", seed, "--seconds", "5",
                       "--trace", "0", "--dump-schedule", "200").stdout
                 for seed in ("7", "7", "8")]
        if not dumps[0].strip():
            fail(workload + ": empty schedule")
        if dumps[0] != dumps[1]:
            fail(workload + ": same seed gave different schedules")
        if dumps[0] == dumps[2]:
            fail(workload + ": different seeds gave the same schedule")
    print("ok: schedules are a function of the seed")


def check_smoke(binary, spec):
    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            result = bench(binary, "--workload", workload, "--seed", "3", "--seconds", "2",
                           "--trace", trace, "--smoke")
            if result.returncode != 0:
                fail("%s trace %s exited %d: %s" % (workload, trace, result.returncode,
                                                    result.stderr[-2000:]))
            last = json.loads(result.stdout.strip().splitlines()[-1])
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (workload, sorted(last)))
            if not last["correct"] or last["attempted"] < 1:
                fail("%s trace %s: run not correct" % (workload, trace))
            if sorted(last["metrics"]) != sorted(names[trace]):
                fail("%s trace %s: metric names differ from BENCHMARK.json: %s" %
                     (workload, trace, sorted(set(last["metrics"]) ^ set(names[trace]))))
            for name, metric in last["metrics"].items():
                if metric["unit"] != units[name]:
                    fail("%s: unit of %s is %s" % (workload, name, metric["unit"]))
    if bench(binary, "--workload", "nosuch", "--seed", "1", "--seconds", "1",
             "--trace", "0").returncode != 2:
        fail("an unknown workload was accepted")
    print("ok: smoke runs emit exactly the names in BENCHMARK.json")


def check_bare_directory():
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "rmbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    result = subprocess.run([sys.executable, "rmbench/run.py", "--workload", "desktop",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if result.returncode == 0 or result.stdout.strip():
        fail("a bare directory produced a result")
    print("ok: a directory without the sources fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        fail("build failed")
    check_schedules(binary, [w["name"] for w in spec["workloads"]])
    check_smoke(binary, spec)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run rmbench on a base revision and on this checkout in alternating pairs.

Usage (from the repository root):

    python3 tools/rmbench_pairs.py --base REV [--change REV]
        [--workloads desktop,crowd,sim_learn] [--seeds 601,602] [--pairs N]
        [--seconds 30] [--work DIR] [--json OUT]

The base revision is exported with `git archive` into DIR/base (no
worktree). The change side is this checkout as it stands, uncommitted edits
included, or with --change a second revision exported into DIR/change (so
the checkout can be edited while the pairs run). Each side is built and run
through its own `rmbench/run.py`, with its own CARGO_TARGET_DIR
(DIR/target-base, DIR/target-change), so the two builds never share
objects. For every workload and seed, N pairs run back to
back; the side that runs first alternates from pair to pair, so a drift in
host speed does not favour one side.

Per workload and metric the report gives each side's median and quartiles
over all its runs, the change/base ratio of the medians, and how many pairs
the change won (ties counted apart). rmbench reports times at a reference
host speed set by its host-speed gauge (the printed `host-speed gauge:
median`); for time metrics, rm_busy_frac and sim_speed the report also
gives the ratio with each run's gauge taken out (time × gauge, sim_speed /
gauge), which separates a code change from a gauge that reads differently
on the two builds. The address of the gauge's `reference_kernel` in both
binaries is printed too (`nm -C`), since where the linker puts it moves the
gauge.

The tool only reads what rmbench prints; it changes nothing under rmbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAUGE_RE = re.compile(r"host-speed gauge: median ([0-9.eE+-]+) us")
TIME_UNITS = {"s", "ms", "us"}
GAUGED_FRACS = {"rm_busy_frac"}
RUN_TIMEOUT_S = 400


def load_end_to_end(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"]


def export(rev, dest):
    """git archive `rev` into `dest` (replacing an older export)."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_once(side_root, target_dir, workload, seed, seconds):
    """One rmbench run; returns (metrics dict, gauge median in us)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(side_root, "rmbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side_root, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"rmbench failed in {side_root} ({workload}, seed {seed})")
    result = json.loads(lines[-1])
    gauge = GAUGE_RE.search(proc.stdout)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, float(gauge.group(1)) if gauge else None


def kernel_address(target_dir):
    binary = os.path.join(target_dir, "rmbench", "rmbench")
    try:
        out = subprocess.run(["nm", "-C", binary], capture_output=True, text=True).stdout
    except OSError:
        return "nm unavailable"
    for line in out.splitlines():
        if "reference_kernel" in line:
            return line.split()[0]
    return "not found"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def gauged(metric, unit, value, gauge):
    """The value with the run's gauge taken out, or None where it does not apply."""
    if gauge is None or value is None:
        return None
    if unit in TIME_UNITS or metric in GAUGED_FRACS:
        return value * gauge
    if metric == "sim_speed":
        return value / gauge
    return None


def fmt(value):
    return "-" if value is None else f"{value:.4g}"


def report(workload, runs, end_to_end, out):
    """Markdown table over the `runs` list of (base, change) run pairs."""
    gauges = {side: [r[side][1] for r in runs if r[side][1] is not None] for side in (0, 1)}
    out.write(f"\n### {workload}: {len(runs)} pairs\n\n")
    for side, name in ((0, "base"), (1, "change")):
        if gauges[side]:
            q1, q2, q3 = quartiles(gauges[side])
            out.write(f"- {name} host-speed gauge median: {q2:.3f} us (quartiles {q1:.3f}-{q3:.3f})\n")
    out.write("\n| metric | base median [q1, q3] | change median [q1, q3] | ratio | wins/ties | "
              "ratio, gauge out |\n|---|---|---|---|---|---|\n")
    for entry in end_to_end:
        name, unit, better = entry["name"], entry["unit"], entry["better"]
        base = [r[0][0].get(name) for r in runs]
        change = [r[1][0].get(name) for r in runs]
        if any(v is None for v in base + change):
            continue
        bq = quartiles(base)
        cq = quartiles(change)
        ratio = cq[1] / bq[1] if bq[1] else None
        wins = sum(1 for b, c in zip(base, change) if (c < b if better == "lower" else c > b))
        ties = sum(1 for b, c in zip(base, change) if c == b)
        base_g = [gauged(name, unit, r[0][0][name], r[0][1]) for r in runs]
        change_g = [gauged(name, unit, r[1][0][name], r[1][1]) for r in runs]
        ratio_g = None
        if all(v is not None for v in base_g + change_g):
            bm, cm = statistics.median(base_g), statistics.median(change_g)
            ratio_g = cm / bm if bm else None
        out.write(f"| {name} ({unit}) | {fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}] | "
                  f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}] | {fmt(ratio)} | "
                  f"{wins}/{ties} of {len(runs)} | {fmt(ratio_g)} |\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--change", help="git revision to measure (default: this checkout)")
    parser.add_argument("--workloads", default="desktop,crowd,sim_learn")
    parser.add_argument("--seeds", default="601")
    parser.add_argument("--pairs", type=int, default=5, help="pairs per workload and seed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--work", default=os.path.join(ROOT, ".bench_build", "pairs"),
                        help="scratch directory for the export and both builds")
    parser.add_argument("--json", help="also write every run's metrics and gauge here")
    args = parser.parse_args()

    work = os.path.abspath(args.work)
    base_root = os.path.join(work, "base")
    change_root = os.path.join(work, "change") if args.change else ROOT
    sides = [(base_root, os.path.join(work, "target-base")),
             (change_root, os.path.join(work, "target-change"))]
    export(args.base, base_root)
    if args.change:
        export(args.change, change_root)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    end_to_end = load_end_to_end(ROOT)

    results = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            for pair in range(args.pairs):
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                got = {}
                for side in order:
                    got[side] = run_once(*sides[side], workload, seed, args.seconds)
                runs.append((got[0], got[1]))
                print(f"{workload} seed {seed} pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
        results[workload] = runs

    out = sys.stdout
    out.write(f"## rmbench pairs: base {args.base} vs {args.change or 'this checkout'}, "
              f"seeds {args.seeds}, {args.seconds} s runs\n\n")
    for side, name in ((0, "base"), (1, "change")):
        out.write(f"- {name} reference_kernel address: {kernel_address(sides[side][1])}\n")
    for workload in workloads:
        report(workload, results[workload], end_to_end, out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({w: [[list(r[0]), list(r[1])] for r in runs] for w, runs in results.items()},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

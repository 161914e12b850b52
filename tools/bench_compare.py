#!/usr/bin/env python3
"""Compare an allocator_scale bench run against a committed baseline.

Usage:
  bench_compare.py --baseline BENCH_allocator_scale.json --current bench_quick.json \
      [--metric warm_seconds_per_cycle] [--threshold 1.2] [--normalize cold_seconds_per_cycle] \
      [--gate apps=1024,candidates=32,core_types=3,solver=lagrangian]

Rows are matched on (apps, candidates, core_types, solver). Only rows
present in BOTH files are compared; the gate row must exist in both or the
script fails. The gate fails when

    (current[metric] / baseline[metric]) > threshold

optionally normalized by the ratio of a second metric (--normalize) measured on
the same row. Normalizing by cold_seconds_per_cycle damps absolute
machine-speed differences between the baseline box and the CI runner: cold and
warm solves run the same code paths up to the incremental replay, so a
uniformly slower machine shifts both and cancels out, while a genuine
regression in the warm (incremental) path moves only the numerator.

All other shared rows are reported for trend-watching but never gate — CI
machines are too noisy to hard-fail on every point.
"""

from __future__ import annotations

import argparse
import json
import sys

KEY_FIELDS = ("apps", "candidates", "core_types", "solver")


def load_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data.get("results")
    if not isinstance(rows, list):
        raise SystemExit(f"{path}: no 'results' array")
    out = {}
    for row in rows:
        key = tuple(row.get(f) for f in KEY_FIELDS)
        out[key] = row
    return out


def parse_gate(spec):
    gate = {}
    for part in spec.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if name not in KEY_FIELDS:
            raise SystemExit(f"--gate field '{name}' not in {KEY_FIELDS}")
        gate[name] = value if name == "solver" else int(value)
    return gate


def matches(key, gate):
    return all(key[KEY_FIELDS.index(f)] == v for f, v in gate.items())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--current", required=True, help="freshly measured JSON")
    ap.add_argument("--metric", default="warm_seconds_per_cycle")
    ap.add_argument("--threshold", type=float, default=1.2,
                    help="max allowed current/baseline ratio on the gate row")
    ap.add_argument("--normalize", default=None, metavar="METRIC",
                    help="divide the gate ratio by this metric's ratio "
                         "(e.g. cold_seconds_per_cycle) to cancel machine speed")
    ap.add_argument("--gate", default="apps=1024,candidates=32,core_types=3,solver=lagrangian",
                    help="comma-separated field=value filter selecting gate rows")
    args = ap.parse_args(argv)

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)
    gate = parse_gate(args.gate)

    shared = sorted(k for k in current if k in baseline)
    if not shared:
        print("bench_compare: no shared rows between baseline and current", file=sys.stderr)
        return 2

    gate_rows = [k for k in shared if matches(k, gate)]
    if not gate_rows:
        print(f"bench_compare: gate row {gate} missing from shared rows", file=sys.stderr)
        return 2

    failures = []
    print(f"{'row':<40} {'base':>10} {'cur':>10} {'ratio':>7}  gated")
    for key in shared:
        brow, crow = baseline[key], current[key]
        base = brow.get(args.metric)
        cur = crow.get(args.metric)
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)) or base <= 0:
            continue
        ratio = cur / base
        note = ""
        if args.normalize:
            nbase = brow.get(args.normalize)
            ncur = crow.get(args.normalize)
            if isinstance(nbase, (int, float)) and isinstance(ncur, (int, float)) \
                    and nbase > 0 and ncur > 0:
                ratio /= ncur / nbase
                note = f" (normalized by {args.normalize})"
        gated = key in gate_rows
        label = "x".join(str(v) for v in key[:3]) + f" {key[3]}"
        print(f"{label:<40} {base * 1e6:>9.1f}u {cur * 1e6:>9.1f}u {ratio:>6.2f}x  "
              f"{'GATE' if gated else '-'}{note}")
        if gated and ratio > args.threshold:
            failures.append((label, ratio))

    if failures:
        for label, ratio in failures:
            print(f"bench_compare: FAIL {label}: {args.metric} ratio {ratio:.2f} "
                  f"> {args.threshold:.2f}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(gate_rows)} gate row(s) within "
          f"{args.threshold:.2f}x on {args.metric})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

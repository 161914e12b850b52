#!/usr/bin/env python3
"""Build the rmbench harness from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 rmbench/run.py --workload desktop|crowd|sim_learn --seed N \
        --seconds S --trace 0|1 [--smoke]

The harness is built with CMake into $CARGO_TARGET_DIR/rmbench (default
.bench_build/rmbench under the repository root); an up-to-date build is a
no-op. Build output goes to stderr, so the harness's last stdout line stays
its JSON result. Exits non-zero, printing no result, when the HARP sources
are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "rmbench")


def build():
    """Configure (once) and build the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("rmbench: HARP sources (src/) not found beside rmbench/", file=sys.stderr)
        return None
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                      env=env).returncode != 0:
        return None
    binary = os.path.join(out, "rmbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    binary = build()
    if binary is None:
        return 2
    env = dict(os.environ, TMPDIR=os.path.join(build_dir(), "tmp"))
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("rmbench: harness exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())

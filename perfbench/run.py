#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload train_direct --seed 1 --seconds 10 --trace 0

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles the repository's libraries from src/ and links them. It is
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
before every run; after the first run that is a quick no-op check.

Standard output is the benchmark's: a host line, an operations line, one
line per metric, and last a one-line JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error. The
exit code is the benchmark's (0 = every check passed), or 2 when the
repository sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_direct", "classify_binary", "stream_text")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def source_id():
    """The git commit when the checkout is a work tree, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git-" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found (no src/CMakeLists.txt next to "
             "perfbench/); run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "rpm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "rpm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    # Self-test knobs (perfbench/selftest.py).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(root, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    os.makedirs(os.path.join(root, "traces"), exist_ok=True)
    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %ds" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

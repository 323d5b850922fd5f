#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced
and traced, then once per correctness check with a deliberately
corrupted label or distance, which that check must catch.

    python3 perfbench/selftest.py

Runs perfbench/run.py (which builds first). Exit code 0 when every case
behaves as expected.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, corrupted check, what the failed check reports).
CORRUPTIONS = [
    ("train_direct", "row", "from the reference distance"),
    ("train_direct", "accuracy", "does not exceed the majority-class rate"),
    ("train_direct", "staged", "than RpmClassifier::Train"),
    ("classify_binary", "row", "from the reference distance"),
    ("classify_binary", "classify", "differs from RpmClassifier::Classify"),
    ("stream_text", "row", "from the reference distance"),
    ("stream_text", "stream", "differs from batch classification"),
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace="0", corrupt=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", trace,
           "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stderr


def main():
    spec = load_spec()
    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    failures = 0

    def report(ok, what, detail=""):
        nonlocal failures
        failures += 0 if ok else 1
        print("%s  %s%s" % ("pass" if ok else "FAIL", what,
                            "" if ok else "  " + detail))
        sys.stdout.flush()

    for w in spec["workloads"]:
        for trace in ("0", "1"):
            code, result, err = run(w["name"], trace)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0
                  and list(result["metrics"]) == names[trace])
            if ok and trace == "0":
                ok = all(m["value"] > 0 for m in result["metrics"].values())
            report(ok, "%s trace=%s runs clean and prints every metric" %
                   (w["name"], trace), err[-500:])

    for workload, check, message in CORRUPTIONS:
        code, result, err = run(workload, corrupt=check)
        ok = (code == 3 and result is not None and not result["correct"]
              and message in err)
        report(ok, "%s: corrupted %s is caught" % (workload, check),
               "exit %d, stderr %s" % (code, err[-500:]))

    print("%d failure(s)" % failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

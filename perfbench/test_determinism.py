#!/usr/bin/env python3
"""Determinism check for the serve-update workload.

Runs serve-update twice on one seed at small scale and asserts that the
fingerprint (final G_APEX size, publish/refresh/feedback counts, result
checksums and cost counters on the final generation) is identical, and that
both runs pass the oracle gate. This guards the drain barrier: if reader
progress at a drain point depended on thread timing, the drained feedback,
and with it the adapted index, would differ between the runs.

Run from the root of a checkout:

    python3 perfbench/test_determinism.py
"""

import json
import subprocess
import sys

ARGS = ["--workload", "serve-update", "--seed", "7", "--seconds", "2", "--trace", "0",
        "--scale", "0.3"]


def fingerprint():
    proc = subprocess.run(["python3", "perfbench/run.py"] + ARGS, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("serve-update run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("serve-update run was not correct: %s" % lines[-1])
    for line in lines:
        if line.startswith("FINGERPRINT "):
            return json.loads(line[len("FINGERPRINT "):])
    sys.exit("no FINGERPRINT line in the output")


def main():
    first, second = fingerprint(), fingerprint()
    diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
    if diff:
        for k in diff:
            print("%s: %s != %s" % (k, first.get(k), second.get(k)))
        sys.exit("fingerprints differ in %d fields" % len(diff))
    print("ok: %d fingerprint fields identical across two runs (G_APEX %s nodes / %s edges)"
          % (len(first), first["apex.summary_nodes"], first["apex.summary_edges"]))


if __name__ == "__main__":
    main()

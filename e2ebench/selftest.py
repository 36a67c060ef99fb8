#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/selftest.py

It builds the benchmark program, then checks that
  * the verifier replica reaches explore()'s exact fixpoint on open N=3,
    and explore() matches its pins there;
  * the simulator replica reproduces runOnce()'s ticks, messages, hits
    and misses at 500 ops/core, on both organizations and all three
    protocols;
  * a deliberately wrong pin fails the gate, and flips the exit status
    and the `correct` field of the benchmark command, which passes
    without it.
Exit status 0 means every check passed.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*extra):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", "verify-open-n5", "--seconds", "1",
                        *extra],
                       capture_output=True, text=True, cwd=run.ROOT)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def main():
    if not run.build():
        return 1
    failures = subprocess.run([run.BINARY, "--self-test"],
                              cwd=run.ROOT).returncode != 0

    checks = []
    rc, rec = bench()
    checks.append(("verify-open-n5 passes its pins",
                   rc == 0 and rec is not None and rec["correct"]))
    rc, rec = bench("--wrong-pin")
    checks.append(("a wrong pin flips the exit status and `correct`",
                   rc != 0 and rec is not None and not rec["correct"] and
                   rec["failed"] == rec["attempted"]))
    print("benchmark command:")
    for what, ok in checks:
        print("  %-58s %s" % (what, "ok" if ok else "FAILED"))
        failures += not ok
    print("self-test %s" % ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

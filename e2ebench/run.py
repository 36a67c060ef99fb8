#!/usr/bin/env python3
"""End-to-end benchmark of the paper's own runs.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1] [--wrong-pin]

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn. The script builds the `e2ebench` program and the repository's
libraries from source (Release, into .bench_build/), runs the workload,
prints every metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the trace spans go to .bench_build/traces/. The exit
status is 0 only if every output matched its pinned value.
--wrong-pin skews every pin, so the run must fail (the self-test uses it).
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
BUILD_TYPE = "Release"

# Metrics the one command prints beside the recorded ones: the first is
# defined on the simulator workload only, and fail_frac is 0 when
# healthy, so the record cannot carry them.
EXTRA_UNITS = {
    "sim_runtime_ticks": "ticks",
    "fail_frac": "frac",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "e2ebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("e2ebench: build failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    # Only ask git inside a git checkout, so it never searches the
    # directories above the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(spec, name, args, sha):
    """Run one workload; return (exit status, contract record)."""
    cmd = [BINARY, "--workload", name, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", sha]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.wrong_pin:
        cmd.append("--wrong-pin")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (name, seed))]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    raw = None
    for line in p.stdout.splitlines():
        if line.startswith("E2E "):
            raw = json.loads(line[4:])
        else:
            print(line)
    if raw is None:
        log("e2ebench: %s produced no result (exit %d)"
            % (name, p.returncode))
        return 1, None

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(raw["metrics"]) - set(units))
    if unknown:
        log("e2ebench: metrics not declared in BENCHMARK.json:", unknown)
        return 1, None
    metrics = {}
    for m in declared:
        # A layer the workload never enters did no work: it reports 0.
        default = 0.0 if args.trace else None
        value = raw["metrics"].get(m["name"], default)
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("%s (%s): %d repetition(s) in %.1f s, %d failed%s" % (
        name, "traced" if args.trace else "untraced", raw["attempted"],
        raw["run_s"], raw["failed"],
        (": " + raw["detail"]) if raw["detail"] else ""))
    if raw.get("wall_reps"):
        print("  wall per repetition: " +
              " ".join("%.3f" % v for v in raw["wall_reps"]))
    samples = raw.get("samples", {})
    for key, m in metrics.items():
        n = samples.get(key)
        print("  %-40s %-22.10g %-6s %s" % (
            key, m["value"], m["unit"],
            "median of %d" % n if n else ""))
    if not args.trace:
        for key, unit in EXTRA_UNITS.items():
            if key in raw["extra"]:
                print("  %-40s %-22.10g %s" % (key, raw["extra"][key], unit))
            else:
                print("  %-40s n/a (not defined on this workload)" % key)

    status = 0 if p.returncode == 0 and raw["correct"] else 1
    record = {"correct": bool(raw["correct"]) and status == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    return status, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-pin", action="store_true")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("e2ebench: cannot read BENCHMARK.json:", e)
        return 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error("unknown workload %r; choose from %s or all"
                 % (args.workload, ", ".join(names)))
    if not build():
        return 1

    sha = git_sha()
    todo = names if args.workload == "all" else [args.workload]
    status, records = 0, {}
    for name in todo:
        st, rec = run_workload(spec, name, args, sha)
        if rec is None:
            return 1
        status |= st
        records[name] = rec

    if len(todo) == 1:
        final = records[todo[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {"%s/%s" % (w, k): v
                        for w, r in records.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return status


if __name__ == "__main__":
    sys.exit(main())

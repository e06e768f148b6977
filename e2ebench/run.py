#!/usr/bin/env python3
"""Builds and runs the dbmr end-to-end benchmark.

One workload per invocation, from the root of a dbmr checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is compiled from the checkout's src/ into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) on first use;
later runs only re-check the build.  Build output goes to stderr.  The
last line of stdout is the result as JSON, with exactly the metrics that
BENCHMARK.json lists for the mode: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1 (a layer the workload bypasses reads 0).
A metric the program prints under a name or unit that BENCHMARK.json does
not list is an error.  The exit code is the program's: 0 when every output
check passed.

Two more modes, for people tuning or using the benchmark:

    python3 e2ebench/run.py --self-check [--seconds S]
        Runs every workload as two sets of five untraced runs (seeds 1-5
        and 6-10) and reports, per end-to-end metric, the two medians, how
        much worse the second is, the quartile spread of all ten runs, and
        whether both stay within the metric's bound in BENCHMARK.json.
        Exit 1 if not.

    python3 e2ebench/run.py --counts [--seed N]
        Regenerates the deterministic per-layer counts of every workload
        from a traced run (metrics whose unit is "count"), and fails if a
        per-layer metric of BENCHMARK.json is measured by no workload.
"""

import argparse
from fractions import Fraction
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["machine_scale", "machine_hotspot", "store_cycle", "crash_sweep"]
SELF_CHECK_RUNS = 5
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def build():
    """Configures (once) and builds the benchmark; returns the executable."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("error: no dbmr sources at %s; run from a dbmr checkout"
                 % (ROOT / "src"))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return out / "e2ebench"


def catalog(trace):
    """BENCHMARK.json's metrics for the mode: {name: unit}, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, trace):
    """Checks the program's metrics against BENCHMARK.json and returns the
    result with the mode's full metric list, or raises ValueError."""
    wanted = catalog(trace)
    measured = result["metrics"]
    for name, m in measured.items():
        if name not in wanted:
            raise ValueError("metric %s is not in BENCHMARK.json" % name)
        if m["unit"] != wanted[name]:
            raise ValueError("metric %s measured in %s, BENCHMARK.json says %s"
                             % (name, m["unit"], wanted[name]))
    metrics = {}
    for name, unit in wanted.items():
        if name in measured:
            metrics[name] = measured[name]
        elif trace:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            raise ValueError("end-to-end metric %s was not measured" % name)
    return dict(result, metrics=metrics)


def run_once(exe, workload, seed, seconds, trace):
    """Runs one invocation; returns (exit code, readable lines, result or
    None).  A result that does not match BENCHMARK.json is an error."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, [], None
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 1, lines, None
    try:
        result = complete(json.loads(lines[-1]), trace)
    except (ValueError, KeyError) as e:
        print("error: %s: %s" % (workload, e), file=sys.stderr)
        return 1, lines[:-1], None
    return proc.returncode, lines[:-1], result


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def self_check(exe, seconds):
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    n = SELF_CHECK_RUNS
    ok = True
    for workload in WORKLOADS:
        sets = []
        for first in (1, n + 1):
            results = []
            for seed in range(first, first + n):
                code, _, result = run_once(exe, workload, seed, seconds, 0)
                if result is None:
                    print("%s seed %d: exit %d, no result" % (workload, seed,
                                                             code))
                    return False
                if not result["correct"]:
                    print("%s seed %d: an output check failed" % (workload,
                                                                  seed))
                    ok = False
                results.append(result)
            sets.append(results)
        print("%s (%d + %d runs of %d s)" % (workload, n, n, seconds))
        shares = {Fraction(r["failed"], r["attempted"])
                  for results in sets for r in results}
        if len(shares) > 1:
            print("  failed share differs between runs: %s" % sorted(shares))
            ok = False
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in sets[0]]
            b = [r["metrics"][m["name"]]["value"] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread = quartile_spread(a + b)
            verdict = ("ok" if worse <= m["bound"] and spread <= m["bound"]
                       else "FAIL")
            ok &= verdict == "ok"
            print("  %-16s %14.6g %14.6g  worse %+7.2f%%  spread %6.2f%%  "
                  "bound %5.1f%%  %s" % (m["name"], ma, mb, 100 * worse,
                                         100 * spread, 100 * m["bound"],
                                         verdict))
    return ok


def counts(exe, seed):
    unmeasured = set(catalog(True))
    for workload in WORKLOADS:
        code, lines, result = run_once(exe, workload, seed, 1, 1)
        if code != 0 or result is None:
            print("%s: exit %d" % (workload, code))
            return False
        print("%s (seed %d)" % (workload, seed))
        for line in lines:
            if line.startswith(("round 1", "counts")):
                print("  " + line)
        for name, m in result["metrics"].items():
            if m["value"] != 0:
                unmeasured.discard(name)
                if m["unit"] == "count":
                    print("  %-44s %.6f" % (name, m["value"]))
    if unmeasured:
        print("per-layer metrics no workload measures: %s"
              % ", ".join(sorted(unmeasured)))
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    if args.self_check:
        return 0 if self_check(exe, args.seconds) else 1
    if args.counts:
        return 0 if counts(exe, args.seed) else 1
    if args.workload is None:
        ap.error("--workload is required")
    code, lines, result = run_once(exe, args.workload, args.seed,
                                   args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

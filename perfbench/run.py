#!/usr/bin/env python3
"""End-to-end benchmark of the clouddb replication testbed.

Builds perfbench_driver from the checkout's sources into .bench_build/, runs
one workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload fig2-sweep-5050 --seed 1 \\
      --seconds 30 --trace 0       # end-to-end metrics, tracing off
  python3 perfbench/run.py --workload fig2-sweep-5050 --seed 1 \\
      --seconds 30 --trace 1       # per-layer metrics from a traced run
  python3 perfbench/run.py --workload fig2-sweep-5050 --smoke
                                   # shortened phases, one round
  python3 perfbench/run.py --regen-reference
                                   # rewrite reference_outputs.tsv

See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
REFERENCE = os.path.join(HERE, "reference_outputs.tsv")

WORKLOADS = ["fig2-sweep-5050", "fig3-saturated-8020", "fig5-rowrepl-region"]
DEFAULT_SEED = 42
# Seeds whose simulated outputs reference_outputs.tsv records: the default
# seed and ten more in full mode, the default and a second seed in smoke mode.
REFERENCE_SEEDS = {"full": [DEFAULT_SEED] + list(range(1, 11)),
                   "smoke": [DEFAULT_SEED, 7]}
# Set-up runs (each in a fresh process) before every round; the median over
# the whole run is reported.
SETUPS_PER_ROUND = 2


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; exits 1 on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            log("perfbench: configure failed")
            sys.exit(1)
    made = subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench_driver"],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)


def drive(mode, workload, seed, smoke):
    """Runs one driver process and returns its parsed last line."""
    cmd = [DRIVER, mode, "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"failures": ["%s: no result (exit %d)" % (mode,
                                                            proc.returncode)]}
    if proc.returncode != 0 and not result.get("failures"):
        result["failures"] = ["%s: exit %d" % (mode, proc.returncode)]
    return result


def load_reference(path):
    """{(mode, workload, seed): [row, ...]} from the reference table; raises
    OSError when it cannot be read."""
    table = {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            mode, row = line.rstrip("\n").split("\t", 1)
            fields = row.split("\t")
            table.setdefault((mode, fields[0], int(fields[1])), []).append(row)
    return table


def check_reference(reference, mode, workload, seed, rows):
    """Failures when the reference records this workload and seed and the
    rows differ from it."""
    expected = reference.get((mode, workload, seed))
    if expected is None or expected == rows:
        return []
    return ["simulated outputs differ from reference_outputs.tsv "
            "(run.py --regen-reference after a deliberate model change): "
            "expected %r, got %r" % (expected, rows)]


def print_rows(rows):
    print("cell outputs (workload seed slaves users throughput_ops "
          "p95_ms mean_response_ms relative_delay_ms binlog_events "
          "steady_ops):")
    for row in rows:
        print("  " + row.replace("\t", " "))


def run_end_to_end(args, reference):
    mode = "smoke" if args.smoke else "full"
    failures = []
    setup = []
    rounds = []
    start = time.monotonic()
    while not rounds or (not args.smoke and
                         time.monotonic() - start < args.seconds):
        # Set-ups interleave with the rounds, so both sample the same host
        # states. Each set-up uses a cell seed of its own, so nothing a
        # process could memoize across set-ups is ever reused.
        for _ in range(1 if args.smoke else SETUPS_PER_ROUND):
            out = drive("setup", args.workload, args.seed * 1000 + len(setup),
                        False)
            failures += out.get("failures", [])
            setup.append(out.get("setup_s", 0.0))
        out = drive("round", args.workload, args.seed, args.smoke)
        failures += out.get("failures", [])
        rounds.append(out)
        if "rows" not in out:
            break

    rows = rounds[0].get("rows", [])
    if any(r.get("rows") != rows for r in rounds):
        failures.append("simulated outputs differ between rounds")
    failures += check_reference(reference, mode, args.workload, args.seed,
                                rows)

    # The fastest round: the host only ever slows a round down, and its slow
    # phases last from seconds to minutes, so the minimum moves less between
    # runs than the median does.
    wall = min(r.get("wall_s", 0.0) for r in rounds)
    cpu = min(r.get("cpu_s", 0.0) for r in rounds)
    steady_ops = rounds[0].get("ops_completed", 0)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "sim_ops_per_s": (steady_ops / wall if wall > 0 else 0.0, "ops/s"),
        "peak_rss_mb": (statistics.median(
            r.get("peak_rss_mb", 0.0) for r in rounds), "MB"),
    }
    cells = sum(r.get("cells", 0) for r in rounds)
    cells_failed = sum(r.get("cells_failed", 0) for r in rounds)
    attempted = sum(r.get("ops_completed", 0) + r.get("ops_failed", 0)
                    for r in rounds)
    failed = sum(r.get("ops_failed", 0) for r in rounds)
    print_rows(rows)
    print("rounds %d (wall_s each: %s), set-ups %d (setup_s each: %s)" % (
        len(rounds), " ".join("%.3f" % r.get("wall_s", 0.0) for r in rounds),
        len(setup), " ".join("%.3f" % s for s in setup)))
    return failures, (cells, cells_failed), attempted, failed, metrics


def run_traced(args, reference):
    mode = "smoke" if args.smoke else "full"
    out = drive("trace", args.workload, args.seed, args.smoke)
    failures = list(out.get("failures", []))
    rows = out.get("rows", [])
    failures += check_reference(reference, mode, args.workload, args.seed,
                                rows)
    metrics = {name: (m["value"], m["unit"])
               for name, m in out.get("metrics", {}).items()}
    print_rows(rows)
    attempted = out.get("ops_completed", 0) + out.get("ops_failed", 0)
    return (failures, (out.get("cells", 0), out.get("cells_failed", 0)),
            attempted, out.get("ops_failed", 0), metrics)


def regen_reference():
    """Rewrites reference_outputs.tsv from the current program."""
    lines = ["# Simulated outputs of every cell of every workload, written by",
             "# `python3 perfbench/run.py --regen-reference`; never edit by",
             "# hand. Columns: mode workload seed slaves users throughput_ops",
             "# p95_ms mean_response_ms relative_delay_ms(per slave)",
             "# binlog_events steady_ops."]
    for mode, seeds in sorted(REFERENCE_SEEDS.items()):
        for workload in WORKLOADS:
            for seed in seeds:
                out = drive("round", workload, seed, mode == "smoke")
                if out.get("failures"):
                    log("\n".join(out["failures"]))
                    return 1
                lines += ["%s\t%s" % (mode, row) for row in out["rows"]]
                log("reference: %s %s seed %d" % (mode, workload, seed))
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened phases, one round, one set-up")
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args()

    build()
    if args.regen_reference:
        return regen_reference()
    if args.workload is None:
        parser.error("--workload is required")

    failures = []
    try:
        reference = load_reference(REFERENCE)
    except OSError as err:
        reference = {}
        failures.append("cannot read the reference table: %s" % err)
    runner = run_traced if args.trace else run_end_to_end
    run_failures, cells, attempted, failed, metrics = runner(args, reference)
    failures += run_failures
    for failure in failures:
        print("CHECK FAILED: " + failure)
    print("cells attempted %d, failed %d; simulated operations attempted "
          "(steady-window completions plus failures) %d, failed %d"
          % (cells + (attempted, failed)))
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

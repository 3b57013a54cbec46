#!/usr/bin/env python3
"""Tests of the end-to-end benchmark, in smoke mode (shortened phases).

Every workload runs end to end and traced on two seeds with every check on;
a tampered or missing reference table and a checkout without sources must
all fail.

  python3 perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKDIR = os.path.join(ROOT, ".bench_build", "test_work")

sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    return json.loads(lines[-1])


class SmokeTest(unittest.TestCase):

    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])

    def test_every_workload_on_two_seeds(self):
        for workload in run.WORKLOADS:
            for seed in run.REFERENCE_SEEDS["smoke"]:
                with self.subTest(workload=workload, seed=seed):
                    code, lines = bench("--workload", workload, "--seed",
                                        str(seed), "--smoke")
                    self.assertEqual(code, 0, "\n".join(lines))
                    result = result_of(lines)
                    self.check_metrics(result, BENCHMARK["end_to_end"])
                    for spec in BENCHMARK["end_to_end"]:
                        self.assertGreater(
                            result["metrics"][spec["name"]]["value"], 0)

    def test_every_workload_traced_on_two_seeds(self):
        for workload in run.WORKLOADS:
            for seed in run.REFERENCE_SEEDS["smoke"]:
                with self.subTest(workload=workload, seed=seed):
                    code, lines = bench("--workload", workload, "--seed",
                                        str(seed), "--smoke", "--trace", "1")
                    self.assertEqual(code, 0, "\n".join(lines))
                    result = result_of(lines)
                    self.check_metrics(result, BENCHMARK["per_layer"])
                    metrics = result["metrics"]
                    self.assertGreater(metrics["sim.events"]["value"], 0)
                    self.assertGreater(metrics["repl.events_applied"]["value"],
                                       0)

    def test_reference_table_covers_smoke_seeds(self):
        reference = run.load_reference(run.REFERENCE)
        for mode, seeds in run.REFERENCE_SEEDS.items():
            for workload in run.WORKLOADS:
                for seed in seeds:
                    self.assertIn((mode, workload, seed), reference)

    def run_in_process(self, reference, *args):
        """run.main() with REFERENCE pointing at `reference`; returns its
        exit code and standard output lines."""
        saved = run.REFERENCE, sys.argv
        run.REFERENCE = reference
        sys.argv = ["run.py"] + list(args)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main()
        finally:
            run.REFERENCE, sys.argv = saved
        return code, out.getvalue().strip().splitlines()

    def test_changed_output_fails_the_run(self):
        os.makedirs(WORKDIR, exist_ok=True)
        tampered = os.path.join(WORKDIR, "tampered_reference.tsv")
        with open(run.REFERENCE) as src, open(tampered, "w") as dst:
            for line in src:
                fields = line.split("\t")
                if fields[:2] == ["smoke", "fig5-rowrepl-region"] and \
                        fields[2] == str(run.DEFAULT_SEED):
                    fields[5] = fields[5] + "1"  # throughput, one more digit
                dst.write("\t".join(fields))
        code, lines = self.run_in_process(tampered, "--workload",
                                          "fig5-rowrepl-region", "--smoke")
        self.assertNotEqual(code, 0)
        self.assertFalse(result_of(lines)["correct"])
        self.assertTrue(any("differ from reference_outputs.tsv" in l
                            for l in lines))

    def test_missing_reference_fails_the_run(self):
        missing = os.path.join(WORKDIR, "no_such_reference.tsv")
        code, lines = self.run_in_process(missing, "--workload",
                                          "fig2-sweep-5050", "--smoke")
        self.assertNotEqual(code, 0)
        self.assertFalse(result_of(lines)["correct"])
        self.assertTrue(any(l.startswith("CHECK FAILED: cannot read the "
                                         "reference table") for l in lines))

    def test_fails_without_program_sources(self):
        isolated = os.path.join(WORKDIR, "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "fig2-sweep-5050", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=isolated,
                            script=os.path.join(isolated, "perfbench",
                                                "run.py"))
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))
        shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests, on reduced-size (--quick) workloads.

  python3 perfbench/test_perfbench.py

Builds pwbench through run.py, then checks that:
  * every workload, under a fresh seed, prints every end-to-end and
    per-layer metric named in BENCHMARK.json with its unit, and passes its
    output check;
  * skipping one buffer Release makes the output check fire (ops_failed > 0);
  * the simulated results (model.*) of a traced and an untraced run of one
    seed are identical;
  * without the simulator sources the benchmark exits non-zero and prints no
    result.
"""
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep the benchmark directory source-only
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FRESH_SEED = random.SystemRandom().randrange(1, 2**31)


def run_bench(*args, cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def pwbench(*args):
    p = subprocess.run([str(run.BINARY), *args], capture_output=True,
                       text=True, timeout=300)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_prints_with_its_unit(self):
        print(f"fresh seed: {FRESH_SEED}", file=sys.stderr)
        for workload in run.WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    p = run_bench("--workload", workload, "--seed",
                                  str(FRESH_SEED), "--seconds", "1",
                                  "--trace", str(trace), "--quick")
                    self.assertEqual(p.returncode, 0, p.stderr)
                    lines = p.stdout.strip().splitlines()
                    provenance = json.loads(lines[-2])["provenance"]
                    self.assertEqual(provenance["seed"], FRESH_SEED)
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed})
                    if trace:
                        self.assertIn("tracing overhead", p.stdout)
                        trace_file = run.ROOT / provenance["trace_file"]
                        events = json.loads(trace_file.read_text())
                        self.assertTrue(events["traceEvents"])

    def test_skipped_release_fails_the_output_check(self):
        for workload in ("dispatch_2048", "train_2island_flow"):
            with self.subTest(workload=workload):
                code, rec = pwbench("--workload", workload, "--seed", "1",
                                    "--quick", "--skip-release")
                self.assertEqual(code, 1)
                self.assertFalse(rec["ok"])
                self.assertIn("live buffers", rec["failure"])
                self.assertGreater(rec["failed"], 0)

    def test_model_identical_traced_and_untraced(self):
        trace_file = run.BUILD / "traces" / "test-model-identity.json"
        trace_file.parent.mkdir(exist_ok=True)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                base = ["--workload", workload, "--seed", "5", "--quick"]
                _, plain = pwbench(*base)
                _, traced = pwbench(*base, "--trace", str(trace_file))
                self.assertTrue(plain["ok"] and traced["ok"])
                self.assertEqual(plain["model"], traced["model"])

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        scratch = run.BUILD / "bare-checkout"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, scratch / HERE.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        try:
            p = run_bench("--workload", "serve_kv_spill", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=scratch,
                          script=scratch / HERE.name / "run.py")
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

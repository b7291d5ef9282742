"""Self-tests of the benchmark.

    python3 bench/selftest.py

A minimal-length run of every workload, untraced and traced, must emit every
metric named in BENCHMARK.json with its unit and fail no command; a corrupted
byte in any output of a command must count as a failure; and the benchmark
must exit non-zero in a directory that holds only BENCHMARK.json and bench/.
Takes a few minutes: each workload runs its minimum number of commands.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text())
SCRATCH = run.WORK / "selftest"


def _bench(*args, cwd=run.REPO) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class MinimalRuns(unittest.TestCase):
    def _check(self, trace: int, declared: list[dict]):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = _bench("--workload", workload, "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace))
                self.assertEqual(code, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {name: m["unit"] for name, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in declared})
                if trace and workload in ("sweep-ref", "val-study"):
                    metrics = {k: m["value"] for k, m in result["metrics"].items()}
                    self.assertAlmostEqual(metrics["models.forward_per_step"], 2.0, delta=0.05)
                    self.assertEqual(metrics["tuning.train_calls_per_cfg"], 1.0)

    def test_untraced_emits_every_end_to_end_metric(self):
        self._check(0, SPEC["end_to_end"])

    def test_traced_emits_every_per_layer_metric(self):
        self._check(1, SPEC["per_layer"])


class OutputCheck(unittest.TestCase):
    def test_one_corrupted_byte_in_a_copy_fails_the_check(self):
        sys.path.insert(0, str(run.REPO / "src"))
        import grouptrain.cli as cli
        from grouptrain.reports import strip_timing

        import workloads
        points = run.set_up("train-all", 0, SCRATCH, cli.main, workloads)
        expected = json.loads(run.DIGESTS.read_text())["train-all"]
        for seed, table in ((run.DEFAULT_SEED, expected), (1, None)):
            runner = run.Runner(cli.main, strip_timing, table, reference_rows=0)
            cmd = next(c for c in workloads.pass_commands("train-all", seed, points)
                       if c.label == "train:jtt")
            self.assertEqual(cli.main([*cmd.argv, "--out", "original"]), 0)
            self.assertIsNone(runner.check(cmd, Path("original"))[0])
            report = json.loads(Path("original/report.json").read_text())
            for name in ["report.json", *report["outputs"].values()]:
                with self.subTest(seed=seed, file=name):
                    shutil.copytree("original", "copy")
                    path = Path("copy", name)
                    data = bytearray(path.read_bytes())
                    data[len(data) // 3] ^= 0x01
                    path.write_bytes(bytes(data))
                    problem, _ = runner.check(cmd, Path("copy"))
                    shutil.rmtree("copy")
                    self.assertIsNotNone(problem)
            shutil.rmtree("original")
        self.assertIsNotNone(runner.check(cmd, Path("missing"))[0])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.REPO / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.REPO / path, bare / path,
                            ignore=shutil.ignore_patterns("work", "__pycache__"))
        code, lines = _bench("--workload", "train-all", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)

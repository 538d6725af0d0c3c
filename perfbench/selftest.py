"""The benchmark's own tests, at the tiny input size (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a tampered digest or tolerance turns into reported failures, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bench(workload, trace=0, expected=None, root=ROOT):
    """Run the benchmark at the tiny size; return (exit code, last stdout line)."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    if expected:
        argv += ["--expected", str(expected)]
    r = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


class TempDirCase(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        self.addCleanup(shutil.rmtree, self.tmp)

    def tampered(self, edit):
        exp = json.loads(json.dumps(EXPECTED))
        edit(exp)
        path = self.tmp / "expected.json"
        path.write_text(json.dumps(exp))
        return path


class MetricsEmitted(unittest.TestCase):
    def check(self, result, kind):
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_every_workload_untraced_and_traced(self):
        for wl in [w["name"] for w in BENCH["workloads"]]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl, trace=trace):
                    code, result = bench(wl, trace)
                    self.assertEqual(code, 0)
                    self.check(result, kind)
                    if trace == 0:
                        for name in result["metrics"]:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)


class TamperedYardstick(TempDirCase):
    def assertFails(self, workload, edit):
        code, result = bench(workload, expected=self.tampered(edit))
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_exact_digest(self):
        self.assertFails("exact-sweep", lambda e: e["digests"]["tiny"].update(catalog="0" * 64))

    def test_pool_digest(self):
        def edit(e):
            for m in e["pools"]["moments"]:
                m[-1] = "0" * 16

        self.assertFails("exact-sweep", edit)

    def test_cli_stdout_digest(self):
        def edit(e):
            for q in e["pools"]["cli"]:
                q["sha"] = "0" * 16

        self.assertFails("cli-queries", edit)

    def test_tolerance(self):
        self.assertFails("numeric-oracles", lambda e: e["tolerances"].update(nbar0_abs=1e-30))


class NoSource(TempDirCase):
    def test_refuses_without_package(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(HERE, self.tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("exact-sweep", root=self.tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)

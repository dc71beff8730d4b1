"""Smoke test of the benchmark itself (not collected by the repo's pytest run).

    python3 perfbench/smoke.py

Checks the self-time arithmetic on a hand-built span tree, that a wrapped
function which no longer exists is reported as missing rather than fatal,
that a span left open is counted, and
that every workload, run at a tiny size, emits every metric BENCHMARK.json
names, with its unit, in both the untraced and the traced run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, self_times, subtree  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_hand_built_tree(self):
        #  0 root   [0, 10]
        #  1   a    [1, 4]   overlaps b: children cover [1, 6] of root
        #  2     g  [2, 3]
        #  3   b    [3, 6]
        #  4   c    [8, 12]  runs past root: only [8, 10] counts against root
        starts = [0.0, 1.0, 2.0, 3.0, 8.0]
        ends = [10.0, 4.0, 3.0, 6.0, 12.0]
        parents = [-1, 0, 1, 0, 0]
        self.assertEqual(self_times(starts, ends, parents), [3.0, 2.0, 1.0, 3.0, 4.0])
        self.assertEqual(sorted(subtree(parents, 1)), [1, 2])
        self.assertEqual(sorted(subtree(parents, 0)), [0, 1, 2, 3, 4])

    def test_nested_spans_add_up_to_root(self):
        tracer = Tracer()
        mod = types.ModuleType("schemamatch._smoke")
        mod.leaf = lambda: sum(range(1000))
        mod.branch = lambda: [mod.leaf() for _ in range(3)]
        sys.modules[mod.__name__] = mod
        try:
            tracer.install([(mod.__name__, "leaf", "smoke.leaf", None),
                            (mod.__name__, "branch", "smoke.branch", None),
                            (mod.__name__, "renamed_away", "smoke.gone", None)])
            with tracer.span("bench.timed"):
                mod.branch()
        finally:
            del sys.modules[mod.__name__]
        self.assertEqual(tracer.missing, ["smoke.gone"])
        self.assertEqual(tracer.names.count("smoke.leaf"), 3)
        self.assertEqual(tracer.parents[tracer.names.index("smoke.leaf")],
                         tracer.names.index("smoke.branch"))
        root = tracer.names.index("bench.timed")
        total = sum(tracer.self_times())
        self.assertAlmostEqual(total, tracer.ends[root] - tracer.starts[root], places=12)
        self.assertEqual(tracer.open_spans(), 0)
        tracer._open("left.open")
        self.assertEqual(tracer.open_spans(), 1)


class TinyWorkloads(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.run_bench(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], float)


if __name__ == "__main__":
    unittest.main()

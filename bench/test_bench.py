"""Self-test of the benchmark: ``python3 -m unittest discover -s bench``.

Checks the self-time arithmetic on a synthetic span tree, the two tracers,
and that a tiny-size run of each workload completes with no failed job,
repeats its digests and unit counts for the same seed, changes its inputs
for another seed, and reports exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

from tracing import NULL, Recorder, Span, self_times

ROOT = Path(__file__).resolve().parent.parent
RUN = str(ROOT / "bench" / "run.py")


def _span(name, start, end, parent):
    sp = Span(name, start, parent, "0:0")
    sp.end = end
    return sp


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [_span("root", 0.0, 10.0, -1),
                 _span("a", 1.0, 4.0, 0),
                 _span("a.child", 2.0, 3.0, 1),
                 _span("b", 3.0, 6.0, 0),      # overlaps a: the union is counted once
                 _span("c", 8.0, 12.0, 0)]     # runs past its parent: clipped
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 3.0, 4.0])

    def test_recorder_nests_and_counts(self):
        rec = Recorder()
        with rec.job("demo", "0:0"):
            out = rec.call("layer.f", lambda v: {"units": v, "variant": "x"}, lambda: 7)
        self.assertEqual(out, 7)
        self.assertEqual([sp.name for sp in rec.spans], ["job.demo", "layer.f.x"])
        self.assertEqual(rec.spans[1].parent, 0)
        self.assertEqual(rec.spans[1].stats, {"units": 7})
        self.assertEqual({sp.job for sp in rec.spans}, {"0:0"})
        own = self_times(rec.spans)
        self.assertAlmostEqual(own[0] + own[1], rec.spans[0].end - rec.spans[0].start)

    def test_null_tracer_keeps_nothing(self):
        with NULL.job("demo", "0:0") as scope:
            self.assertEqual(NULL.call("layer.f", None, pow, 2, 5), 32)
        self.assertIs(scope, NULL.job("other", "1:1"))
        self.assertFalse(vars(NULL))


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
                          capture_output=True, text=True, timeout=300, check=True)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


class TinyRunTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _check(self, workload: str):
        d1, r1 = _run(workload, 11, 1)
        d2, r2 = _run(workload, 11, 1)
        d3, r3 = _run(workload, 12, 0)
        for details, result in ((d1, r1), (d2, r2), (d3, r3)):
            self.assertTrue(result["correct"], details["failures"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(details["failed_frac"], 0.0)
        self.assertTrue(d1["unit_counts_repeat"])
        self.assertEqual(set(d3["wall"]), {"jobs_per_s", "job_p50_ms", "job_tail_ms", "ref_p50_ms"})
        self.assertEqual(d1["outputs_sha256"], d2["outputs_sha256"])
        self.assertEqual(d1["provenance"]["inputs_sha256"], d2["provenance"]["inputs_sha256"])
        self.assertNotEqual(d1["provenance"]["inputs_sha256"], d3["provenance"]["inputs_sha256"])
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if not k.endswith(("self_s", "ns_per_unit", "overhead_frac"))}
                  for r in (r1, r2)]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(set(r1["metrics"]), {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(set(r3["metrics"]), {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["per_layer"] + self.spec["end_to_end"]:
            got = (r1 if m in self.spec["per_layer"] else r3)["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])

    def test_operator_jumps(self):
        self._check("operator_jumps")

    def test_radon_kernels(self):
        self._check("radon_kernels")

    def test_number_theory(self):
        self._check("number_theory")

    def test_workloads_match_spec(self):
        from run import WORKLOADS
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), WORKLOADS)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload on a tiny program.

Run from anywhere (the first run builds the benchmark):

    python3 perfbench/test_smoke.py

For each workload, an untraced and a traced --smoke run must print every
metric the workload names with its unit, report 0 failed operations and
make at least one reference comparison, and end with a JSON result that
carries exactly the metrics BENCHMARK.json lists, with their units.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

COMMON = ["setup_s", "peak_rss_mb"]
SERVE = COMMON + ["serve.query_p50_ms", "serve.query_p90_ms",
                  "serve.query_p99_ms", "serve.qps"]

# The end-to-end metrics each workload's untraced run names.
END_TO_END = {
    "cold-start": COMMON + ["cold.first_answer_ms", "cold.qps",
                            "restart.first_answer_ms", "restart.qps"],
    "serve-read": SERVE,
    "serve-edit": SERVE + ["edit.answer_p50_ms", "edit.answer_tail_ms",
                           "edit.late_p50_ms"],
    "batch-clients": COMMON + ["batch.total_ms", "batch.callgraph_ms",
                               "batch.queries_per_s"],
}

TRACE = ["trace.overhead_pct", "trace.coverage_pct"]
READ_PATH = ["dynsum.steps_per_query", "engine.batch_ms",
             "engine.shared_hits_per_query", "engine.computed_per_query",
             "store.hit_ratio", "store.lock_contended", "store.size",
             "service.query_ms", "server.resolve_ms", "server.reply_ms",
             "server.wire_ms"]

# The per-layer metrics each workload's traced run exercises.
PER_LAYER = {
    "cold-start": TRACE + READ_PATH + [
        "ir.parse_ms", "ir.validate_ms", "pag.build_ms", "service.open_ms",
        "store.attach_ms", "store.snapshot_save_ms", "store.snapshot_mb",
        "store.disk_hit_ratio", "store.promoted"],
    "serve-read": TRACE + READ_PATH,
    "serve-edit": TRACE + READ_PATH + [
        "pag.commit_clone_ms", "pag.commit_shape_ms", "pag.commit_lower_ms",
        "pag.commit_apply_ms", "pag.commit_repack_ms",
        "pag.relowered_per_commit", "service.commit_ms",
        "incremental.plan_ms", "incremental.methods_invalidated_per_commit",
        "incremental.summaries_dropped_per_commit", "server.edit_ms"],
    "batch-clients": TRACE + [
        "ir.parse_ms", "ir.validate_ms", "pag.build_ms", "andersen.solve_ms",
        "andersen.propagations", "andersen.rounds", "clients.ms",
        "clients.unknown"],
}

METRIC_LINE = re.compile(
    r"^\s+([A-Za-z0-9_.]+)\s+(-?[0-9.]+) (\S+)\s+\(n=(\d+)\)")
OPERATIONS = re.compile(
    r"^operations: (\d+) attempted, (\d+) failed, (\d+) reference comparisons")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    return r.returncode, r.stdout.splitlines(), r.stderr


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines, err = run(workload, trace)
        self.assertEqual(code, 0, err[-2000:])
        printed = {}
        operations = None
        for line in lines:
            m = METRIC_LINE.match(line)
            if m:
                printed[m.group(1)] = m.group(3)
            m = OPERATIONS.match(line)
            if m:
                operations = [int(g) for g in m.groups()]
        expected = (PER_LAYER if trace else END_TO_END)[workload]
        for name in expected:
            self.assertIn(name, printed, "%s: %s not printed" % (workload, name))
            self.assertTrue(printed[name], "%s: %s has no unit" % (workload, name))
        self.assertIsNotNone(operations, "no operations line")
        attempted, failed, comparisons = operations
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)
        self.assertGreater(comparisons, 0)

        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            if not trace:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0)


def add_cases():
    for workload in END_TO_END:
        for trace in (0, 1):
            def case(self, workload=workload, trace=trace):
                self.check(workload, trace)
            name = "test_%s_%s" % (workload.replace("-", "_"),
                                   "traced" if trace else "untraced")
            setattr(SmokeTest, name, case)


add_cases()

if __name__ == "__main__":
    unittest.main()

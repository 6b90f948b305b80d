"""Tests of the amix benchmark itself.

Short runs of every workload must print each named metric with its unit
and pass every answer check; a deliberately perturbed answer or wire byte
must be counted as a failed op. Run from the root of the repository:

    python3 amixbench/tests/test_amixbench.py

The first test builds the amixbench program (as amixbench/run.py does),
so the suite takes a few minutes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7, perturb=None):
    cmd = [sys.executable, "amixbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=1200)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def table_units(lines):
    """{metric name: unit} of every metric row printed in the table."""
    rows = (line.split() for line in lines
            if line.startswith("  ") and not line.startswith("  note:"))
    return {parts[0]: parts[2] for parts in rows if len(parts) >= 3}


class EveryWorkload(unittest.TestCase):
    def check_run(self, workload, trace):
        result, table = run(workload, trace)
        self.assertTrue(result["correct"], workload)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        printed = table_units(table)
        for metric in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
            self.assertEqual(printed.get(metric["name"]), metric["unit"],
                             f"{workload}: {metric['name']} not in the table")
        tail = next(line for line in table if line.split()[:1] == ["op_tail_ms"])
        self.assertIn("beyond", tail)
        self.assertTrue(any(line.startswith("provenance start:") for line in table))
        if trace:
            gap = result["metrics"]["trace.parts_gap_share"]["value"]
            self.assertLess(abs(gap), 0.05, f"{workload}: parts do not add up")
        return result

    def test_cold_build(self):
        for trace in (0, 1):
            self.check_run("cold-build", trace)

    def test_warm_session(self):
        first = self.check_run("warm-session", 0)
        self.check_run("warm-session", 1)
        # Fixed op lists: charged rounds repeat exactly.
        again, _ = run("warm-session", 0)
        self.assertEqual(first["metrics"]["rounds_per_op"],
                         again["metrics"]["rounds_per_op"])

    def test_serve_churn(self):
        for trace in (0, 1):
            self.check_run("serve-churn", trace)


class PerturbedOpsFail(unittest.TestCase):
    def test_perturbed_answer_is_a_failed_op(self):
        result, _ = run("warm-session", 0, perturb="answer")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_perturbed_replay_byte_is_a_failed_op(self):
        result, _ = run("serve-churn", 0, perturb="replay")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself: seeded inputs, the oracle checks, and the
metric names in the output.

Run from the repository root (builds into .bench_build/ on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

WORKDIR = os.path.join(ROOT, ".bench_work", "tests")


def setUpModule():
    global BINS
    BINS = run.build()
    os.makedirs(WORKDIR, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)


def work_dir(name):
    path = os.path.join(WORKDIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def helper(*args):
    return subprocess.run([BINS["helper"]] + [str(a) for a in args],
                          capture_output=True, text=True,
                          env=run.program_env())


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in run.WORKLOADS:
            a, b, c = (work_dir("%s-%s" % (workload, k)) for k in "abc")
            for d, seed in ((a, 5), (b, 5), (c, 6)):
                self.assertEqual(helper("gen", workload, seed, d).returncode, 0)
            self.assertTrue(filecmp.cmp(os.path.join(a, "input.ms"),
                                        os.path.join(b, "input.ms"),
                                        shallow=False), workload)
            self.assertFalse(filecmp.cmp(os.path.join(a, "input.ms"),
                                         os.path.join(c, "input.ms"),
                                         shallow=False), workload)


class OracleRejectsCorruptAnswers(unittest.TestCase):
    """One real op per workload; its answer passes the checker, and the
    same answer with one deliberate corruption fails it."""

    def op_answer(self, workload):
        d = work_dir("oracle-" + workload)
        r = run.Run(workload, 3, 1.0, BINS, d)
        r.generate()
        if workload == "ooc_stream_rare":
            r.setup()
        else:
            r.op_input = r.input
        cmd, answer = r.op_command(r.op_input, r.path("answer"))
        out = answer if answer.endswith(".txt") else r.path("op.out")
        self.assertEqual(run.run_program(cmd, out, r.path("op.err")).rc, 0)
        return r, answer

    def assert_check(self, r, answer, ok):
        res = helper("check", r.workload, r.seed, r.input, answer)
        verdict = res.stdout.strip()
        if ok:
            self.assertEqual(verdict, "ok", res.stderr)
            self.assertEqual(res.returncode, 0)
        else:
            self.assertTrue(verdict.startswith("FAIL"), verdict)
            self.assertNotEqual(res.returncode, 0)

    def test_swapped_top10_rows(self):
        r, answer = self.op_answer("allpairs_topk")
        self.assert_check(r, answer, ok=True)
        with open(answer) as f:
            lines = f.read().splitlines()
        head = next(k for k, l in enumerate(lines) if l.startswith("rank\t"))
        first, second = lines[head + 1].split("\t"), lines[head + 2].split("\t")
        first[1:], second[1:] = second[1:], first[1:]
        lines[head + 1], lines[head + 2] = "\t".join(first), "\t".join(second)
        with open(answer, "w") as f:
            f.write("\n".join(lines) + "\n")
        self.assert_check(r, answer, ok=False)

    def test_flipped_tile_value(self):
        r, answer = self.op_answer("ooc_stream_rare")
        self.assert_check(r, answer, ok=True)
        # A third of the way in is tile payload (index and footer sit at
        # the end); flipping a low mantissa bit changes one stored value.
        with open(answer, "r+b") as f:
            f.seek(os.path.getsize(answer) // 3)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0x01]))
        self.assert_check(r, answer, ok=False)

    def test_changed_peak_omega(self):
        r, answer = self.op_answer("sweep_omega")
        self.assert_check(r, answer, ok=True)
        with open(answer) as f:
            lines = f.read().splitlines()
        k = next(k for k, l in enumerate(lines) if l.startswith("peak omega"))
        words = lines[k].split()
        words[2] = "%.3f" % (float(words[2]) + 1.0)
        lines[k] = " ".join(words)
        with open(answer, "w") as f:
            f.write("\n".join(lines) + "\n")
        self.assert_check(r, answer, ok=False)


class EveryMetricReported(unittest.TestCase):
    """Each workload, untraced and traced, prints every metric named in
    BENCHMARK.json with its unit, plus the report-only metrics."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        res = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace",
             str(trace)], capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(res.returncode, 0, res.stderr)
        lines = res.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], res.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return lines[:-1], result["metrics"]

    def assert_metrics(self, got, wanted):
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report, metrics = self.run_bench(workload, 0)
                self.assert_metrics(metrics, self.spec["end_to_end"])
                for name in ("out_mib:", "error_rate:", "plan:", "host:"):
                    self.assertTrue(any(l.startswith(name) for l in report),
                                    name)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, metrics = self.run_bench(workload, 1)
                self.assert_metrics(metrics, self.spec["per_layer"])
                self.assertGreaterEqual(
                    metrics["trace.span_coverage"]["value"], 0.95)


if __name__ == "__main__":
    unittest.main()

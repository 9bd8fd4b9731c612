#!/usr/bin/env python3
"""The repository benchmark: input file on disk to the answer, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload allpairs_topk --seed 1 --seconds 20 --trace 0

It builds ldla_cli, ldla_ingest and the benchmark's helper (ldla_perfbench)
into .bench_build/, generates the workload's input from --seed, runs the
workload's set-up, then runs the op again and again for --seconds of op
time, checks every answer against an oracle, and prints a report followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (timed with tracing off, each op
a separate process); --trace 1 runs the op's public calls in-process under
the benchmark's own spans and reports the per-layer ledger instead. See
perfbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
TMP = os.path.join(ROOT, ".bench_build", "tmp")

WORKLOADS = ("allpairs_topk", "ooc_stream_rare", "sweep_omega")
# Set-up is repeated and its median reported, so one slow start does not
# move setup_s.
SETUP_REPEATS = {"allpairs_topk": 3, "ooc_stream_rare": 15, "sweep_omega": 3}
MIN_OPS = 3
OP_TIMEOUT_S = 120
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Build and environment


def build():
    """Configure once, then build the three programs the benchmark runs."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the ldla sources (CMakeLists.txt, src/) are not "
                         "beside perfbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "ldla_cli", "ldla_ingest", "ldla_perfbench"])
    with open(log_path, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 env=program_env())
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return {
        "cli": os.path.join(BUILD, "ldla", "tools", "ldla_cli"),
        "ingest": os.path.join(BUILD, "ldla", "tools", "ldla_ingest"),
        "helper": os.path.join(BUILD, "ldla_perfbench"),
    }


def program_env():
    """The environment every program sees: no LDLA_* variable, so a user's
    tune cache, thread count, affinity or dump directories cannot change
    what is measured (LDLA_TUNE_CACHE would change the resolved kernel);
    temporary files, the compiler's too, stay inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LDLA_")}
    env["TMPDIR"] = TMP
    return env


class Proc:
    """Result of one program run."""

    def __init__(self, rc, wall_s, peak_rss_mib, stderr):
        self.rc = rc
        self.wall_s = wall_s
        self.peak_rss_mib = peak_rss_mib
        self.stderr = stderr


def run_program(cmd, stdout_path, stderr_path, timeout=OP_TIMEOUT_S):
    """Run `cmd` to completion; wall time from spawn to exit, peak RSS of
    that process alone (wait4's rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    env = program_env()
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    killer = threading.Timer(timeout, lambda: os.kill(pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    with open(stderr_path, errors="replace") as f:
        err = f.read()
    return Proc(os.waitstatus_to_exitcode(status), wall,
                usage.ru_maxrss / 1024.0, err)


# ---------------------------------------------------------------------------
# One workload run


class Run:
    def __init__(self, workload, seed, seconds, bins, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.bins = bins
        self.work = work
        self.input = os.path.join(work, "input.ms")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.spec = None

    def path(self, name):
        return os.path.join(self.work, name)

    def generate(self):
        proc = run_program([self.bins["helper"], "gen", self.workload,
                            str(self.seed), self.work],
                           self.path("gen.out"), self.path("gen.err"))
        if proc.rc != 0:
            raise BenchError("input generation failed: " + proc.stderr)
        with open(self.path("spec.json")) as f:
            self.spec = json.load(f)

    def op_command(self, input_path, out_base):
        """The op as the user runs it; returns (argv, answer path)."""
        s = self.spec
        if self.workload == "allpairs_topk":
            return ([self.bins["cli"], "compute", input_path, "--stat", "r2",
                     "--top", str(s["top"]), "--threads", str(s["threads"])],
                    out_base + ".txt")
        if self.workload == "sweep_omega":
            return ([self.bins["cli"], "sweep", input_path, "--grid",
                     str(s["grid"]), "--window", str(s["window"])],
                    out_base + ".txt")
        return ([self.bins["helper"], "stream", input_path,
                 out_base + ".ldtile", str(s["threads"])], out_base + ".ldtile")

    def record(self, proc, what):
        """Count one attempted program run; a non-zero exit fails it."""
        self.attempted += 1
        if proc.rc != 0:
            self.failed += 1
            self.failures.append("%s exited %d: %s"
                                 % (what, proc.rc, proc.stderr.strip()[-300:]))
            return False
        return True

    def check(self, answers):
        """Oracle-check answers (outside any timed region); returns one
        pass/fail flag per answer and counts each failure."""
        if not answers:
            return []
        proc = run_program([self.bins["helper"], "check", self.workload,
                            str(self.seed), self.input] + answers,
                           self.path("check.out"), self.path("check.err"),
                           timeout=300)
        with open(self.path("check.out")) as f:
            verdicts = [line.strip() for line in f if line.strip()]
        if len(verdicts) != len(answers):
            verdicts = ["FAIL checker exited %d: %s"
                        % (proc.rc, proc.stderr.strip()[-300:])] * len(answers)
        passed = []
        for answer, verdict in zip(answers, verdicts):
            passed.append(verdict == "ok")
            if verdict != "ok":
                self.failed += 1
                self.failures.append("%s: %s"
                                     % (os.path.basename(answer), verdict))
        return passed

    # -- set-up -------------------------------------------------------------

    def ingest(self):
        """ldla_ingest the input into the op's shard store."""
        s = self.spec
        self.op_input = self.path("store.ldshard")
        return run_program(
            [self.bins["ingest"], self.input, "--out", self.op_input,
             "--rows-per-shard", str(s["rows_per_shard"]),
             "--threads", str(s["threads"])],
            self.path("ingest.out"), self.path("ingest.err"))

    def setup(self):
        """Returns the set-up time samples. For ooc_stream_rare set-up is
        ldla_ingest; the other workloads have no preparation step, so their
        set-up is the first op on a freshly written copy of the input,
        which is where any per-dataset work a later change adds would
        land."""
        times = []
        if self.workload == "ooc_stream_rare":
            for _ in range(SETUP_REPEATS[self.workload]):
                proc = self.ingest()
                if self.record(proc, "ldla_ingest"):
                    times.append(proc.wall_s)
            return times
        answers = []
        for k in range(SETUP_REPEATS[self.workload]):
            fresh = self.path("fresh%d" % k)
            os.makedirs(fresh)
            copy = os.path.join(fresh, "input.ms")
            shutil.copyfile(self.input, copy)
            cmd, answer = self.op_command(copy, self.path("setup%d" % k))
            proc = run_program(cmd, answer, self.path("op.err"))
            if self.record(proc, "first op"):
                times.append(proc.wall_s)
                answers.append(answer)
            shutil.rmtree(fresh)
        self.check(answers)
        self.op_input = self.input
        return times

    # -- timed ops ----------------------------------------------------------

    def timed_ops(self, seconds, min_ops):
        """Run the op until `seconds` of op time and `min_ops` ops have
        passed; returns the successful ops' Proc records."""
        done = []
        answers = []
        spent = 0.0
        k = 0
        while spent < seconds or k < min_ops:
            cmd, answer = self.op_command(self.op_input, self.path("op%d" % k))
            if os.path.exists(answer):
                os.remove(answer)
            proc = run_program(cmd, answer if answer.endswith(".txt")
                               else self.path("op.out"), self.path("op.err"))
            spent += proc.wall_s
            k += 1
            if not self.record(proc, "op"):
                continue
            if self.workload == "ooc_stream_rare":
                # Tile stores are large: check each one, then drop it.
                proc.out_bytes = os.path.getsize(answer)
                if self.check([answer])[0]:
                    done.append(proc)
                os.remove(answer)
            else:
                proc.out_bytes = 0
                done.append(proc)
                answers.append(answer)
            if k >= 1000:  # ops failing at once would otherwise spin
                break
        if answers:
            done = [p for p, ok in zip(done, self.check(answers)) if ok]
        return done


# ---------------------------------------------------------------------------
# Reporting


def describe(spec):
    h, p = spec["host"], spec["plan"]
    log("host: %s" % h["cpu_summary"])
    log("host: nproc=%d, LLC %.0f MiB, RAM %.1f GiB"
        % (h["nproc"], h["llc_bytes"] / MIB, h["ram_bytes"] / MIB / 1024))
    log("plan: %s %dx%dx%d, kc=%d words, mc=%d, nc=%d, sparse threshold %d"
        % (p["arch"], p["mr"], p["nr"], p["ku"], p["kc_words"], p["mc"],
           p["nc"], p["sparse_threshold"]))
    log("input: %d SNPs x %d haplotypes (%d words/SNP)"
        % (spec["snps"], spec["samples"], spec["words_per_snp"]))


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    setup = run.setup()
    ops = run.timed_ops(run.seconds, MIN_OPS)
    if not ops or not setup:
        raise BenchError("no op succeeded: " + "; ".join(run.failures[:5]))
    walls = [p.wall_s for p in ops]
    rss = [p.peak_rss_mib for p in ops]
    out = [p.out_bytes / MIB for p in ops]
    log("wall_s: median %.4f s over %d ops (min %.4f, max %.4f, IQR/median "
        "%.3f)" % (statistics.median(walls), len(walls), min(walls),
                   max(walls), spread(walls)))
    log("setup_s: median %.4f s over %d set-ups"
        % (statistics.median(setup), len(setup)))
    log("peak_rss_mib: median %.1f MiB (op process only)"
        % statistics.median(rss))
    log("out_mib: %.3f MiB written per op" % statistics.median(out))
    log("error_rate: %d failed / %d attempted = %.4f"
        % (run.failed, run.attempted, run.failed / max(1, run.attempted)))
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mib": metric(statistics.median(rss), "MiB"),
    }


def traced(run):
    """Per-layer ledger from the helper's traced run, plus untraced ops of
    the same command so the tracing overhead can be read off."""
    proc = run_program([run.bins["helper"], "trace", run.workload,
                        str(run.seed), run.work],
                       run.path("trace.out"), run.path("trace.err"),
                       timeout=170)
    if not run.record(proc, "traced run"):
        raise BenchError("traced run failed: " + proc.stderr[-500:])
    with open(run.path("trace.out")) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    for line in lines[:-1]:
        log(line)
    ledger = json.loads(lines[-1])
    answer = run.path("trace_answer")
    answer += ".ldtile" if run.workload == "ooc_stream_rare" else ".txt"
    run.check([answer])
    if os.path.exists(answer):
        os.remove(answer)
    os.makedirs(RESULTS, exist_ok=True)
    shutil.copyfile(run.path("spans.json"),
                    os.path.join(RESULTS, "spans_%s.json" % run.workload))

    if run.workload == "ooc_stream_rare":
        run.record(run.ingest(), "ldla_ingest")
    else:
        run.op_input = run.input
    ops = run.timed_ops(max(1.0, run.seconds / 2), 2)
    if not ops:
        raise BenchError("no untraced op succeeded: "
                         + "; ".join(run.failures[:5]))
    untraced = statistics.median(p.wall_s for p in ops)
    traced_wall = ledger["trace.op_wall_s"]["value"]
    ledger["trace.untraced_wall_s"] = metric(untraced, "s")
    ledger["trace.overhead_s"] = metric(traced_wall - untraced, "s")
    log("traced op %.4f s in-process vs untraced command %.4f s (median of "
        "%d); span coverage of the op %.3f"
        % (traced_wall, untraced, len(ops),
           ledger["trace.span_coverage"]["value"]))
    return ledger


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        bins = build()
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = os.path.join(WORK_ROOT, "%s-%d-%d"
                            % (args.workload, args.seed, os.getpid()))
        os.makedirs(work)
        try:
            run = Run(args.workload, args.seed, args.seconds, bins, work)
            run.generate()
            log("workload %s, seed %d, trace %d"
                % (args.workload, args.seed, args.trace))
            describe(run.spec)
            metrics = traced(run) if args.trace else end_to_end(run)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    for f in run.failures:
        log("FAILED: " + f)
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

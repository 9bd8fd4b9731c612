#!/usr/bin/env python3
"""Validate ldla telemetry exports: trace_<run>.json reports written by
src/util/trace.cpp and metrics_<run>.prom / metrics_<run>.json exports from
src/util/metrics.cpp.

Trace reports: the schema (metadata / counters / phases / traceEvents, the
exact shape stop_session_and_write emits), the counter keys, the
phase-name vocabulary, and the structural invariant Perfetto rendering
relies on: within each thread lane the "X" complete events form a laminar
family — every pair of spans is either disjoint or properly nested, never
partially overlapping (RAII spans cannot interleave).

Prometheus text (exposition format 0.0.4): every metric carries a # HELP
and a # TYPE line before its samples, names are Prometheus-valid, counters
end in `_total`, histogram buckets are cumulative (non-decreasing in le
order), the `+Inf` bucket equals `_count`, and `_sum`/`_count` are present.

Metrics JSON: the `ldla-metrics-v1` schema envelope, quantile ordering
p50 <= p90 <= p99 <= p999, cumulative bucket counts whose last entry equals
`count`, and agreement with the same run's .prom (dumped first): every
.prom family is in the JSON, and no counter or histogram count is lower in
the JSON than in the .prom.

Usage:
    scripts/validate_telemetry.py FILE [FILE ...]
    scripts/validate_telemetry.py --run BENCH_BINARY [--require a,b]
                                  [FILE ...] [-- args]

Files are told apart by name: trace_*.json is a trace report, *.prom is a
Prometheus export, any other *.json is a metrics JSON export.

With --run, the bench binary executes in a temporary directory with
LDLA_SMOKE=1, LDLA_TRACE=1, and LDLA_TRACE_DIR, LDLA_METRICS_DUMP_DIR and
LDLA_BENCH_JSON_DIR pointing at that directory. It must write at least one
trace_*.json and one metrics_* export, and every one is validated. This is
the ctest / CI entry point: it proves both chains (instrumentation ->
registry -> exporter, and session -> span writer) emit loadable,
self-consistent files.

--require NAMES (comma-separated, with --run) additionally demands that
each named metric is present with a non-trivial (> 0) value in every .prom
file the run wrote — the gate that residency/prefetch/pool instrumentation
actually fired.

Exit status: 0 = valid, 1 = validation failure, 2 = usage/setup error.
"""

import argparse
import glob
import json
import math
import os
import re
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# Trace reports

PHASES = ["pack_a", "pack_b", "kernel", "epilogue", "mirror", "io",
          "task_run", "task_wait", "barrier"]

METADATA_KEYS = {"run", "clock", "session_ns", "tsc_hz", "core_hz",
                 "scalar_peak_triples_per_sec", "cpu", "perf",
                 "events_dropped"}
CPU_KEYS = {"brand", "logical_cores", "l1d", "l2", "l3", "line"}
COUNTER_KEYS = {"bytes_packed", "slivers_packed", "slivers_reused",
                "kernel_calls", "kernel_words", "tiles_emitted",
                "epilogue_rows", "task_runs", "steals", "failed_steals",
                "parks", "barrier_waits", "sparse_ll_tiles",
                "sparse_ld_tiles", "list_intersections",
                "dense_fallback_tiles", "io_bytes_read", "prefetch_issued",
                "prefetch_hits", "prefetch_stalls"}
EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}


def check_laminar(events, errors, path):
    """Per-tid: sorted spans must nest or be disjoint (child ends within
    its innermost enclosing parent)."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, evs in sorted(by_tid.items()):
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # end times of enclosing spans
        for ev in evs:
            end = ev["ts"] + ev["dur"]
            # Float µs timestamps: allow 1ns of rounding slop.
            while stack and stack[-1] <= ev["ts"] + 1e-3:
                stack.pop()
            if stack and end > stack[-1] + 1e-3:
                errors.append(
                    f"{path}: tid {tid}: span '{ev['name']}' at "
                    f"ts={ev['ts']} dur={ev['dur']} partially overlaps its "
                    f"enclosing span (parent ends at {stack[-1]})")
            stack.append(end)


def validate_trace(path):
    """Return a list of error strings (empty = valid)."""
    errors = []
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: cannot parse: {e}"]

    meta = data.get("metadata")
    if not isinstance(meta, dict):
        errors.append(f"{path}: missing metadata object")
    else:
        missing = METADATA_KEYS - meta.keys()
        if missing:
            errors.append(f"{path}: metadata missing keys {sorted(missing)}")
        if not isinstance(meta.get("run"), str) or not meta.get("run"):
            errors.append(f"{path}: metadata.run must be a non-empty string")
        for key in ("tsc_hz", "core_hz"):
            if not (isinstance(meta.get(key), (int, float))
                    and meta.get(key, 0) > 0):
                errors.append(f"{path}: metadata.{key} must be > 0")
        cpu = meta.get("cpu")
        if not isinstance(cpu, dict) or CPU_KEYS - cpu.keys():
            errors.append(f"{path}: metadata.cpu missing keys")
        perf = meta.get("perf")
        if (not isinstance(perf, dict)
                or not isinstance(perf.get("available"), bool)
                or not isinstance(perf.get("status"), str)):
            errors.append(f"{path}: metadata.perf needs bool 'available' "
                          "and string 'status'")
        dropped = meta.get("events_dropped", 0)
        if dropped:
            print(f"{path}: warning: {dropped} event(s) dropped "
                  "(ring buffer full — trace is truncated, not invalid)",
                  file=sys.stderr)

    counters = data.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{path}: missing counters object")
    else:
        missing = COUNTER_KEYS - counters.keys()
        if missing:
            errors.append(f"{path}: counters missing keys {sorted(missing)}")
        for k, v in counters.items():
            if not (isinstance(v, int) and v >= 0):
                errors.append(f"{path}: counters.{k} must be a non-negative "
                              f"integer, got {v!r}")

    phases = data.get("phases")
    if not isinstance(phases, list):
        errors.append(f"{path}: missing phases array")
    else:
        names = [p.get("phase") for p in phases if isinstance(p, dict)]
        if names != PHASES:
            errors.append(f"{path}: phases must list {PHASES} in order, "
                          f"got {names}")
        for p in phases:
            for key in ("self_ns", "cycles", "instructions", "llc_loads",
                        "llc_misses"):
                v = p.get(key)
                if not (isinstance(v, int) and v >= 0):
                    errors.append(f"{path}: phases[{p.get('phase')}].{key} "
                                  f"must be a non-negative integer")

    events = data.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path}: missing traceEvents array")
    else:
        for i, ev in enumerate(events):
            if not isinstance(ev, dict) or EVENT_KEYS - ev.keys():
                errors.append(f"{path}: traceEvents[{i}] missing keys")
                continue
            if ev["ph"] != "X":
                errors.append(f"{path}: traceEvents[{i}].ph must be 'X'")
            if ev["name"] not in PHASES:
                errors.append(f"{path}: traceEvents[{i}].name "
                              f"'{ev['name']}' is not a known phase")
            if not (isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
                    and isinstance(ev["dur"], (int, float))
                    and ev["dur"] >= 0):
                errors.append(f"{path}: traceEvents[{i}] ts/dur must be "
                              "non-negative numbers")
        if not errors:
            check_laminar(events, errors, path)

    return errors


# --------------------------------------------------------------------------
# Prometheus exports

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# One optional label pair: histogram buckets carry le="..."; info gauges
# (ldla_kernel_variant etc.) carry their single identifying label.
SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<label>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<lvalue>[^"]*)"\})?'
    r' (?P<value>\S+)$')
QUANTILES = ["p50", "p90", "p99", "p999"]


def parse_number(text):
    if text == "+Inf":
        return math.inf
    try:
        return float(text)
    except ValueError:
        return None


def family_of(sample_name):
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_prom(path, errors):
    """Parse into {family: {"type": str, "help": str, "samples": [...]}}
    where histogram samples keep (le, value) pairs in file order."""
    families = {}
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        errors.append(f"{path}: cannot read: {e}")
        return families

    def family(name):
        return families.setdefault(
            name, {"type": None, "help": None, "samples": []})

    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                errors.append(f"{path}:{i}: HELP line without text")
                continue
            family(parts[2])["help"] = parts[3]
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                errors.append(f"{path}:{i}: malformed TYPE line: {line}")
                continue
            family(parts[2])["type"] = parts[3]
        elif line.startswith("#"):
            continue
        else:
            m = SAMPLE_RE.match(line)
            if m is None:
                errors.append(f"{path}:{i}: unparseable sample: {line}")
                continue
            value = parse_number(m.group("value"))
            if value is None:
                errors.append(f"{path}:{i}: non-numeric value: {line}")
                continue
            le = m.group("lvalue") if m.group("label") == "le" else None
            family(family_of(m.group("name")))["samples"].append(
                (m.group("name"), le, value, m.group("label")))
    return families


def validate_prom(path, families):
    errors = []
    if not families:
        errors.append(f"{path}: no metric families found")
    for name, fam in sorted(families.items()):
        where = f"{path}: {name}"
        if not NAME_RE.match(name):
            errors.append(f"{where}: invalid metric name")
        if fam["type"] is None:
            errors.append(f"{where}: missing # TYPE line")
            continue
        if fam["help"] is None:
            errors.append(f"{where}: missing # HELP line")
        if not fam["samples"]:
            errors.append(f"{where}: no samples")
            continue
        if fam["type"] == "counter":
            if not name.endswith("_total"):
                errors.append(f"{where}: counter name must end in _total")
            for sample_name, le, value, label in fam["samples"]:
                if sample_name != name or label is not None:
                    errors.append(f"{where}: unexpected counter sample "
                                  f"{sample_name}")
                elif value < 0:
                    errors.append(f"{where}: negative counter value {value}")
        elif fam["type"] == "gauge":
            for sample_name, le, value, label in fam["samples"]:
                if sample_name != name:
                    errors.append(f"{where}: unexpected gauge sample "
                                  f"{sample_name}")
                elif label == "le":
                    errors.append(f"{where}: gauge sample with an le label")
                elif label is not None and value != 1:
                    # Info-style gauge: the label carries the payload, the
                    # sample value is pinned to 1 by convention.
                    errors.append(f"{where}: info gauge value must be 1, "
                                  f"got {value}")
        else:
            validate_prom_histogram(name, fam, errors, path)
    return errors


def validate_prom_histogram(name, fam, errors, path):
    where = f"{path}: {name}"
    buckets, total, sum_seconds = [], None, None
    for sample_name, le, value, label in fam["samples"]:
        if sample_name == name + "_bucket":
            upper = parse_number(le) if le is not None else None
            if upper is None:
                errors.append(f"{where}: bucket without a numeric le")
            else:
                buckets.append((upper, value))
        elif sample_name == name + "_count":
            total = value
        elif sample_name == name + "_sum":
            sum_seconds = value
        else:
            errors.append(f"{where}: unexpected sample {sample_name}")
    if total is None or sum_seconds is None:
        errors.append(f"{where}: histogram missing _sum/_count")
        return
    if not buckets or buckets[-1][0] != math.inf:
        errors.append(f"{where}: histogram must end with a +Inf bucket")
        return
    if buckets[-1][1] != total:
        errors.append(f"{where}: +Inf bucket {buckets[-1][1]} != _count "
                      f"{total}")
    uppers = [b[0] for b in buckets]
    counts = [b[1] for b in buckets]
    if uppers != sorted(uppers) or len(set(uppers)) != len(uppers):
        errors.append(f"{where}: bucket le values not strictly increasing")
    if counts != sorted(counts):
        errors.append(f"{where}: cumulative bucket counts decrease")
    if total > 0 and sum_seconds < 0:
        errors.append(f"{where}: negative _sum")


def check_required(path, families, required, errors):
    """Every required metric must appear in the .prom file with a
    non-trivial (> 0) scalar value (counters/gauges) or count
    (histograms)."""
    for name in required:
        fam = families.get(name)
        if fam is None:
            errors.append(f"{path}: required metric '{name}' is absent")
            continue
        value = None
        for sample_name, le, v, label in fam["samples"]:
            if sample_name == name or sample_name == name + "_count":
                value = v
        if value is None:
            errors.append(f"{path}: required metric '{name}' has no value "
                          "sample")
        elif value <= 0:
            errors.append(f"{path}: required metric '{name}' is trivial "
                          f"({value}); its instrumentation never fired")


# --------------------------------------------------------------------------
# Metrics JSON exports

def validate_metrics_json(path):
    errors = []
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: cannot parse: {e}"]
    if data.get("schema") != "ldla-metrics-v1":
        errors.append(f"{path}: schema must be 'ldla-metrics-v1', got "
                      f"{data.get('schema')!r}")
    if not isinstance(data.get("enabled"), bool):
        errors.append(f"{path}: 'enabled' must be a boolean")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(data.get(section), dict):
            errors.append(f"{path}: missing '{section}' object")
            return errors
    for name, body in sorted(data["counters"].items()):
        if not (isinstance(body.get("value"), int) and body["value"] >= 0):
            errors.append(f"{path}: counters.{name}.value must be a "
                          "non-negative integer")
        if not body.get("help"):
            errors.append(f"{path}: counters.{name} missing help")
    for name, body in sorted(data["gauges"].items()):
        if not isinstance(body.get("value"), (int, float)):
            errors.append(f"{path}: gauges.{name}.value must be numeric")
        if not body.get("help"):
            errors.append(f"{path}: gauges.{name} missing help")
    # "infos" is optional (builds predating the info-gauge exporter omit
    # it); when present each entry carries a label name and a string (or
    # null = never set) value.
    infos = data.get("infos", {})
    if not isinstance(infos, dict):
        errors.append(f"{path}: 'infos' must be an object")
    else:
        for name, body in sorted(infos.items()):
            if not body.get("help"):
                errors.append(f"{path}: infos.{name} missing help")
            if not isinstance(body.get("label"), str) or not body["label"]:
                errors.append(f"{path}: infos.{name} missing label")
            if not (body.get("value") is None
                    or isinstance(body["value"], str)):
                errors.append(f"{path}: infos.{name}.value must be a string "
                              "or null")
    for name, body in sorted(data["histograms"].items()):
        validate_json_histogram(path, name, body, errors)
    if not errors:
        check_agreement(path, data, errors)
    return errors


def validate_json_histogram(path, name, body, errors):
    where = f"{path}: histograms.{name}"
    count = body.get("count")
    if not (isinstance(count, int) and count >= 0):
        errors.append(f"{where}: count must be a non-negative integer")
        return
    if not isinstance(body.get("sum_seconds"), (int, float)):
        errors.append(f"{where}: missing sum_seconds")
    qs = []
    for q in QUANTILES:
        v = body.get(q)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(f"{where}: {q} must be a non-negative number")
            return
        qs.append(v)
    if qs != sorted(qs):
        errors.append(f"{where}: quantiles not ordered "
                      f"(p50 <= p90 <= p99 <= p999): {qs}")
    buckets = body.get("buckets")
    if not isinstance(buckets, list):
        errors.append(f"{where}: missing buckets array")
        return
    prev_upper, prev_count = -1.0, 0
    for i, entry in enumerate(buckets):
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], (int, float))
                or not isinstance(entry[1], int)):
            errors.append(f"{where}: buckets[{i}] must be "
                          "[upper_seconds, cumulative_count]")
            return
        upper, cum = entry
        if upper <= prev_upper:
            errors.append(f"{where}: bucket uppers not increasing at [{i}]")
        if cum < prev_count:
            errors.append(f"{where}: cumulative counts decrease at [{i}]")
        prev_upper, prev_count = upper, cum
    if count > 0 and (not buckets or buckets[-1][1] != count):
        errors.append(f"{where}: last cumulative bucket != count ({count})")
    if count == 0 and buckets:
        errors.append(f"{where}: empty histogram with non-empty buckets")


def check_agreement(path, data, errors):
    """Cross-check against the same run's .prom, when it exists. The .prom
    is dumped first and the registry only grows, so every .prom family must
    be in the JSON under the same kind, with a counter value or histogram
    count no lower than the .prom's (live gauges may move either way)."""
    prom_path = path[: -len(".json")] + ".prom"
    if not os.path.isfile(prom_path):
        return
    families = parse_prom(prom_path, [])
    sections = {"counter": data["counters"], "histogram": data["histograms"],
                "gauge": {**data["gauges"], **data.get("infos", {})}}
    for name, fam in sorted(families.items()):
        body = sections.get(fam["type"], {}).get(name)
        if body is None:
            errors.append(f"{path}: {fam['type']} '{name}' from "
                          f"{os.path.basename(prom_path)} is missing")
            continue
        prom_value = None
        for sample_name, le, v, label in fam["samples"]:
            if sample_name in (name, name + "_count"):
                prom_value = v
        json_value = body.get("count", body.get("value"))
        if (fam["type"] != "gauge" and prom_value is not None
                and json_value < prom_value):
            errors.append(f"{path}: {name} is {json_value}, below the "
                          f"{prom_value} of the earlier .prom dump")


# --------------------------------------------------------------------------
# Dispatch and the --run harness

def validate_path(path, required=()):
    base = os.path.basename(path)
    if base.startswith("trace_") and base.endswith(".json"):
        return validate_trace(path)
    if path.endswith(".prom"):
        errors = []
        families = parse_prom(path, errors)
        errors += validate_prom(path, families)
        if required and not errors:
            check_required(path, families, required, errors)
        return errors
    if path.endswith(".json"):
        return validate_metrics_json(path)
    return [f"{path}: expected trace_*.json, *.prom or *.json"]


def validate_all(paths, required=()):
    failures = 0
    for path in paths:
        errors = validate_path(path, required)
        for e in errors:
            print(e, file=sys.stderr)
        failures += bool(errors)
        if not errors:
            print(f"ok: {path}")
    return failures


def run_and_validate(binary, extra_args, required):
    """Execute `binary` in smoke mode with tracing and metrics dumping on
    in a temp dir; validate every trace report and metrics export it
    writes."""
    binary = os.path.abspath(binary)
    if not os.access(binary, os.X_OK):
        print(f"error: {binary} is not executable", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ldla_telemetry_") as tmp:
        env = dict(os.environ)
        env.update({"LDLA_SMOKE": "1", "LDLA_TRACE": "1",
                    "LDLA_TRACE_DIR": tmp, "LDLA_METRICS_DUMP_DIR": tmp,
                    "LDLA_BENCH_JSON_DIR": tmp})
        proc = subprocess.run([binary] + extra_args, env=env, cwd=tmp,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print(f"error: {binary} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        traces = sorted(glob.glob(os.path.join(tmp, "trace_*.json")))
        dumps = sorted(glob.glob(os.path.join(tmp, "metrics_*.prom"))
                       + glob.glob(os.path.join(tmp, "metrics_*.json")))
        missing = []
        if not traces:
            missing.append("no trace_*.json into LDLA_TRACE_DIR "
                           "(built with LDLA_TRACE=OFF?)")
        if not dumps:
            missing.append("no metrics_* exports into LDLA_METRICS_DUMP_DIR")
        if missing:
            print(proc.stdout)
            for m in missing:
                print(f"error: {binary} wrote {m}", file=sys.stderr)
            return 1
        return 1 if validate_all(traces + dumps, required) else 0


def main():
    parser = argparse.ArgumentParser(
        description="Validate ldla trace reports and metrics exports.")
    parser.add_argument("paths", nargs="*",
                        help="trace_*.json, *.prom or metrics *.json files")
    parser.add_argument("--run", metavar="BINARY",
                        help="run this bench in a temp dir with tracing and "
                             "metrics dumping on, then validate its output")
    parser.add_argument("--require", metavar="NAMES", default="",
                        help="with --run: comma-separated metric names that "
                             "must be present and non-trivial in every "
                             ".prom file the run wrote")
    argv, extra = sys.argv[1:], []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    required = tuple(n for n in args.require.split(",") if n)
    if required and not args.run:
        parser.error("--require needs --run")
    if not args.run and not args.paths:
        parser.error("give files to validate, or --run BINARY")

    status = 1 if validate_all(args.paths) else 0
    if args.run:
        status = max(status, run_and_validate(args.run, extra, required))
    return status


if __name__ == "__main__":
    sys.exit(main())

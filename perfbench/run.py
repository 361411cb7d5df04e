#!/usr/bin/env python3
"""TupleBus benchmark: one seeded workload per run, checked, with metrics.

    python3 perfbench/run.py --workload cosim_table4|fed_drain|threaded_mix \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the ../src libraries it links) into .bench_build/ on
first use, runs tb_perfbench, checks its outputs, prints every metric by name
with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics of
a separately traced run (spans go to .bench_build/perfbench-results/).
Exits 1 when a check fails and 2 when the program cannot be built or run.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds tb_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no TupleBus sources under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = ROOT / ".bench_build" / "perfbench-build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release",
                      *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "tb_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out (log: %s)" % log_path)
            if done.returncode != 0:
                log.flush()
                tail = Path(log_path).read_text(errors="replace")[-3000:]
                fail("build failed (log: %s)\n%s" % (log_path, tail))
    binary = BUILD_DIR / "tb_perfbench"
    if not binary.is_file():
        fail("build produced no %s" % binary)
    return binary


def fmt(value):
    return "%.6g" % value


def report(raw, verdict, trace):
    """Human-readable lines; the JSON result line comes last, separately."""
    host = raw.get("host", {})
    print("tuplebus perfbench  workload=%s seed=%s trace=%d inputs=%s"
          % (raw.get("workload"), raw.get("seed"), trace,
             raw.get("input_digest")))
    print("host  nproc=%s compiler=%s build=%s client_threads=%s"
          % (host.get("nproc"), host.get("compiler"), host.get("build_type"),
             host.get("client_threads")))
    for warning in verdict.warnings:
        print("WARNING: " + warning)
    if raw.get("workload") == "cosim_table4" and "cells" in raw.get("facts", {}):
        rows = {}
        for cell in raw["facts"]["cells"]:
            if cell["paper"]:
                rows.setdefault(round(cell["cbr_bps"], 1), {})[
                    cell["variant"]] = check.render_cell(cell)
        print("Table 4   %-12s %-12s %-12s" % ("1-wire", "2-wire (A)",
                                               "2x1-wire (B)"))
        for rate in sorted(rows):
            row = rows[rate]
            print("%.1f B/s   %-12s %-12s %-12s"
                  % (rate, row.get("1-wire", "-"), row.get("2-wire (A)", "-"),
                     row.get("2x1-wire (B)", "-")))
    for name, (value, unit) in verdict.metrics.items():
        note = ""
        if name in ("op_us_p50", "op_us_p99"):
            note = "  (%d samples)" % raw.get("op_ns", {}).get("count", 0)
        print("  %-32s %14s %s%s" % (name, fmt(value), unit, note))
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print("  %-32s %14s    (%d of %d ops)"
          % ("failed_ratio", fmt(ratio), verdict.failed, verdict.attempted))
    if not trace:
        for name, value in verdict.extra.items():
            print("  %-32s %14s %s" % (name.split(".", 1)[1], fmt(value),
                                       check.PER_LAYER[name]))
    for problem in verdict.problems:
        print("FAILED: " + problem)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=check.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    binary = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        command += ["--spans-out", str(RESULTS_DIR / (stem + "-spans.jsonl"))]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("tb_perfbench timed out")
    if done.returncode != 0:
        fail("tb_perfbench exited %d\n%s" % (done.returncode, done.stderr))
    try:
        raw = json.loads(done.stdout)
    except json.JSONDecodeError as err:
        fail("unreadable tb_perfbench report: %s" % err)

    verdict = check.evaluate(raw)
    report(raw, verdict, args.trace)
    result = verdict.result_line()
    with open(RESULTS_DIR / (stem + ".json"), "w") as out:
        json.dump({"result": result, "problems": verdict.problems,
                   "warnings": verdict.warnings, "extra": verdict.extra,
                   "raw": raw}, out, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())

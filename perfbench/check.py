"""Checks a tb_perfbench raw report and derives the benchmark's metrics.

run.py feeds it the JSON document tb_perfbench prints. Every check that
fails adds a problem; a run with any problem is not correct. Failed ops are
re-derived here from the workload's facts, so a doctored or broken report
cannot claim zero failures while its facts say otherwise.
"""

import math
import statistics

# bench_table4_impact's Table 4 at default calibration: the nine cells every
# cosim_table4 run must reproduce, rendered as that bench renders them.
EXPECTED_TABLE4 = {
    ("1-wire", 0.0): "142s", ("2-wire (A)", 0.0): "118s",
    ("2x1-wire (B)", 0.0): "86s",
    ("1-wire", 0.3): "152s", ("2-wire (A)", 0.3): "125s",
    ("2x1-wire (B)", 0.3): "89s",
    ("1-wire", 1.0): "Out of Time", ("2-wire (A)", 1.0): "144s",
    ("2x1-wire (B)", 1.0): "95s",
}
# The paper's numeric Table-4 cells (seconds); its 1-wire / 1 B/s cell is
# Out of Time and has no error.
PAPER_TABLE4 = {
    ("1-wire", 0.0): 140.0, ("2-wire (A)", 0.0): 116.0,
    ("1-wire", 0.3): 151.0, ("2-wire (A)", 0.3): 122.0,
    ("2-wire (A)", 1.0): 129.0,
}

# Untraced runs report these (BENCHMARK.json "end_to_end").
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "peak_rss_mb": "MB",
}

# Traced runs report these (BENCHMARK.json "per_layer"). A layer a workload
# does not cross reports 0 there; LAYER_METRICS says which ones each
# workload must measure.
PER_LAYER = {
    "sim.events_per_op": "count/op",
    "sim.peak_pending": "count",
    "sim.host_ns_per_event": "ns",
    "wire.cycles_per_op": "count/op",
    "wire.host_ns_per_cycle": "ns",
    "wire.busy_sim_s": "s",
    "wire.utilization": "ratio",
    "wire.crc_errors": "count/op",
    "wire.timeouts": "count/op",
    "wire.master.frames_sent": "count/op",
    "wire.master.retries": "count/op",
    "wire.master.skip_ratio": "ratio",
    "wire.relay.probes": "count/op",
    "wire.relay.useful_probe_ratio": "ratio",
    "wire.sim_s.poll": "s",
    "wire.sim_s.payload": "s",
    "net.cbr_delivered": "count/op",
    "mw.rpc_sim_ms.write": "ms",
    "mw.rpc_sim_ms.take": "ms",
    "mw.bytes_encoded_per_op": "B",
    "mw.retransmissions": "count/op",
    "mw.server.requests": "count/op",
    "mw.server.overload_rejects": "count/op",
    "mw.codec_host_ns_per_msg": "ns",
    "space.scan_steps_per_match": "count",
    "space.misses": "count/op",
    "space.write_us_p50": "us",
    "space.write_us_p99": "us",
    "space.named_take_us_p50": "us",
    "space.named_take_us_p99": "us",
    "space.wildcard_us_p50": "us",
    "space.wildcard_us_p99": "us",
    "space.barriers_per_op": "count/op",
    "space.inbox_peak": "count",
    "space.cross_queue_serves": "count/op",
    "space.oracle_replay_ms": "ms",
    "fed.named_write_sim_us_p50": "us",
    "fed.named_write_sim_us_p99": "us",
    "fed.wildcard_take_sim_us_p50": "us",
    "fed.wildcard_take_sim_us_p99": "us",
    "fed.peeks_per_take": "count",
    "fed.directed_take_hit_ratio": "ratio",
    "fed.misroute_refreshes": "count/op",
    "fed.sim_makespan_s": "s",
    "cosim.paper_err_pct": "%",
    "trace_overhead_pct": "%",
}

_SIM = ["sim.events_per_op", "sim.peak_pending", "sim.host_ns_per_event"]
_MW_COUNTS = ["mw.bytes_encoded_per_op", "mw.retransmissions",
              "mw.server.requests", "mw.server.overload_rejects"]
LAYER_METRICS = {
    "cosim_table4": _SIM + [n for n in PER_LAYER if n.startswith("wire.")] + [
        "net.cbr_delivered", "mw.rpc_sim_ms.write", "mw.rpc_sim_ms.take",
        *_MW_COUNTS, "mw.codec_host_ns_per_msg",
        "space.scan_steps_per_match", "space.misses",
        "cosim.paper_err_pct", "trace_overhead_pct"],
    "fed_drain": _SIM + _MW_COUNTS + [
        "space.scan_steps_per_match", "space.misses",
        "space.oracle_replay_ms",
        *[n for n in PER_LAYER if n.startswith("fed.")],
        "trace_overhead_pct"],
    "threaded_mix": [n for n in PER_LAYER if n.startswith("space.")] + [
        "trace_overhead_pct"],
}

# p99 needs at least this many samples beyond it.
MIN_BEYOND_P99 = 10


def render_cell(cell):
    """A Table-4 cell as bench_table4_impact prints it."""
    if not cell["completed"]:
        return "DID NOT FINISH"
    if cell["out_of_time"]:
        return "Out of Time"
    return "%.0fs" % cell["total_s"]


def check_cosim(facts, problems):
    """Returns (failed ops, extra values) for cosim_table4."""
    failed = 0
    paper = {}
    for cell in facts["cells"]:
        runs, mismatches = cell["runs"], cell["mismatches"]
        wrong = None
        if not cell["completed"]:
            wrong = "did not complete"
        elif cell["paper"]:
            key = (cell["variant"], round(cell["cbr_bps"], 1))
            paper[key] = cell
            want = EXPECTED_TABLE4.get(key)
            got = render_cell(cell)
            if want is None:
                wrong = "is not a Table-4 cell"
            elif got != want:
                wrong = "reads %s, expected %s" % (got, want)
        elif cell["out_of_time"]:
            wrong = "ran Out of Time"
        if wrong:
            problems.append("cell %s %s" % (cell["key"], wrong))
            failed += runs
        elif mismatches:
            problems.append("cell %s: %d of %d runs differ from the first"
                            % (cell["key"], mismatches, runs))
            failed += mismatches
    missing = sorted(set(EXPECTED_TABLE4) - set(paper))
    if missing:
        problems.append("Table-4 cells never ran: %s" % missing)
    errors = []
    for key, paper_s in PAPER_TABLE4.items():
        cell = paper.get(key)
        if cell and cell["completed"] and not cell["out_of_time"]:
            errors.append(abs(cell["total_s"] - paper_s) / paper_s * 100.0)
    extra = {}
    if len(errors) == len(PAPER_TABLE4):
        extra["cosim.paper_err_pct"] = statistics.fmean(errors)
    return failed, extra


def check_fed(facts, problems):
    """Returns (failed ops, extra values) for fed_drain."""
    failed = 0
    makespans = []
    for ep in facts["episodes"]:
        jobs, runs = ep["jobs"], ep["runs"]
        breaks = []
        if ep["acked"] != jobs:
            breaks.append("acked %d of %d jobs" % (ep["acked"], jobs))
        if ep["consumed"] != ep["acked"] or ep["duplicates"]:
            breaks.append("consumed %d (%d twice) of %d acked"
                          % (ep["consumed"], ep["duplicates"], ep["acked"]))
        if ep["residual"] or not ep["drained"]:
            breaks.append("undrained, %d tuples left" % ep["residual"])
        if not ep["oracle_equivalent"]:
            breaks.append("merged-OpLog replay not equivalent")
        if breaks:
            problems.append("episode %d: %s" % (ep["index"], "; ".join(breaks)))
            failed += jobs * runs
        elif ep["mismatches"]:
            problems.append("episode %d: %d of %d runs differ from the first"
                            % (ep["index"], ep["mismatches"], runs))
            failed += jobs * ep["mismatches"]
        makespans.append(ep["makespan_s"])
    extra = {}
    if makespans:
        extra["fed.sim_makespan_s"] = statistics.fmean(makespans)
    return failed, extra


def check_threaded(facts, problems):
    """Returns (failed ops, extra values) for threaded_mix."""
    mix = facts["mix"]
    failed = mix["misses"]
    if mix["misses"]:
        problems.append("%d calls did not return their own tuple"
                        % mix["misses"])
    residual = mix["live_size"] - mix["noise"]
    taken = mix["named_takes"] + mix["wildcard_takes"]
    if mix["writes"] != taken + residual:
        problems.append("conservation: %d writes != %d takes + %d live"
                        % (mix["writes"], taken, residual))
        failed = max(failed, abs(mix["writes"] - taken - residual), 1)
    oracle = facts.get("oracle")
    if oracle is not None and not oracle["equivalent"]:
        problems.append("OpLog replay diverged: %s" % oracle["divergence"])
        failed += 1
    return failed, {}


CHECKERS = {
    "cosim_table4": check_cosim,
    "fed_drain": check_fed,
    "threaded_mix": check_threaded,
}
WORKLOADS = tuple(CHECKERS)


def finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class Verdict:
    def __init__(self):
        self.problems = []
        self.warnings = []
        self.attempted = 0
        self.failed = 0
        self.metrics = {}  # name -> (value, unit)
        self.extra = {}    # derived values printed with every run

    @property
    def correct(self):
        return not self.problems

    def result_line(self):
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def evaluate(raw):
    """Checks a raw report; returns a Verdict."""
    v = Verdict()
    workload = raw.get("workload")
    if workload not in CHECKERS:
        v.problems.append("unknown workload %r" % workload)
        return v
    try:
        failed, v.extra = CHECKERS[workload](raw["facts"], v.problems)
    except (KeyError, TypeError) as err:
        v.problems.append("facts incomplete: %r" % (err,))
        failed = 0
    v.attempted = int(raw.get("attempted", 0))
    if v.attempted < 1:
        v.problems.append("no ops attempted")
    v.failed = min(max(int(raw.get("failed", 0)), int(failed)), v.attempted)
    if raw.get("failed", 0) and not v.problems:
        v.problems.append("%d ops failed: %s" % (raw["failed"],
                                                 "; ".join(raw.get("failures", []))))
    host = raw.get("host", {})
    if host.get("build_type") != "Release":
        v.warnings.append("non-Release build (%s): timings are not comparable"
                          % host.get("build_type"))

    if raw.get("trace"):
        values = {name: 0.0 for name in PER_LAYER}
        measured = dict(raw.get("layers", {}))
        measured.update(v.extra)
        for name in LAYER_METRICS[workload]:
            if name not in measured:
                v.problems.append("metric %s missing" % name)
        values.update({k: x for k, x in measured.items() if k in PER_LAYER})
        units = PER_LAYER
    else:
        op_ns = raw.get("op_ns", {})
        count = op_ns.get("count", 0)
        if count * 0.01 < MIN_BEYOND_P99:
            v.problems.append("%d op samples: p99 needs %d beyond it"
                              % (count, MIN_BEYOND_P99))
        setup = raw.get("setup_s") or [float("nan")]
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": raw.get("ops_per_s", float("nan")),
            "op_us_p50": op_ns.get("p50", float("nan")) / 1e3,
            "op_us_p99": op_ns.get("p99", float("nan")) / 1e3,
            "peak_rss_mb": raw.get("peak_rss_mb", float("nan")),
        }
        units = END_TO_END
    for name, unit in units.items():
        value = values.get(name)
        if not finite(value):
            v.problems.append("metric %s is %r" % (name, value))
            continue
        v.metrics[name] = (value, unit)
    for name, value in v.extra.items():
        if not finite(value):
            v.problems.append("metric %s is %r" % (name, value))
    return v

// tb_perfbench: runs one benchmark workload and prints its raw report as a
// single JSON document on stdout. perfbench/run.py builds this program,
// checks the report and derives the benchmark's metrics from it.
//
//   tb_perfbench --workload cosim_table4|fed_drain|threaded_mix
//                --seed N --seconds S --trace 0|1 [--spans-out FILE]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"

using namespace tb;
using namespace tb::perfbench;

namespace {

const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "tb_perfbench: %s\nusage: tb_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  return 2;
}

obs::JsonValue numbers(const std::vector<double>& values) {
  obs::JsonValue array = obs::JsonValue::array();
  for (double v : values) array.push_back(obs::JsonValue(v));
  return array;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  Report report;
  if (options.workload == "cosim_table4") {
    report = run_cosim_table4(options);
  } else if (options.workload == "fed_drain") {
    report = run_fed_drain(options);
  } else if (options.workload == "threaded_mix") {
    report = run_threaded_mix(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("workload", options.workload);
  doc.set("seed", options.seed);
  doc.set("trace", options.trace);
  doc.set("seconds", options.seconds);
  doc.set("input_digest", report.input_digest);
  obs::JsonValue host = obs::JsonValue::object();
  host.set("nproc", usable_cpus());
  host.set("compiler", compiler_id());
  host.set("build_type", TB_PERFBENCH_BUILD_TYPE);
  host.set("client_threads", report.client_threads);
  doc.set("host", std::move(host));
  doc.set("attempted", report.attempted);
  doc.set("failed", report.failed);
  obs::JsonValue failures = obs::JsonValue::array();
  for (const std::string& f : report.failures) failures.push_back(f);
  doc.set("failures", std::move(failures));
  doc.set("setup_s", numbers(report.setup_s));
  doc.set("ops_per_s", per(report.ops, report.seconds));
  std::vector<double> pooled;
  std::uint64_t count = 0;
  for (const Reservoir& r : report.op_ns) {
    pooled.insert(pooled.end(), r.sample().begin(), r.sample().end());
    count += r.count();
  }
  obs::JsonValue op_ns = obs::JsonValue::object();
  op_ns.set("count", count);
  op_ns.set("sampled", static_cast<std::uint64_t>(pooled.size()));
  op_ns.set("p50", quantile(pooled, 0.50));
  op_ns.set("p99", quantile(pooled, 0.99));
  doc.set("op_ns", std::move(op_ns));
  doc.set("peak_rss_mb",
          report.peak_rss_mb > 0.0 ? report.peak_rss_mb : peak_rss_mb());
  doc.set("facts", std::move(report.facts));
  doc.set("layers", std::move(report.layers));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

// Shared plumbing for the benchmark workloads: run options, the host clock,
// seeded input generation, fixed-size latency samples, spans, and the raw
// report every workload fills in. perfbench/run.py reads the report, checks
// it and turns it into the benchmark's metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.hpp"

namespace tb::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget (host wall clock)
  bool trace = false;
  std::string spans_out;  ///< JSONL span dump of a traced run ("" = none)
};

/// Host steady-clock nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's own input generator. Every generated input
/// comes from one of these seeded with --seed (plus a per-stream salt), so
/// the same seed always yields the same inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a digest of the generated inputs, recorded with every run.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Uniform fixed-capacity sample of a latency stream (Algorithm R), so a
/// run's memory does not grow with its throughput. Exact while count() <=
/// capacity. Not thread-safe: one per thread.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = std::size_t{1} << 18,
                     std::uint64_t seed = 1);
  void add(double value);
  std::uint64_t count() const { return count_; }
  const std::vector<double>& sample() const { return sample_; }

 private:
  std::size_t capacity_;
  std::uint64_t count_ = 0;
  std::vector<double> sample_;
  InputRng rng_;
};

/// Quantile (linear interpolation between order statistics) of a sample;
/// 0 when it is empty.
double quantile(std::vector<double> values, double q);
inline double quantile(const Reservoir& r, double q) {
  return quantile(r.sample(), q);
}

/// One traced interval at a layer boundary. Sim times are -1 where the
/// workload has no simulated clock.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< span that caused this one; 0 = root
  std::uint64_t op = 0;      ///< the op every span of one request shares
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  std::int64_t sim_start_ns = -1;
  std::int64_t sim_end_ns = -1;
};

/// In-memory span store, written out when the run ends. Keeps the first
/// `capacity` spans and counts the rest as dropped, so tracing a long run
/// costs bounded memory. Not thread-safe: one per thread.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 200'000) : capacity_(capacity) {}
  std::uint64_t next_id() { return ++last_id_ * id_stride_ + id_base_; }
  /// Disjoint id spaces for per-thread logs: ids are base + k * stride.
  void set_id_space(std::uint64_t base, std::uint64_t stride) {
    id_base_ = base;
    id_stride_ = stride;
  }
  void record(const Span& span);
  std::uint64_t recorded() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  void write_jsonl(std::FILE* out) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t id_base_ = 0;
  std::uint64_t id_stride_ = 1;
};

/// What a workload hands back; main() adds host facts and prints it.
struct Report {
  std::string input_digest;
  int client_threads = 1;
  std::vector<double> setup_s;  ///< one sample per fixture set-up
  std::uint64_t attempted = 0;  ///< ops issued in the measured phase
  /// Ops the workload itself saw fail (mismatch, miss, undrained...).
  /// check.py re-derives failures from `facts` as well.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  // The untraced measured phase.
  std::uint64_t ops = 0;  ///< ops completed
  double seconds = 0.0;   ///< host time they took
  /// Per-op host latency, one sample per client. The clients run the same
  /// closed loop, so their op counts are alike and the samples pool as
  /// they are.
  std::vector<Reservoir> op_ns;
  /// Peak RSS once set-up and one full pass of the input list are done
  /// (0 = take it at exit). Fixed work, so the figure does not grow with
  /// how many ops a faster build fits into the run.
  double peak_rss_mb = 0.0;
  obs::JsonValue facts = obs::JsonValue::object();   ///< check inputs
  obs::JsonValue layers = obs::JsonValue::object();  ///< traced runs only

  void fail(std::string reason, std::uint64_t ops = 1);
};

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// CPUs this process may run on.
int usable_cpus();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per `period`, and puts its CPU mask back when destroyed. On a shared
/// host each CPU runs at whatever speed its neighbours leave it, and that
/// speed changes by the minute; a single-threaded run that stays on one CPU
/// would measure that CPU's neighbours. Rotating averages a run over all of
/// them. Call tick() between ops, so no timed op spans a move.
class CpuRotation {
 public:
  explicit CpuRotation(double period_s = 0.1);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void tick();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::int64_t period_ns_;
  std::int64_t last_move_ns_ = 0;
};

/// Writes every log's spans to `path` as JSON lines; no-op on "".
void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

/// Per-layer metric helper: value / base, 0 when base is 0 (the layer did
/// no such work on this workload).
inline double per(double value, double base) {
  return base == 0.0 ? 0.0 : value / base;
}

Report run_cosim_table4(const Options& options);
Report run_fed_drain(const Options& options);
Report run_threaded_mix(const Options& options);

}  // namespace tb::perfbench

#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <utility>

namespace tb::perfbench {

void Digest::add(std::string_view bytes) {
  for (char c : bytes) {
    h_ ^= static_cast<std::uint8_t>(c);
    h_ *= 0x100000001B3ull;
  }
  h_ ^= 0xFF;  // field separator: ("ab","c") != ("a","bc")
  h_ *= 0x100000001B3ull;
}

void Digest::add(std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  add(std::string_view(bytes, 8));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  sample_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void Reservoir::add(double value) {
  ++count_;
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_.below(count_);
  if (slot < capacity_) sample_[slot] = value;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - low);
}

void SpanLog::record(const Span& span) {
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

void SpanLog::write_jsonl(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"op\":%" PRIu64 ",\"host_start_ns\":%" PRId64
                 ",\"host_end_ns\":%" PRId64,
                 s.name, s.id, s.parent, s.op, s.host_start_ns, s.host_end_ns);
    if (s.sim_start_ns >= 0) {
      std::fprintf(out, ",\"sim_start_ns\":%" PRId64 ",\"sim_end_ns\":%" PRId64,
                   s.sim_start_ns, s.sim_end_ns);
    }
    std::fputs("}\n", out);
  }
}

void Report::fail(std::string reason, std::uint64_t ops) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(std::move(reason));
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not do:
  // Linux carries it across exec, so it can report the launcher's peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

CpuRotation::CpuRotation(double period_s)
    : period_ns_(static_cast<std::int64_t>(period_s * 1e9)) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) cpus_.clear();
  tick();
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::tick() {
  if (cpus_.empty()) return;
  const std::int64_t now = host_ns();
  if (next_ > 0 && now - last_move_ns_ < period_ns_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
  last_move_ns_ = now;
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (const SpanLog* log : logs) log->write_jsonl(out);
  std::fclose(out);
}

}  // namespace tb::perfbench

// Workload threaded_mix: space::ThreadedSpaceEngine (4 shards) under one
// client thread per usable CPU, closed loop. One op = one round trip: write
// a tuple under the thread's own key, then take it back. In every block of
// 64 ops one op, at a seeded position, takes it back through a wildcard
// (nameless) template instead — take_if_exists, or read_all followed by the
// named take, by a seeded coin — which runs the all-shard path. A resident
// noise set of 512 tuples never matches any template, so wildcards pay for
// scanning it while named ops, routed by the type index, do not.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/obs/metrics.hpp"
#include "src/space/oplog.hpp"
#include "src/space/threaded.hpp"

namespace tb::perfbench {

namespace {

constexpr int kShards = 4;
constexpr int kNoiseNames = 64;
constexpr int kNoisePerName = 8;
constexpr int kNoise = kNoiseNames * kNoisePerName;
constexpr int kBlockOps = 64;
constexpr int kScheduleBlocks = 1024;
constexpr int kSetupRepeats = 5;
constexpr int kOracleOpsPerThread = 2048;
constexpr double kWarmupSeconds = 0.25;
constexpr std::size_t kLatencySample = std::size_t{1} << 14;  // per thread

/// The wildcard op of one block: its position and which call it makes.
struct BlockPlan {
  int wildcard_at = 0;
  bool read_all = false;
};

std::vector<std::vector<BlockPlan>> make_schedules(std::uint64_t seed,
                                                   int threads,
                                                   Digest& digest) {
  std::vector<std::vector<BlockPlan>> schedules(threads);
  for (int t = 0; t < threads; ++t) {
    InputRng rng(seed ^ (0x7A5E0000ull + static_cast<std::uint64_t>(t)));
    for (int b = 0; b < kScheduleBlocks; ++b) {
      BlockPlan plan;
      plan.wildcard_at = static_cast<int>(rng.below(kBlockOps));
      plan.read_all = rng.below(2) == 1;
      schedules[t].push_back(plan);
      digest.add(static_cast<std::uint64_t>(plan.wildcard_at * 2 + plan.read_all));
    }
  }
  digest.add(static_cast<std::uint64_t>(kNoise));
  return schedules;
}

space::SpaceConfig engine_config() {
  space::SpaceConfig config;
  config.execution_mode = space::ExecutionMode::kThreaded;
  config.shard_count = kShards;
  return config;
}

/// Noise: ("noise-<i>", -1 - k, k). Client tuples carry a thread id >= 0 in
/// field 0, so no client template ever matches noise.
void prefill_noise(space::ThreadedSpaceEngine& engine) {
  for (int n = 0; n < kNoiseNames; ++n) {
    const std::string name = "noise-" + std::to_string(n);
    for (int k = 0; k < kNoisePerName; ++k) {
      engine.write(space::make_tuple(name, std::int64_t{-1 - k},
                                     std::int64_t{k}));
    }
  }
}

/// Per-thread counters and samples. Aligned so threads never share a line.
struct alignas(64) ClientState {
  std::uint64_t writes = 0;
  std::uint64_t named_takes = 0;     ///< successful named take_if_exists
  std::uint64_t wildcard_takes = 0;  ///< successful wildcard take_if_exists
  std::uint64_t read_alls = 0;       ///< read_all calls that saw the tuple
  std::uint64_t misses = 0;          ///< a call that did not return the tuple
  std::uint64_t ops = 0;  ///< round trips completed while measuring
  Reservoir op_ns;        ///< their latency
  // Traced phase only.
  Reservoir write_ns{std::size_t{1} << 16};
  Reservoir named_take_ns{std::size_t{1} << 16};
  Reservoir wildcard_ns{std::size_t{1} << 16};
  SpanLog spans{50'000};

  explicit ClientState(std::uint64_t seed) : op_ns(kLatencySample, seed) {}
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

bool returned(const std::optional<space::Tuple>& got, const std::string& name,
              std::int64_t thread, std::int64_t seq) {
  return got.has_value() && got->name == name && got->arity() == 2 &&
         got->fields[0].as_int() == thread && got->fields[1].as_int() == seq;
}

/// One client thread's closed loop. `seq` continues across phases so keys
/// never repeat within an engine.
void client_loop(space::ThreadedSpaceEngine& engine, int thread,
                 int thread_count, const std::vector<BlockPlan>& schedule,
                 const std::atomic<int>& phase, bool traced,
                 std::int64_t& seq, ClientState& state,
                 std::uint64_t op_limit) {
  const std::string name = "k" + std::to_string(thread);
  std::size_t block = static_cast<std::size_t>(seq / kBlockOps);
  std::uint64_t local_ops = 0;
  while (true) {
    const int now_phase = phase.load(std::memory_order_relaxed);
    if (now_phase == kStop || (op_limit != 0 && local_ops >= op_limit)) break;
    const bool measuring = now_phase == kMeasure;
    const BlockPlan& plan = schedule[block % schedule.size()];
    const bool wildcard = seq % kBlockOps == plan.wildcard_at;
    const std::int64_t s = seq;

    const std::int64_t t0 = host_ns();
    const space::Lease lease =
        engine.write(space::make_tuple(name, std::int64_t{thread}, s));
    const std::int64_t t1 = host_ns();
    if (!lease.valid()) ++state.misses;
    ++state.writes;

    std::int64_t wildcard_end = t1;
    if (wildcard) {
      const space::Template any_name(
          std::nullopt, {space::FieldPattern::exact(std::int64_t{thread}),
                         space::FieldPattern::exact(s)});
      if (plan.read_all) {
        const std::vector<space::Tuple> seen = engine.read_all(any_name);
        if (seen.size() == 1 && seen.front().name == name) {
          ++state.read_alls;
        } else {
          ++state.misses;
        }
      } else if (returned(engine.take_if_exists(any_name), name, thread, s)) {
        ++state.wildcard_takes;
      } else {
        ++state.misses;
      }
      wildcard_end = host_ns();
    }
    std::int64_t t2 = wildcard_end;
    if (!wildcard || plan.read_all) {
      const space::Template mine(
          name, {space::FieldPattern::exact(std::int64_t{thread}),
                 space::FieldPattern::exact(s)});
      if (returned(engine.take_if_exists(mine), name, thread, s)) {
        ++state.named_takes;
      } else {
        ++state.misses;
      }
      t2 = host_ns();
    }

    if (measuring) {
      ++state.ops;
      state.op_ns.add(static_cast<double>(t2 - t0));
      if (traced) {
        state.write_ns.add(static_cast<double>(t1 - t0));
        if (wildcard) state.wildcard_ns.add(static_cast<double>(wildcard_end - t1));
        if (!wildcard || plan.read_all) {
          state.named_take_ns.add(static_cast<double>(t2 - wildcard_end));
        }
        const std::uint64_t op =
            state.ops * static_cast<std::uint64_t>(thread_count) +
            static_cast<std::uint64_t>(thread);
        Span root;
        root.name = "threaded.op";
        root.id = state.spans.next_id();
        root.op = op;
        root.host_start_ns = t0;
        root.host_end_ns = t2;
        state.spans.record(root);
        Span call;
        call.parent = root.id;
        call.op = op;
        call.name = "space.ThreadedSpaceEngine.write";
        call.id = state.spans.next_id();
        call.host_start_ns = t0;
        call.host_end_ns = t1;
        state.spans.record(call);
        if (wildcard) {
          call.name = plan.read_all ? "space.ThreadedSpaceEngine.read_all"
                                    : "space.ThreadedSpaceEngine.take_if_exists.wildcard";
          call.id = state.spans.next_id();
          call.host_start_ns = t1;
          call.host_end_ns = wildcard_end;
          state.spans.record(call);
        }
        if (!wildcard || plan.read_all) {
          call.name = "space.ThreadedSpaceEngine.take_if_exists.named";
          call.id = state.spans.next_id();
          call.host_start_ns = wildcard_end;
          call.host_end_ns = t2;
          state.spans.record(call);
        }
      }
    }
    ++local_ops;
    ++seq;
    if (seq % kBlockOps == 0) ++block;
  }
}

/// Runs every client thread through warm-up and `seconds` of measurement;
/// returns the measured wall seconds.
double run_phase(space::ThreadedSpaceEngine& engine,
                 const std::vector<std::vector<BlockPlan>>& schedules,
                 std::vector<std::int64_t>& seqs,
                 std::vector<std::unique_ptr<ClientState>>& states,
                 bool traced, double seconds) {
  const int threads = static_cast<int>(states.size());
  std::atomic<int> phase{kWarmup};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      client_loop(engine, t, threads, schedules[t], phase, traced, seqs[t],
                  *states[t], 0);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const std::int64_t start = host_ns();
  phase.store(kMeasure, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  phase.store(kStop, std::memory_order_relaxed);
  const std::int64_t end = host_ns();
  for (std::thread& c : clients) c.join();
  return (end - start) / 1e9;
}

/// Records a short, fixed run of the same mix into an OpLog and replays it
/// through the deterministic oracle.
space::ReplayReport oracle_check(
    const std::vector<std::vector<BlockPlan>>& schedules, std::uint64_t seed,
    double& replay_ms) {
  space::OpLog log;
  space::ThreadedSpaceEngine engine(engine_config(), &log);
  prefill_noise(engine);
  const int threads = static_cast<int>(schedules.size());
  std::vector<std::int64_t> seqs(static_cast<std::size_t>(threads), 0);
  std::vector<std::unique_ptr<ClientState>> states;
  for (int t = 0; t < threads; ++t) {
    states.push_back(std::make_unique<ClientState>(seed + t));
  }
  const std::atomic<int> phase{kWarmup};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      client_loop(engine, t, threads, schedules[t], phase, false, seqs[t],
                  *states[t], kOracleOpsPerThread);
    });
  }
  for (std::thread& c : clients) c.join();
  const std::vector<space::Tuple> final_state = engine.snapshot();
  engine.shutdown();
  const std::int64_t start = host_ns();
  space::ReplayReport report =
      space::replay_against_oracle(log, engine_config(), final_state);
  replay_ms = (host_ns() - start) / 1e6;
  return report;
}

}  // namespace

Report run_threaded_mix(const Options& options) {
  Report report;
  const int threads = usable_cpus();
  report.client_threads = threads;
  Digest digest;
  const std::vector<std::vector<BlockPlan>> schedules =
      make_schedules(options.seed, threads, digest);
  report.input_digest = digest.hex();

  // Set-up: engine (shard workers start) plus noise prefill. It is timed
  // kSetupRepeats times before the run, keeping the last engine for the
  // measurement, and kSetupRepeats times after it, so the median set-up
  // time samples both ends of the run.
  auto set_up = [&report] {
    const std::int64_t start = host_ns();
    auto fresh = std::make_unique<space::ThreadedSpaceEngine>(engine_config());
    prefill_noise(*fresh);
    report.setup_s.push_back((host_ns() - start) / 1e9);
    return fresh;
  };
  std::unique_ptr<space::ThreadedSpaceEngine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    engine = set_up();
  }
  obs::Registry registry;
  engine->bind_metrics(registry);

  std::vector<std::int64_t> seqs(static_cast<std::size_t>(threads), 0);
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  std::vector<std::unique_ptr<ClientState>> states;
  for (int t = 0; t < threads; ++t) {
    states.push_back(std::make_unique<ClientState>(options.seed * 131 + t));
  }
  report.seconds = run_phase(*engine, schedules, seqs, states, false,
                             untraced_budget);
  report.peak_rss_mb = peak_rss_mb();
  for (const auto& s : states) {
    report.ops += s->ops;
    report.op_ns.push_back(s->op_ns);
  }

  if (options.trace) {
    std::vector<std::unique_ptr<ClientState>> traced;
    for (int t = 0; t < threads; ++t) {
      traced.push_back(std::make_unique<ClientState>(options.seed * 257 + t));
      traced.back()->spans.set_id_space(static_cast<std::uint64_t>(t),
                                        static_cast<std::uint64_t>(threads));
    }
    const space::SpaceEngine::Stats before = engine->stats();
    const obs::Snapshot snap0 = registry.snapshot();
    const double traced_s =
        run_phase(*engine, schedules, seqs, traced, true, options.seconds / 2);
    const obs::Snapshot snap1 = registry.snapshot();
    const space::SpaceEngine::Stats after = engine->stats();

    std::uint64_t traced_ops = 0;
    std::vector<double> write_ns, named_ns, wildcard_ns;
    std::vector<const SpanLog*> logs;
    auto pool = [](std::vector<double>& into, const Reservoir& r) {
      into.insert(into.end(), r.sample().begin(), r.sample().end());
    };
    for (const auto& s : traced) {
      traced_ops += s->ops;
      pool(write_ns, s->write_ns);
      pool(named_ns, s->named_take_ns);
      pool(wildcard_ns, s->wildcard_ns);
      logs.push_back(&s->spans);
    }
    double inbox_peak = 0.0;
    for (int s = 0; s < kShards; ++s) {
      const obs::Snapshot::GaugeSample* peak = snap1.find_gauge(
          "space.shard" + std::to_string(s) + ".inbox_peak");
      if (peak != nullptr) inbox_peak = std::max(inbox_peak, peak->value);
    }
    const double ops = static_cast<double>(traced_ops);
    double replay_ms = 0.0;
    const space::ReplayReport oracle =
        oracle_check(schedules, options.seed, replay_ms);

    obs::JsonValue m = obs::JsonValue::object();
    m.set("space.write_us_p50", quantile(write_ns, 0.50) / 1e3);
    m.set("space.write_us_p99", quantile(write_ns, 0.99) / 1e3);
    m.set("space.named_take_us_p50", quantile(named_ns, 0.50) / 1e3);
    m.set("space.named_take_us_p99", quantile(named_ns, 0.99) / 1e3);
    m.set("space.wildcard_us_p50", quantile(wildcard_ns, 0.50) / 1e3);
    m.set("space.wildcard_us_p99", quantile(wildcard_ns, 0.99) / 1e3);
    m.set("space.barriers_per_op",
          per(snap1.counter_value("space.barriers") -
                  snap0.counter_value("space.barriers"),
              ops));
    m.set("space.inbox_peak", inbox_peak);
    m.set("space.cross_queue_serves",
          per(snap1.counter_value("space.cross_queue_serves") -
                  snap0.counter_value("space.cross_queue_serves"),
              ops));
    m.set("space.scan_steps_per_match",
          per(after.scan_steps - before.scan_steps,
              (after.reads + after.takes) - (before.reads + before.takes)));
    m.set("space.misses", per(after.misses - before.misses, ops));
    m.set("space.oracle_replay_ms", replay_ms);
    const double untraced_ops_per_s = per(report.ops, report.seconds);
    m.set("trace_overhead_pct",
          (1.0 - per(per(traced_ops, traced_s), untraced_ops_per_s)) * 100.0);
    report.layers = std::move(m);
    write_spans(options.spans_out, logs);

    obs::JsonValue o = obs::JsonValue::object();
    o.set("records", static_cast<std::uint64_t>(oracle.ops_replayed));
    o.set("equivalent", oracle.equivalent);
    o.set("divergence", oracle.divergence);
    report.facts.set("oracle", std::move(o));
    if (!oracle.equivalent) report.fail("oracle: " + oracle.divergence);
    for (auto& s : traced) states.push_back(std::move(s));
  }

  const std::size_t live = engine->size();
  engine->shutdown();
  for (int i = 0; i < kSetupRepeats; ++i) set_up();

  std::uint64_t writes = 0, named = 0, wildcard = 0, read_alls = 0, misses = 0;
  for (const auto& s : states) {
    writes += s->writes;
    named += s->named_takes;
    wildcard += s->wildcard_takes;
    read_alls += s->read_alls;
    misses += s->misses;
    report.attempted += s->ops;
  }
  if (misses > 0) report.fail(std::to_string(misses) + " calls missed", misses);
  obs::JsonValue f = obs::JsonValue::object();
  f.set("threads", threads);
  f.set("shards", kShards);
  f.set("noise", kNoise);
  f.set("writes", writes);
  f.set("named_takes", named);
  f.set("wildcard_takes", wildcard);
  f.set("read_alls", read_alls);
  f.set("misses", misses);
  f.set("live_size", static_cast<std::uint64_t>(live));
  report.facts.set("mix", std::move(f));
  return report;
}

}  // namespace tb::perfbench

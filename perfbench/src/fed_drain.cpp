// Workload fed_drain: a 4-node federated space (fed::SimCluster, binary
// codec over loopback, no bus) drained by wildcard takes. One op = one job
// produced and consumed.
//
// The input list is 32 episodes. In each, 4 producers write 256 jobs
// apiece through their own fed::FederatedClient routers, under names drawn
// from a seeded pool of eight and with seeded pauses (0 to 80 ms of
// simulated time, 40 ms on average) between writes, and 4 consumers drain
// the cluster with wildcard takes (scatter peek, min-ticket merge, directed
// take). The pauses keep the producers at about half of what the consumers
// can take, so jobs do not queue up and a job's latency is the cost of its
// own write and take, not its place in a backlog. Every
// episode runs on a fresh simulator and cluster, so the untimed set-up is
// repeated per episode and its median is the set-up time. After each
// episode the merged per-node OpLogs replay through the deterministic
// oracle and the cluster must be empty.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/fed/client.hpp"
#include "src/fed/cluster.hpp"
#include "src/sim/process.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/oplog.hpp"

namespace tb::perfbench {

namespace {

constexpr int kNodes = 4;
constexpr int kProducers = 4;
constexpr int kConsumers = 4;
constexpr int kJobsPerProducer = 256;
constexpr int kJobs = kProducers * kJobsPerProducer;
constexpr int kEpisodes = 32;
constexpr int kNamesPerEpisode = 8;
constexpr std::size_t kLatencySample = std::size_t{1} << 16;
constexpr int kGapSteps = 4;  // pause drawn from {0, 20, ..., 80} ms
const sim::Time kGapStep = sim::Time::ms(20);
const sim::Time kTakeTimeout = sim::Time::ms(25);
const sim::Time kDeadline = sim::Time::sec(300);

struct EpisodeSpec {
  /// Per job (producer p, seq s), at index p * kJobsPerProducer + s: its
  /// tuple name and the producer's pause after writing it.
  std::vector<std::string> job_names;
  std::vector<sim::Time> gaps;
};

std::vector<EpisodeSpec> make_episodes(std::uint64_t seed, Digest& digest) {
  InputRng rng(seed ^ 0xFEDD8A1Eull);
  std::vector<EpisodeSpec> episodes(kEpisodes);
  for (EpisodeSpec& episode : episodes) {
    std::vector<std::string> pool;
    for (int i = 0; i < kNamesPerEpisode; ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "job-%08llx",
                    static_cast<unsigned long long>(rng.next() & 0xFFFFFFFF));
      pool.emplace_back(buf);
    }
    for (int j = 0; j < kJobs; ++j) {
      episode.job_names.push_back(pool[rng.below(pool.size())]);
      const std::uint64_t steps = rng.below(kGapSteps + 1);
      episode.gaps.push_back(kGapStep * static_cast<std::int64_t>(steps));
      digest.add(episode.job_names.back());
      digest.add(steps);
    }
  }
  return episodes;
}

space::Template wildcard_job_template() {
  return space::Template(
      std::nullopt, {space::FieldPattern::typed(space::ValueType::kInt),
                     space::FieldPattern::typed(space::ValueType::kInt)});
}

/// Spans and sim-time samples of a traced episode.
struct EpisodeTrace {
  SpanLog* log = nullptr;
  std::uint64_t op_base = 0;
  Reservoir* write_sim_us = nullptr;  ///< null outside the first pass
  Reservoir* take_sim_us = nullptr;
};

/// Shared state the episode's coroutines cooperate through.
struct Episode {
  const EpisodeSpec* spec = nullptr;
  EpisodeTrace* trace = nullptr;  ///< null on untraced episodes
  std::vector<std::int64_t> write_host_ns = std::vector<std::int64_t>(kJobs, 0);
  std::vector<bool> consumed_job = std::vector<bool>(kJobs, false);
  Reservoir* op_ns = nullptr;
  std::uint64_t acked = 0;
  std::uint64_t consumed = 0;
  std::uint64_t duplicates = 0;  ///< a job taken twice
  Digest drain_order;
  int producers_active = kProducers;
  int consumers_active = kConsumers;
  bool producers_done = false;
  bool done = false;
  sim::Time makespan;
};

void record_span(Episode& e, const char* name, int job, std::int64_t host0,
                 sim::Time sim0, sim::Simulator& sim) {
  Span span;
  span.name = name;
  span.id = e.trace->log->next_id();
  span.op = job < 0 ? 0 : e.trace->op_base + static_cast<std::uint64_t>(job);
  span.host_start_ns = host0;
  span.host_end_ns = host_ns();
  span.sim_start_ns = sim0.count_ns();
  span.sim_end_ns = sim.now().count_ns();
  e.trace->log->record(span);
}

sim::Task<void> produce(fed::FederatedClient& router, int producer,
                        Episode& e) {
  sim::Simulator& sim = router.simulator();
  for (int seq = 0; seq < kJobsPerProducer; ++seq) {
    const int job = producer * kJobsPerProducer + seq;
    space::Tuple tuple = space::make_tuple(
        e.spec->job_names[static_cast<std::size_t>(job)],
        static_cast<std::int64_t>(producer), static_cast<std::int64_t>(seq));
    const sim::Time sim0 = sim.now();
    const std::int64_t host0 = host_ns();
    e.write_host_ns[static_cast<std::size_t>(job)] = host0;
    const util::Status wrote =
        co_await router.write_status(std::move(tuple), space::kLeaseForever);
    if (wrote.ok()) ++e.acked;
    if (e.trace != nullptr) {
      record_span(e, "fed.FederatedClient.write", job, host0, sim0, sim);
      if (e.trace->write_sim_us != nullptr) {
        e.trace->write_sim_us->add((sim.now() - sim0).count_ns() / 1e3);
      }
    }
    co_await sim::delay(sim, e.spec->gaps[static_cast<std::size_t>(job)]);
  }
  if (--e.producers_active == 0) e.producers_done = true;
}

sim::Task<void> consume(fed::FederatedClient& router, Episode& e) {
  sim::Simulator& sim = router.simulator();
  while (true) {
    // A miss proves the cluster empty only if every producer had been
    // acked before the take began.
    const bool settled = e.producers_done;
    const sim::Time sim0 = sim.now();
    const std::int64_t host0 = host_ns();
    std::optional<space::Tuple> job =
        co_await router.take(wildcard_job_template(), kTakeTimeout);
    if (!job.has_value()) {
      if (e.trace != nullptr) {
        record_span(e, "fed.FederatedClient.take", -1, host0, sim0, sim);
      }
      if (settled) break;
      continue;
    }
    const std::int64_t producer = job->fields[0].as_int();
    const std::int64_t seq = job->fields[1].as_int();
    const int index = static_cast<int>(producer) * kJobsPerProducer +
                      static_cast<int>(seq);
    e.drain_order.add(static_cast<std::uint64_t>(index));
    if (e.consumed_job[static_cast<std::size_t>(index)]) {
      ++e.duplicates;
    } else {
      e.consumed_job[static_cast<std::size_t>(index)] = true;
      ++e.consumed;
      e.op_ns->add(static_cast<double>(
          host_ns() - e.write_host_ns[static_cast<std::size_t>(index)]));
    }
    if (e.trace != nullptr) {
      record_span(e, "fed.FederatedClient.take", index, host0, sim0, sim);
      if (e.trace->take_sim_us != nullptr) {
        e.trace->take_sim_us->add((sim.now() - sim0).count_ns() / 1e3);
      }
    }
  }
  if (--e.consumers_active == 0) {
    e.makespan = sim.now();
    e.done = true;
  }
}

/// What must repeat exactly when an episode spec runs again.
struct Outcome {
  std::uint64_t acked = 0;
  std::uint64_t consumed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t residual = 0;
  bool drained = false;
  bool oracle_equivalent = false;
  std::int64_t makespan_ns = 0;
  std::uint64_t events = 0;
  std::string drain_digest;

  bool operator==(const Outcome&) const = default;
  bool ok() const {
    return drained && oracle_equivalent && residual == 0 && duplicates == 0 &&
           acked == kJobs && consumed == kJobs;
  }
};

/// Per-layer totals of traced episodes. Counts and sim quantiles come from
/// the first traced pass only, so they repeat exactly run to run.
struct LayerTotals {
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t bytes_encoded = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t matches = 0;
  std::uint64_t misses = 0;
  std::uint64_t peeks_sent = 0;
  std::uint64_t wildcard_matches = 0;
  std::uint64_t directed_takes = 0;
  std::uint64_t directed_take_misses = 0;
  std::uint64_t misroute_refreshes = 0;
  Reservoir write_sim_us;
  Reservoir take_sim_us;
  // Host-time totals over every traced episode.
  std::int64_t run_ns = 0;
  std::uint64_t host_events = 0;
  Reservoir oracle_ms;
};

struct EpisodeRun {
  Outcome outcome;
  double setup_s = 0.0;
  double drain_s = 0.0;
  double oracle_ms = 0.0;
};

EpisodeRun run_episode(const EpisodeSpec& spec, Reservoir& op_ns,
                       EpisodeTrace* trace, LayerTotals* layers,
                       bool count_layers) {
  EpisodeRun run;
  const std::int64_t setup0 = host_ns();
  sim::Simulator sim;
  fed::ClusterConfig config;
  config.nodes = kNodes;
  fed::SimCluster cluster(sim, config);
  std::vector<std::unique_ptr<fed::FederatedClient>> routers;
  for (int i = 0; i < kProducers + kConsumers; ++i) {
    routers.push_back(cluster.make_router());
  }
  run.setup_s = (host_ns() - setup0) / 1e9;

  Episode e;
  e.spec = &spec;
  e.trace = trace;
  e.op_ns = &op_ns;
  for (int p = 0; p < kProducers; ++p) sim::spawn(produce(*routers[p], p, e));
  for (int c = 0; c < kConsumers; ++c) {
    sim::spawn(consume(*routers[kProducers + c], e));
  }
  const std::int64_t drain0 = host_ns();
  sim.run_until(kDeadline);
  const std::int64_t drain_ns = host_ns() - drain0;
  run.drain_s = drain_ns / 1e9;

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  const std::vector<space::Tuple> final_state = cluster.merged_final_state();
  const std::int64_t oracle0 = host_ns();
  const space::ReplayReport oracle =
      space::replay_against_oracle(merged, config.space, final_state);
  run.oracle_ms = (host_ns() - oracle0) / 1e6;

  Outcome& o = run.outcome;
  o.acked = e.acked;
  o.consumed = e.consumed;
  o.duplicates = e.duplicates;
  o.residual = final_state.size();
  o.drained = e.done;
  o.oracle_equivalent = oracle.equivalent;
  o.makespan_ns = (e.done ? e.makespan : sim.now()).count_ns();
  o.events = sim.executed_events();
  o.drain_digest = e.drain_order.hex();

  if (layers != nullptr) {
    layers->run_ns += drain_ns;
    layers->host_events += sim.executed_events();
    layers->oracle_ms.add(run.oracle_ms);
  }
  if (layers != nullptr && count_layers) {
    LayerTotals& t = *layers;
    t.jobs += kJobs;
    t.events += sim.executed_events();
    t.peak_pending = std::max<std::uint64_t>(t.peak_pending,
                                             sim.peak_pending_events());
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      const mw::NodeCore::Stats& s = cluster.core(i).stats();
      t.bytes_encoded += s.bytes_encoded;
      t.server_requests += s.requests;
      t.overload_rejects += s.overload_rejects;
      const space::SpaceEngine::Stats& engine =
          cluster.core(i).space().stats();
      t.scan_steps += engine.scan_steps;
      t.matches += engine.reads + engine.takes;
      t.misses += engine.misses;
      const mw::SpaceClient::Stats& c =
          cluster.channel(cluster.node_id(i)).stats();
      t.bytes_encoded += c.bytes_encoded;
      t.retransmissions += c.retransmissions;
    }
    for (const auto& router : routers) {
      const fed::FederatedClient::Stats& r = router->stats();
      t.peeks_sent += r.peeks_sent;
      t.wildcard_matches += r.wildcard_matches;
      t.directed_takes += r.directed_takes;
      t.directed_take_misses += r.directed_take_misses;
      t.misroute_refreshes += r.misroute_refreshes;
    }
  }
  return run;
}

/// First outcome per episode spec, run counts and repeat mismatches.
struct Ledger {
  struct Entry {
    bool seen = false;
    Outcome first;
    std::uint64_t runs = 0;
    std::uint64_t mismatches = 0;
  };
  std::vector<Entry> entries = std::vector<Entry>(kEpisodes);

  void record(std::size_t index, const Outcome& outcome, Report& report) {
    Entry& entry = entries[index];
    if (!entry.seen) {
      entry.seen = true;
      entry.first = outcome;
    }
    ++entry.runs;
    const std::string name = "episode " + std::to_string(index);
    if (!(outcome == entry.first)) {
      ++entry.mismatches;
      report.fail(name + " differs from its first run", kJobs);
    } else if (!outcome.ok()) {
      report.fail(name + ": acked " + std::to_string(outcome.acked) +
                      ", consumed " + std::to_string(outcome.consumed) +
                      ", residual " + std::to_string(outcome.residual) +
                      (outcome.oracle_equivalent ? "" : ", oracle diverged"),
                  kJobs);
    }
  }

  obs::JsonValue facts() const {
    obs::JsonValue array = obs::JsonValue::array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      if (!e.seen) continue;
      obs::JsonValue o = obs::JsonValue::object();
      o.set("index", static_cast<std::uint64_t>(i));
      o.set("jobs", static_cast<std::uint64_t>(kJobs));
      o.set("acked", e.first.acked);
      o.set("consumed", e.first.consumed);
      o.set("duplicates", e.first.duplicates);
      o.set("residual", e.first.residual);
      o.set("drained", e.first.drained);
      o.set("oracle_equivalent", e.first.oracle_equivalent);
      o.set("makespan_s", e.first.makespan_ns / 1e9);
      o.set("drain_digest", e.first.drain_digest);
      o.set("runs", e.runs);
      o.set("mismatches", e.mismatches);
      array.push_back(std::move(o));
    }
    return array;
  }
};

obs::JsonValue layer_metrics(const LayerTotals& t, double overhead_pct) {
  const double jobs = static_cast<double>(t.jobs);
  obs::JsonValue m = obs::JsonValue::object();
  m.set("sim.events_per_op", per(t.events, jobs));
  m.set("sim.peak_pending", static_cast<double>(t.peak_pending));
  m.set("sim.host_ns_per_event", per(t.run_ns, t.host_events));
  m.set("mw.bytes_encoded_per_op", per(t.bytes_encoded, jobs));
  m.set("mw.retransmissions", per(t.retransmissions, jobs));
  m.set("mw.server.requests", per(t.server_requests, jobs));
  m.set("mw.server.overload_rejects", per(t.overload_rejects, jobs));
  m.set("space.scan_steps_per_match", per(t.scan_steps, t.matches));
  m.set("space.misses", per(t.misses, jobs));
  m.set("space.oracle_replay_ms", quantile(t.oracle_ms, 0.5));
  m.set("fed.named_write_sim_us_p50", quantile(t.write_sim_us, 0.50));
  m.set("fed.named_write_sim_us_p99", quantile(t.write_sim_us, 0.99));
  m.set("fed.wildcard_take_sim_us_p50", quantile(t.take_sim_us, 0.50));
  m.set("fed.wildcard_take_sim_us_p99", quantile(t.take_sim_us, 0.99));
  m.set("fed.peeks_per_take", per(t.peeks_sent, t.wildcard_matches));
  m.set("fed.directed_take_hit_ratio",
        per(t.directed_takes - t.directed_take_misses, t.directed_takes));
  m.set("fed.misroute_refreshes", per(t.misroute_refreshes, jobs));
  m.set("trace_overhead_pct", overhead_pct);
  return m;
}

}  // namespace

Report run_fed_drain(const Options& options) {
  Report report;
  report.client_threads = 1;
  Digest digest;
  const std::vector<EpisodeSpec> episodes = make_episodes(options.seed, digest);
  report.input_digest = digest.hex();
  Ledger ledger;
  // One move per episode, so every set-up sample starts on a CPU it just
  // moved to and the samples stay alike.
  CpuRotation rotation(0.0);

  // Warm-up episode: fills allocator pools and caches; not an op.
  Reservoir warm_up_ns;
  run_episode(episodes.front(), warm_up_ns, nullptr, nullptr, false);

  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  report.op_ns.emplace_back(kLatencySample, options.seed);
  const std::int64_t phase_start = host_ns();
  std::size_t next = 0;
  while (next == 0 || (host_ns() - phase_start) / 1e9 < untraced_budget ||
         (options.trace && next % episodes.size() != 0)) {
    const std::size_t index = next++ % episodes.size();
    rotation.tick();
    const EpisodeRun run = run_episode(episodes[index], report.op_ns.front(),
                                       nullptr, nullptr, false);
    report.setup_s.push_back(run.setup_s);
    report.seconds += run.drain_s;
    report.ops += kJobs;
    report.attempted += kJobs;
    ledger.record(index, run.outcome, report);
    if (next == episodes.size()) report.peak_rss_mb = peak_rss_mb();
  }

  if (options.trace) {
    SpanLog spans;
    LayerTotals layers;
    Reservoir traced_ops(std::size_t{1} << 18, options.seed);
    double traced_s = 0.0;
    const std::int64_t traced_start = host_ns();
    std::uint64_t passes = 0;
    do {
      for (std::size_t index = 0; index < episodes.size(); ++index) {
        EpisodeTrace trace;
        trace.log = &spans;
        trace.op_base = report.attempted;
        if (passes == 0) {
          trace.write_sim_us = &layers.write_sim_us;
          trace.take_sim_us = &layers.take_sim_us;
        }
        rotation.tick();
        const EpisodeRun run = run_episode(episodes[index], traced_ops,
                                           &trace, &layers, passes == 0);
        traced_s += run.drain_s;
        report.attempted += kJobs;
        ledger.record(index, run.outcome, report);
      }
      ++passes;
    } while ((host_ns() - traced_start) / 1e9 < options.seconds / 2);
    const double untraced_ops_per_s = per(report.ops, report.seconds);
    const double traced_ops_per_s = per(traced_ops.count(), traced_s);
    report.layers = layer_metrics(
        layers, (1.0 - per(traced_ops_per_s, untraced_ops_per_s)) * 100.0);
    write_spans(options.spans_out, {&spans});
  }

  report.facts.set("episodes", ledger.facts());
  return report;
}

}  // namespace tb::perfbench

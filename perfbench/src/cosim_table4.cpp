// Workload cosim_table4: the paper's Table-4 exchange, one cell per op.
//
// The input list is the nine Table-4 cells (CBR {0, 0.3, 1.0} B/s x
// {1-wire, 2-wire A, 2x1-wire B}, 480-byte entry) followed by seeded extra
// cells: eight rounds, each holding every (bus variant, entry payload) pair
// once with a seeded CBR rate, in seeded order. Stratifying the extras keeps
// the op mix, and so the latency distribution, the same from seed to seed;
// the seed moves only rates and order. The run cycles through the list.
//
// Untraced runs call the public entry points cosim::run_impact and
// cosim::run_impact_mode_b. Traced runs drive the same two rigs themselves,
// so the benchmark can subscribe to the bus's cycle signal, put spans around
// SpaceClient::write/take and read every layer's Stats: mode-A cells run on
// cosim::WireScenario exactly as run_impact builds it, and mode-B cells on a
// copy of cosim's mode-B rig (which has no public builder) that takes a
// timing codec. Each traced cell must reproduce the untraced cell's
// simulated result exactly.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/cosim/impact.hpp"
#include "src/cosim/scenario.hpp"
#include "src/mw/client.hpp"
#include "src/mw/server.hpp"
#include "src/mw/wire_transport.hpp"
#include "src/net/tpwire_channel.hpp"
#include "src/sim/process.hpp"
#include "src/space/space.hpp"
#include "src/wire/bus_model.hpp"
#include "src/wire/master.hpp"
#include "src/wire/multibus.hpp"
#include "src/wire/multibus_relay.hpp"
#include "src/wire/relay.hpp"
#include "src/wire/slave.hpp"

namespace tb::perfbench {

namespace {

enum Variant : int { kOneWire = 0, kTwoWireA = 1, kModeB = 2 };
const char* const kVariantNames[] = {"1-wire", "2-wire (A)", "2x1-wire (B)"};

constexpr std::size_t kPaperPayload = 480;
// Extra-cell entry payloads. 1-wire cells at 1 B/s stay about 20 s inside
// the 160 s lease up to 352 bytes (480 bytes is the paper's Out-of-Time
// cell), so no extra cell is expected to expire.
constexpr std::size_t kExtraPayloads[] = {32, 96, 160, 224, 288, 352};
constexpr int kExtraRounds = 8;
constexpr int kRateSteps = 10;  // CBR rate drawn from {0, 0.1, ..., 1.0} B/s
constexpr int kSetupRepeats = 3;
// Latency sample: larger than the ops a run makes, so it stays exact.
constexpr std::size_t kLatencySample = std::size_t{1} << 16;

struct Cell {
  int variant = kOneWire;
  int rate_tenths = 0;  ///< CBR rate in 0.1 B/s steps
  std::size_t payload = kPaperPayload;
  bool paper = false;

  double rate() const { return rate_tenths / 10.0; }
  std::string key() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "v%d/r%d/p%zu", variant, rate_tenths,
                  payload);
    return buf;
  }
  cosim::ImpactConfig config() const {
    cosim::ImpactConfig config;
    config.cbr_rate_bps = rate();
    config.entry_payload = payload;
    if (variant != kModeB) config.set_wires(variant == kOneWire ? 1 : 2);
    return config;
  }
};

std::vector<Cell> make_cells(std::uint64_t seed, Digest& digest) {
  std::vector<Cell> cells;
  for (int rate_tenths : {0, 3, 10}) {
    for (int variant : {kOneWire, kTwoWireA, kModeB}) {
      Cell cell;
      cell.variant = variant;
      cell.rate_tenths = rate_tenths;
      cell.paper = true;
      cells.push_back(cell);
    }
  }
  InputRng rng(seed ^ 0xC05111ull);
  for (int round = 0; round < kExtraRounds; ++round) {
    std::vector<Cell> block;
    for (int variant : {kOneWire, kTwoWireA, kModeB}) {
      for (std::size_t payload : kExtraPayloads) {
        Cell cell;
        cell.variant = variant;
        cell.payload = payload;
        cell.rate_tenths = static_cast<int>(rng.below(kRateSteps + 1));
        block.push_back(cell);
      }
    }
    for (std::size_t i = block.size(); i > 1; --i) {  // seeded shuffle
      std::swap(block[i - 1], block[rng.below(i)]);
    }
    cells.insert(cells.end(), block.begin(), block.end());
  }
  for (const Cell& cell : cells) digest.add(cell.key());
  return cells;
}

/// The simulated outcome of one cell: what must repeat exactly.
struct Outcome {
  bool completed = false;
  bool out_of_time = false;
  std::int64_t total_ns = 0;
  std::int64_t write_ns = 0;
  std::int64_t take_ns = 0;
  std::uint64_t bus_cycles = 0;
  std::uint64_t cbr_delivered = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const cosim::ImpactResult& r) {
  Outcome o;
  o.completed = r.completed;
  o.out_of_time = r.out_of_time;
  o.total_ns = r.total.count_ns();
  o.write_ns = r.write_latency.count_ns();
  o.take_ns = r.take_latency.count_ns();
  o.bus_cycles = r.bus_cycles;
  o.cbr_delivered = r.cbr_packets_delivered;
  return o;
}

Outcome run_cell(const Cell& cell) {
  const cosim::ImpactConfig config = cell.config();
  return outcome_of(cell.variant == kModeB ? cosim::run_impact_mode_b(config)
                                           : cosim::run_impact(config));
}

/// First outcome per distinct cell plus how often it was run and how often
/// a repeat disagreed — the facts the driver checks.
struct Ledger {
  struct Entry {
    Cell cell;
    Outcome first;
    std::uint64_t runs = 0;
    std::uint64_t mismatches = 0;
  };
  std::map<std::string, Entry> entries;
  std::vector<std::string> order;  ///< first-seen order, for stable output

  /// Records a run; a run that disagrees with the cell's first outcome or
  /// is not a completed, in-time exchange where one is required fails.
  void record(const Cell& cell, const Outcome& outcome, Report& report,
              const char* phase) {
    auto [it, inserted] = entries.try_emplace(cell.key());
    Entry& entry = it->second;
    if (inserted) {
      entry.cell = cell;
      entry.first = outcome;
      order.push_back(cell.key());
    }
    ++entry.runs;
    if (!(outcome == entry.first)) {
      ++entry.mismatches;
      report.fail(std::string(phase) + " cell " + cell.key() +
                  " differs from its first run");
    } else if (!outcome.completed) {
      report.fail("cell " + cell.key() + " did not complete");
    } else if (!cell.paper && outcome.out_of_time) {
      report.fail("extra cell " + cell.key() + " ran Out of Time");
    }
  }

  obs::JsonValue facts() const {
    obs::JsonValue cells = obs::JsonValue::array();
    for (const std::string& key : order) {
      const Entry& e = entries.at(key);
      obs::JsonValue c = obs::JsonValue::object();
      c.set("key", key);
      c.set("paper", e.cell.paper);
      c.set("variant", kVariantNames[e.cell.variant]);
      c.set("cbr_bps", e.cell.rate());
      c.set("payload", static_cast<std::uint64_t>(e.cell.payload));
      c.set("completed", e.first.completed);
      c.set("out_of_time", e.first.out_of_time);
      c.set("total_s", e.first.total_ns / 1e9);
      c.set("write_s", e.first.write_ns / 1e9);
      c.set("take_s", e.first.take_ns / 1e9);
      c.set("bus_cycles", e.first.bus_cycles);
      c.set("runs", e.runs);
      c.set("mismatches", e.mismatches);
      cells.push_back(std::move(c));
    }
    return cells;
  }
};

// --- traced rigs --------------------------------------------------------------

/// Wraps the codec the benchmark hands to the mode-B middleware and times
/// every encode and decode (mw.codec_host_ns_per_msg).
class TimedCodec final : public mw::Codec {
 public:
  explicit TimedCodec(const mw::Codec& inner) : inner_(&inner) {}
  void encode_into(const mw::Message& message,
                   std::vector<std::uint8_t>& out) const override {
    const std::int64_t start = host_ns();
    inner_->encode_into(message, out);
    ns_ += host_ns() - start;
    ++messages_;
  }
  std::optional<mw::Message> decode(
      std::span<const std::uint8_t> bytes) const override {
    const std::int64_t start = host_ns();
    std::optional<mw::Message> message = inner_->decode(bytes);
    ns_ += host_ns() - start;
    ++messages_;
    return message;
  }
  const char* name() const override { return inner_->name(); }

  std::int64_t ns() const { return ns_; }
  std::uint64_t messages() const { return messages_; }

 private:
  const mw::Codec* inner_;
  mutable std::int64_t ns_ = 0;
  mutable std::uint64_t messages_ = 0;
};

/// Deterministic per-layer totals over one pass of the input list.
struct PassTotals {
  std::uint64_t cells = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t cycles = 0;
  std::int64_t busy_ns = 0;
  std::int64_t bus_elapsed_ns = 0;  ///< sim elapsed x bus count
  std::uint64_t crc_errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t master_ops = 0;
  std::uint64_t master_skips = 0;
  std::uint64_t probes = 0;
  std::uint64_t forwarded = 0;
  std::int64_t poll_ns = 0;
  std::int64_t payload_ns = 0;
  std::uint64_t cbr_delivered = 0;
  std::uint64_t bytes_encoded = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t matches = 0;
  std::uint64_t misses = 0;
  Reservoir write_sim_ms;
  Reservoir take_sim_ms;
};

/// Host-time totals over every traced pass.
struct HostTotals {
  std::int64_t run_ns = 0;  ///< inside Simulator::run_until
  std::uint64_t events = 0;
  /// Mode-B cells only, where the codec is timed: host time inside
  /// run_until less the codec's, and the bus cycles it drove.
  std::int64_t wire_run_ns = 0;
  std::uint64_t wire_cycles = 0;
  std::int64_t codec_ns = 0;
  std::uint64_t codec_messages = 0;
  std::uint64_t ops = 0;
  std::int64_t op_ns = 0;
};

/// Span context of the cell being traced.
struct CellTrace {
  SpanLog* log = nullptr;
  std::uint64_t op = 0;
  std::uint64_t root = 0;
  Reservoir* write_sim_ms = nullptr;  ///< null after the first pass
  Reservoir* take_sim_ms = nullptr;
  std::int64_t sim_end_ns = 0;  ///< where the cell's simulation stopped
};

void record_call_span(CellTrace& trace, const char* name, std::int64_t host0,
                      sim::Time sim0, sim::Simulator& sim) {
  Span span;
  span.name = name;
  span.id = trace.log->next_id();
  span.parent = trace.root;
  span.op = trace.op;
  span.host_start_ns = host0;
  span.host_end_ns = host_ns();
  span.sim_start_ns = sim0.count_ns();
  span.sim_end_ns = sim.now().count_ns();
  trace.log->record(span);
}

/// cosim's Table-4 client flow (impact.cpp), with spans around the two
/// SpaceClient calls.
sim::Task<void> traced_client_flow(const cosim::ImpactConfig& config,
                                   sim::Simulator& sim,
                                   mw::SpaceClient& client,
                                   cosim::ImpactResult& result,
                                   CellTrace& trace) {
  const sim::Time start = sim.now();
  std::vector<std::uint8_t> blob(config.entry_payload);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::vector<std::uint8_t> blob_copy = blob;
  std::vector<space::Value> fields;
  fields.emplace_back(std::int64_t{1});
  fields.emplace_back(std::move(blob));
  space::Tuple entry("entry", std::move(fields));

  const std::int64_t write_host0 = host_ns();
  mw::SpaceClient::WriteResult write =
      co_await client.write(std::move(entry), config.lease);
  result.write_latency = sim.now() - start;
  record_call_span(trace, "mw.SpaceClient.write", write_host0, start, sim);
  if (trace.write_sim_ms != nullptr) {
    trace.write_sim_ms->add(result.write_latency.seconds() * 1e3);
  }

  if (config.think_time > sim::Time::zero()) {
    co_await sim::delay(sim, config.think_time);
  }

  const sim::Time take_start = sim.now();
  std::vector<space::FieldPattern> patterns;
  patterns.push_back(space::FieldPattern::exact(space::Value(std::int64_t{1})));
  patterns.push_back(space::FieldPattern::exact(space::Value(blob_copy)));
  space::Template tmpl(std::string("entry"), std::move(patterns));
  const std::int64_t take_host0 = host_ns();
  std::optional<space::Tuple> taken =
      co_await client.take(std::move(tmpl), config.take_timeout);
  result.take_latency = sim.now() - take_start;
  record_call_span(trace, "mw.SpaceClient.take", take_host0, take_start, sim);
  if (trace.take_sim_ms != nullptr) {
    trace.take_sim_ms->add(result.take_latency.seconds() * 1e3);
  }

  result.total = result.write_latency + result.take_latency;
  result.wall_total = sim.now() - start;
  result.out_of_time = !write.ok || write.lease.id == 0 || !taken.has_value();
  result.completed = true;
  sim.stop();
}

/// Splits bus occupancy by decoded TX command: data-register cycles carry
/// payload bytes, every other cycle polls, selects or addresses.
void watch_bus(wire::BusModel& bus, std::int64_t& poll_ns,
               std::int64_t& payload_ns) {
  bus.on_cycle().connect([&poll_ns, &payload_ns](const wire::CycleTrace& c) {
    const std::optional<wire::TxFrame> frame = wire::TxFrame::decode(c.tx_word);
    const bool payload =
        frame && (frame->cmd == wire::Command::kWriteData ||
                  frame->cmd == wire::Command::kReadData);
    (payload ? payload_ns : poll_ns) += (c.end - c.start).count_ns();
  });
}

/// Mode B (two 1-wire buses + cross-bus relay): cosim's mode-B rig
/// (impact.cpp), built in the same order so RNG streams and event order
/// match run_impact_mode_b, with a timing codec handed to the middleware.
struct ModeBRig {
  sim::Simulator sim;
  wire::MultiBusSystem system;
  std::vector<std::unique_ptr<wire::SlaveDevice>> slaves;
  std::unique_ptr<wire::MultiBusRelay> relay;
  TimedCodec codec;
  space::SpaceEngine space;
  mw::WireServerTransport server_transport;
  mw::SpaceServer server;
  mw::WireClientTransport client_transport;
  mw::SpaceClient client;

  ModeBRig(const cosim::ScenarioConfig& scenario, const mw::Codec& inner)
      : sim(scenario.seed),
        system(sim, scenario.link, /*bus_count=*/2, scenario.faults,
               scenario.master),
        slaves(make_slaves(sim, scenario)),
        relay(attach_all(system, slaves, scenario)),
        codec(inner),
        space(sim, scenario.space),
        server_transport(sim, *slaves[2], scenario.transport),
        server(space, server_transport, codec, scenario.server),
        client_transport(sim, *slaves[0], /*server_node=*/3,
                         scenario.transport),
        client(sim, client_transport, codec) {}

  static std::vector<std::unique_ptr<wire::SlaveDevice>> make_slaves(
      sim::Simulator& sim, const cosim::ScenarioConfig& scenario) {
    std::vector<std::unique_ptr<wire::SlaveDevice>> slaves;
    for (std::uint8_t id = 1; id <= 4; ++id) {
      slaves.push_back(
          std::make_unique<wire::SlaveDevice>(sim, id, scenario.link));
    }
    return slaves;
  }

  /// Bus 0 hosts the client side (Slave1 + CBR Slave2), bus 1 the server
  /// side (Slave3 + sink Slave4).
  static std::unique_ptr<wire::MultiBusRelay> attach_all(
      wire::MultiBusSystem& system,
      std::vector<std::unique_ptr<wire::SlaveDevice>>& slaves,
      const cosim::ScenarioConfig& scenario) {
    system.attach(0, *slaves[0]);
    system.attach(0, *slaves[1]);
    system.attach(1, *slaves[2]);
    system.attach(1, *slaves[3]);
    return std::make_unique<wire::MultiBusRelay>(
        system, std::vector<std::uint8_t>{1, 2, 3, 4}, scenario.relay);
  }
};

void add_bus(PassTotals& t, wire::BusModel& bus, wire::Master& master) {
  const wire::BusModel::Stats& s = bus.stats();
  t.cycles += s.cycles;
  t.busy_ns += s.busy_time.count_ns();
  t.crc_errors += s.crc_errors;
  t.timeouts += s.timeouts;
  const wire::Master::Stats& m = master.stats();
  t.frames_sent += m.frames_sent;
  t.retries += m.retries;
  t.master_ops += m.operations;
  t.master_skips += m.select_skips + m.address_skips;
}

void add_middleware(PassTotals& t, const mw::SpaceClient& client,
                    const mw::SpaceServer& server,
                    const space::SpaceEngine& space) {
  const mw::SpaceClient::Stats& c = client.stats();
  const mw::NodeCore::Stats& s = server.stats();
  t.bytes_encoded += c.bytes_encoded + s.bytes_encoded;
  t.retransmissions += c.retransmissions;
  t.server_requests += s.requests;
  t.overload_rejects += s.overload_rejects;
  const space::SpaceEngine::Stats& e = space.stats();
  t.scan_steps += e.scan_steps;
  t.matches += e.reads + e.takes;
  t.misses += e.misses;
}

void add_relay(PassTotals& t, const wire::MasterRelay::Stats& relay) {
  t.probes += relay.probes;
  t.forwarded += relay.segments_forwarded;
}

/// Runs one cell on its traced rig with spans and layer counters. `pass` is
/// null after the first traced pass (only host totals accumulate then).
Outcome run_traced_cell(const Cell& cell, CellTrace& trace, PassTotals* pass,
                        HostTotals& host) {
  const cosim::ImpactConfig config = cell.config();
  cosim::ImpactResult result;
  std::int64_t poll_ns = 0;
  std::int64_t payload_ns = 0;
  std::int64_t run_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;

  // run_impact's workload: CBR from Slave2 to Slave4 through the relay, the
  // client flow on Slave1, the clock run to the cell's limit.
  auto drive = [&](sim::Simulator& sim, mw::SpaceClient& client,
                   wire::SlaveDevice& cbr_slave, std::uint8_t cbr_dst,
                   wire::SlaveDevice& sink_slave, auto start_relay) {
    net::CbrParams params;
    params.rate_bytes_per_sec = config.cbr_rate_bps;
    params.packet_size = config.cbr_packet_size;
    net::WireCbrSource cbr(sim, cbr_slave, cbr_dst, params);
    net::WireSink sink(sim, sink_slave);
    start_relay();
    if (config.cbr_rate_bps > 0.0) cbr.start();
    sim::spawn(traced_client_flow(config, sim, client, result, trace));
    const std::int64_t host0 = host_ns();
    sim.run_until(config.max_sim_time);
    run_ns = host_ns() - host0;
    trace.sim_end_ns = sim.now().count_ns();
    events = sim.executed_events();
    peak_pending = sim.peak_pending_events();
    result.cbr_packets_delivered = sink.segments_received();
  };

  if (cell.variant == kModeB) {
    const mw::XmlCodec xml;  // ScenarioConfig's default codec
    ModeBRig rig(config.scenario, xml);
    for (int b = 0; b < 2; ++b) watch_bus(rig.system.bus(b), poll_ns, payload_ns);
    drive(rig.sim, rig.client, *rig.slaves[1], 4, *rig.slaves[3],
          [&rig] { rig.relay->start(); });
    rig.relay->stop();
    result.bus_cycles =
        rig.system.bus(0).stats().cycles + rig.system.bus(1).stats().cycles;
    host.wire_run_ns += run_ns - rig.codec.ns();
    host.wire_cycles += result.bus_cycles;
    host.codec_ns += rig.codec.ns();
    host.codec_messages += rig.codec.messages();
    if (pass != nullptr) {
      for (int b = 0; b < 2; ++b) {
        add_bus(*pass, rig.system.bus(b), rig.system.master(b));
      }
      pass->bus_elapsed_ns += 2 * rig.sim.now().count_ns();
      add_relay(*pass, rig.relay->stats());
      add_middleware(*pass, rig.client, rig.server, rig.space);
    }
  } else {
    cosim::WireScenario scenario(config.scenario);
    mw::SpaceClient& client = scenario.add_client(/*slave_index=*/0);
    watch_bus(scenario.bus(), poll_ns, payload_ns);
    drive(scenario.sim(), client, scenario.slave(1), scenario.node_id(3),
          scenario.slave(3), [&scenario] { scenario.start(); });
    result.bus_cycles = scenario.bus().stats().cycles;
    if (pass != nullptr) {
      add_bus(*pass, scenario.bus(), scenario.master());
      pass->bus_elapsed_ns += scenario.sim().now().count_ns();
      add_relay(*pass, scenario.relay().stats());
      add_middleware(*pass, client, scenario.server(), scenario.space());
    }
  }

  host.run_ns += run_ns;
  host.events += events;
  if (pass != nullptr) {
    ++pass->cells;
    pass->events += events;
    pass->peak_pending = std::max<std::uint64_t>(pass->peak_pending, peak_pending);
    pass->poll_ns += poll_ns;
    pass->payload_ns += payload_ns;
    pass->cbr_delivered += result.cbr_packets_delivered;
  }
  return outcome_of(result);
}

obs::JsonValue layer_metrics(const PassTotals& p, const HostTotals& h,
                             double trace_overhead_pct) {
  const double cells = static_cast<double>(p.cells);
  obs::JsonValue m = obs::JsonValue::object();
  m.set("sim.events_per_op", per(p.events, cells));
  m.set("sim.peak_pending", static_cast<double>(p.peak_pending));
  m.set("sim.host_ns_per_event", per(h.run_ns, h.events));
  m.set("wire.cycles_per_op", per(p.cycles, cells));
  m.set("wire.host_ns_per_cycle", per(h.wire_run_ns, h.wire_cycles));
  m.set("wire.busy_sim_s", per(p.busy_ns / 1e9, cells));
  m.set("wire.utilization", per(p.busy_ns, p.bus_elapsed_ns));
  m.set("wire.crc_errors", per(p.crc_errors, cells));
  m.set("wire.timeouts", per(p.timeouts, cells));
  m.set("wire.master.frames_sent", per(p.frames_sent, cells));
  m.set("wire.master.retries", per(p.retries, cells));
  m.set("wire.master.skip_ratio", per(p.master_skips, p.master_ops));
  m.set("wire.relay.probes", per(p.probes, cells));
  m.set("wire.relay.useful_probe_ratio", per(p.forwarded, p.probes));
  m.set("wire.sim_s.poll", per(p.poll_ns / 1e9, cells));
  m.set("wire.sim_s.payload", per(p.payload_ns / 1e9, cells));
  m.set("net.cbr_delivered", per(p.cbr_delivered, cells));
  m.set("mw.rpc_sim_ms.write", quantile(p.write_sim_ms, 0.5));
  m.set("mw.rpc_sim_ms.take", quantile(p.take_sim_ms, 0.5));
  m.set("mw.bytes_encoded_per_op", per(p.bytes_encoded, cells));
  m.set("mw.retransmissions", per(p.retransmissions, cells));
  m.set("mw.server.requests", per(p.server_requests, cells));
  m.set("mw.server.overload_rejects", per(p.overload_rejects, cells));
  m.set("mw.codec_host_ns_per_msg", per(h.codec_ns, h.codec_messages));
  m.set("space.scan_steps_per_match", per(p.scan_steps, p.matches));
  m.set("space.misses", per(p.misses, cells));
  m.set("trace_overhead_pct", trace_overhead_pct);
  return m;
}

}  // namespace

Report run_cosim_table4(const Options& options) {
  Report report;
  Digest digest;
  const std::vector<Cell> cells = make_cells(options.seed, digest);
  report.input_digest = digest.hex();
  Ledger ledger;
  CpuRotation rotation;

  // Set-up: the untimed warm-up cell (the first Table-4 cell). It runs
  // kSetupRepeats times before timing, which warms caches and allocators,
  // and once more after every untraced pass, so the median set-up time
  // samples the whole run rather than its first instant.
  auto warm_up = [&] {
    rotation.tick();
    const std::int64_t start = host_ns();
    run_cell(cells.front());
    report.setup_s.push_back((host_ns() - start) / 1e9);
  };
  for (int i = 0; i < kSetupRepeats; ++i) warm_up();

  // Untraced runs measure for the whole budget; traced runs split it between
  // an untraced and a traced phase of whole passes over the input list.
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  report.op_ns.emplace_back(kLatencySample, options.seed);
  Reservoir& op_ns = report.op_ns.front();
  const std::int64_t phase_start = host_ns();
  std::size_t next = 0;
  while (true) {
    const double elapsed = (host_ns() - phase_start) / 1e9;
    const bool pass_boundary = next % cells.size() == 0;
    if (elapsed >= untraced_budget && (!options.trace || pass_boundary) &&
        next > 0) {
      break;
    }
    const Cell& cell = cells[next++ % cells.size()];
    rotation.tick();
    const std::int64_t start = host_ns();
    const Outcome outcome = run_cell(cell);
    const std::int64_t took = host_ns() - start;
    op_ns.add(static_cast<double>(took));
    report.seconds += took / 1e9;
    ++report.ops;
    ++report.attempted;
    ledger.record(cell, outcome, report, "untraced");
    if (next % cells.size() == 0) warm_up();
    if (next == cells.size()) report.peak_rss_mb = peak_rss_mb();
  }

  if (options.trace) {
    SpanLog spans;
    PassTotals first_pass;
    HostTotals host;
    const std::int64_t traced_start = host_ns();
    std::uint64_t passes = 0;
    do {
      for (const Cell& cell : cells) {
        PassTotals* pass = passes == 0 ? &first_pass : nullptr;
        CellTrace trace;
        trace.log = &spans;
        trace.op = report.attempted + 1;
        trace.root = spans.next_id();
        trace.write_sim_ms = pass ? &first_pass.write_sim_ms : nullptr;
        trace.take_sim_ms = pass ? &first_pass.take_sim_ms : nullptr;
        rotation.tick();
        const std::int64_t start = host_ns();
        const Outcome outcome =
            run_traced_cell(cell, trace, pass, host);
        const std::int64_t end = host_ns();
        Span root;
        root.name = "cosim.cell";
        root.id = trace.root;
        root.op = trace.op;
        root.host_start_ns = start;
        root.host_end_ns = end;
        root.sim_start_ns = 0;
        root.sim_end_ns = trace.sim_end_ns;
        spans.record(root);
        host.op_ns += end - start;
        ++host.ops;
        ++report.attempted;
        ledger.record(cell, outcome, report, "traced");
      }
      ++passes;
    } while ((host_ns() - traced_start) / 1e9 < options.seconds / 2);

    const double untraced_ops_per_s = per(report.ops, report.seconds);
    const double traced_ops_per_s = per(host.ops, host.op_ns / 1e9);
    report.layers = layer_metrics(
        first_pass, host,
        (1.0 - per(traced_ops_per_s, untraced_ops_per_s)) * 100.0);
    write_spans(options.spans_out, {&spans});
  }

  report.facts.set("cells", ledger.facts());
  report.facts.set("list_length", static_cast<std::uint64_t>(cells.size()));
  return report;
}

}  // namespace tb::perfbench

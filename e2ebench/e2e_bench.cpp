// End-to-end Scenario benchmark.
//
// Runs whole MapReduce jobs through exp::Scenario, the public API every
// paper bench uses, and reports what a user of the simulator sees: host wall
// time to simulate a workload, Scenario set-up time, peak memory and the
// simulated job completion time. With --trace 1 it alternates untraced reps
// with traced ones, which step the event queue, time every event, and charge
// each event to one layer by which layer counters it advanced (see
// classify()).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Single process, single thread, closed loop: the workload's scenarios run
// one after another, and the whole set repeats until S seconds have passed.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it are a human-readable report. The exit status
// is non-zero when any correctness or observation-identity check fails.
// README.md in this directory explains the workloads and metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/scenario.hpp"
#include "net/routing.hpp"
#include "workloads/hibench.hpp"

namespace {

using namespace pythia;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

/// One link flap: the cable carrying `link` goes down at `down` and comes
/// back at `up` (both directions; the controller handles the duplex peer).
struct Flap {
  util::SimTime down;
  util::SimTime up;
  net::LinkId link;
};

/// One scenario run: a config, the job it runs, and the benchmark's own
/// fault schedule.
struct Cell {
  std::string label;
  exp::ScenarioConfig cfg;
  hadoop::JobSpec job;
  std::vector<Flap> flaps;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
};

/// The paper's oversubscription point the workloads run at (1:20).
constexpr double kOversubscription = 20.0;

/// First scenario seed of a run: consecutive benchmark seeds never share a
/// scenario seed, and seed 0 gives the paper's seeds 1-3.
std::uint64_t first_scenario_seed(std::uint64_t seed) { return seed * 3 + 1; }

exp::ScenarioConfig leaf_spine_config(std::size_t racks, std::uint64_t seed,
                                      exp::SchedulerKind scheduler) {
  exp::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.scheduler = scheduler;
  cfg.topology_kind = exp::TopologyKind::kLeafSpine;
  cfg.leaf_spine =
      net::LeafSpineConfig{.racks = racks, .servers_per_rack = 8, .spines = 4};
  cfg.controller.k_paths = 4;
  cfg.background.oversubscription = kOversubscription;
  return cfg;
}

/// Rack uplinks (ToR -> spine) of a leaf-spine topology, grouped by rack,
/// each rack's in link-id order.
std::vector<std::vector<net::LinkId>> rack_uplinks(const net::Topology& topo) {
  std::vector<std::vector<net::LinkId>> out;
  for (const net::Link& l : topo.links()) {
    const net::Node& a = topo.node(l.src);
    const net::Node& b = topo.node(l.dst);
    if (a.kind == net::NodeKind::kSwitch && a.rack >= 0 &&
        b.kind == net::NodeKind::kSwitch && b.rack < 0) {
      const auto rack = static_cast<std::size_t>(a.rack);
      if (out.size() <= rack) out.resize(rack + 1);
      out[rack].push_back(l.id);
    }
  }
  return out;
}

/// Seeded flap schedule over the Nutch shuffle (reducers launch at ~13 s and
/// finish fetching by ~24 s of simulated time): one uplink down at a time
/// for 0.3-0.7 s, 0.1-0.4 s apart, so a rack always keeps three of its four
/// spines and no host pair is ever partitioned. 14 flaps = 28 rebuilds.
/// The seed rotates which racks and spines flap, but every flap hits a
/// different rack, so the routing work is nearly the same for every seed.
std::vector<Flap> flap_schedule(const net::Topology& topo,
                                std::uint64_t seed) {
  constexpr std::size_t kFlaps = 14;
  const auto uplinks = rack_uplinks(topo);
  std::mt19937_64 rng(seed);
  const std::size_t rack0 = rng() % uplinks.size();
  const std::size_t spine0 = rng() % uplinks.front().size();
  // An odd stride visits distinct racks when the rack count is a power of
  // two (16 here).
  constexpr std::size_t kRackStride = 5;
  std::vector<Flap> flaps;
  util::SimTime t = util::SimTime::from_seconds(13.0);
  for (std::size_t i = 0; i < kFlaps; ++i) {
    const auto& rack = uplinks[(rack0 + i * kRackStride) % uplinks.size()];
    Flap f;
    f.link = rack[(spine0 + i) % rack.size()];
    f.down = t;
    f.up = t + util::Duration::millis(300 + static_cast<int>(rng() % 400));
    flaps.push_back(f);
    t = f.up + util::Duration::millis(100 + static_cast<int>(rng() % 300));
  }
  return flaps;
}

/// Builds the workload's scenario list from the benchmark seed. Returns an
/// empty workload for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  const std::uint64_t s0 = first_scenario_seed(seed);
  if (name == "paper-sort") {
    // Fig. 4 cell: HiBench Sort 240 GB / 20 reducers, two-rack testbed.
    for (std::uint64_t s = s0; s < s0 + 3; ++s) {
      for (const auto arm :
           {exp::SchedulerKind::kEcmp, exp::SchedulerKind::kPythia}) {
        Cell c;
        c.cfg.seed = s;
        c.cfg.scheduler = arm;
        c.cfg.background.oversubscription = kOversubscription;
        c.job = workloads::paper_sort(20);
        c.label = exp::scheduler_name(arm) + " seed " + std::to_string(s);
        w.cells.push_back(std::move(c));
      }
    }
  } else if (name == "nutch-leafspine-flap") {
    Cell c;
    c.cfg = leaf_spine_config(16, s0, exp::SchedulerKind::kPythia);
    c.job = workloads::nutch_indexing(5'000'000, 64);
    c.flaps = flap_schedule(net::make_leaf_spine(c.cfg.leaf_spine), s0);
    c.label = "Pythia seed " + std::to_string(s0);
    w.cells.push_back(std::move(c));
  } else if (name == "sort-leafspine") {
    Cell c;
    c.cfg = leaf_spine_config(8, s0, exp::SchedulerKind::kEcmp);
    c.job = workloads::paper_sort(64);
    c.label = "ECMP seed " + std::to_string(s0);
    w.cells.push_back(std::move(c));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Counters read from the layers' public accessors after a run. Every one is
// deterministic: equal seeds must give equal arrays, traced or not.

enum Counter : std::size_t {
  kJctNs,
  kEvents,
  kFills,
  kFullFills,
  kLinksTouched,
  kFlowsTouched,
  kFlowsStarted,
  kFlowsCompleted,
  kBytesDelivered,
  kPairsMaterialized,
  kPairsInvalidated,
  kPairsReused,
  kPairsRecomputed,
  kRoutingRebuilds,
  kRulesInstalled,
  kFlowMods,
  kInstallAttempts,
  kInstallFailures,
  kStatsRefreshes,
  kTopologyRebuilds,
  kIntentsEmitted,
  kIntents,
  kBatches,
  kAllocations,
  kWatchdogFallbacks,
  kMaps,
  kReducers,
  kFetches,
  kRemoteBytes,
  kCounterCount,
};

constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "jct_ns",
    "sim.events",
    "fabric.fills",
    "fabric.full_fills",
    "fabric.links_touched",
    "fabric.flows_touched",
    "fabric.flows_started",
    "fabric.flows_completed",
    "fabric.bytes_delivered",
    "routing.materializations",
    "routing.pairs_invalidated",
    "routing.pairs_reused",
    "routing.pairs_recomputed",
    "routing.rebuilds",
    "sdn.rules_installed",
    "sdn.flow_mods",
    "sdn.install_attempts",
    "sdn.install_failures",
    "sdn.stats_refreshes",
    "sdn.topology_rebuilds",
    "core.intents_emitted",
    "core.intents",
    "core.batches",
    "core.allocations",
    "core.watchdog_fallbacks",
    "hadoop.maps",
    "hadoop.reducers",
    "hadoop.fetches",
    "hadoop.remote_bytes",
};

using Counters = std::array<std::uint64_t, kCounterCount>;

std::uint64_t u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }

Counters read_counters(exp::Scenario& sc, const hadoop::JobResult& r) {
  Counters c{};
  const net::FabricCounters& fc = sc.fabric().counters();
  const net::RoutingCounters& rc = sc.controller().routing().counters();
  const sdn::Controller& ctl = sc.controller();
  c[kJctNs] = u64(r.completion_time().ns());
  c[kEvents] = sc.simulation().queue().events_fired();
  c[kFills] = fc.recomputes;
  c[kFullFills] = fc.full_fills;
  c[kLinksTouched] = fc.links_touched;
  c[kFlowsTouched] = fc.flows_touched;
  c[kFlowsStarted] = sc.fabric().flows_started();
  c[kFlowsCompleted] = sc.fabric().flows_completed();
  c[kBytesDelivered] = u64(sc.fabric().bytes_delivered().count());
  c[kPairsMaterialized] = rc.lazy_materializations;
  c[kPairsInvalidated] = rc.pairs_invalidated;
  c[kPairsReused] = rc.pairs_reused;
  c[kPairsRecomputed] = rc.pairs_recomputed;
  c[kRoutingRebuilds] = rc.full_rebuilds + rc.incremental_rebuilds;
  c[kRulesInstalled] = ctl.rules_installed();
  c[kFlowMods] = ctl.flow_mod_messages();
  c[kInstallAttempts] = ctl.install_attempts();
  c[kInstallFailures] = ctl.install_failures();
  c[kStatsRefreshes] = ctl.stats_refreshes();
  c[kTopologyRebuilds] = ctl.topology_rebuilds();
  if (const core::PythiaSystem* p = sc.pythia()) {
    c[kIntentsEmitted] = p->instrumentation().intents_emitted();
    c[kIntents] = p->collector().intents_received();
    c[kBatches] = p->collector().batches_flushed();
    c[kAllocations] = p->allocator().allocations();
    c[kWatchdogFallbacks] = p->watchdog().fallbacks();
  }
  c[kMaps] = r.maps.size();
  c[kReducers] = r.reducers.size();
  c[kFetches] = r.fetches.size();
  c[kRemoteBytes] = u64(r.remote_shuffle_bytes().count());
  return c;
}

/// Share of the job's makespan with at least one reducer shuffling: first
/// reducer launch to last shuffle completion (the paper's introduction
/// quantity; same definition as bench/intro_shuffle_fraction).
double shuffle_share(const hadoop::JobResult& r) {
  util::SimTime first = util::SimTime::max();
  for (const auto& red : r.reducers) first = std::min(first, red.started);
  const double total = r.completion_time().seconds();
  return total > 0.0 ? (r.shuffle_phase_end() - first).seconds() / total : 0.0;
}

/// Correctness gate of one finished run; empty when every check holds.
std::string check_run(const Cell& cell, exp::Scenario& sc,
                      const hadoop::JobResult& r) {
  const std::size_t maps = cell.job.num_maps();
  const std::size_t reducers = cell.job.num_reducers;
  if (sc.engine().jobs_completed() != 1 || r.completed <= r.submitted) {
    return "job did not complete";
  }
  if (r.maps.size() != maps) {
    return "map count " + std::to_string(r.maps.size()) + " != JobSpec " +
           std::to_string(maps);
  }
  if (r.reducers.size() != reducers) {
    return "reducer count " + std::to_string(r.reducers.size()) +
           " != JobSpec " + std::to_string(reducers);
  }
  if (r.fetches.size() != maps * reducers) {
    return "fetch count " + std::to_string(r.fetches.size()) +
           " != maps x reducers " + std::to_string(maps * reducers);
  }
  if (sc.fabric().flows_started() != sc.fabric().flows_completed()) {
    return "fabric flows started " +
           std::to_string(sc.fabric().flows_started()) + " != completed " +
           std::to_string(sc.fabric().flows_completed());
  }
  if (sc.fabric().bytes_delivered().count() !=
      r.remote_shuffle_bytes().count()) {
    return "fabric bytes delivered " +
           std::to_string(sc.fabric().bytes_delivered().count()) +
           " != remote shuffle bytes " +
           std::to_string(r.remote_shuffle_bytes().count());
  }
  return {};
}

// ---------------------------------------------------------------------------
// Tracing from outside: per-event wall time, charged to one layer.

enum Layer : std::size_t { kRouting, kFabric, kSdn, kCore, kHadoop, kLayers };

constexpr std::array<const char*, kLayers> kLayerNames = {
    "net.routing", "net.fabric", "sdn", "core", "hadoop"};

/// Reads the counters that decide an event's layer. The order of read()'s
/// fields is the charging precedence: an event that advanced several is
/// charged to the first. Holds references into the Scenario it was built
/// from, so it must not outlive it.
class LayerProbe {
 public:
  explicit LayerProbe(exp::Scenario& sc)
      : routing_(sc.controller().routing().counters()),
        fabric_(sc.fabric().counters()),
        controller_(sc.controller()),
        pythia_(sc.pythia()) {}

  using Reading = std::array<std::uint64_t, kHadoop>;

  [[nodiscard]] Reading read() const {
    Reading r{};
    r[kRouting] = routing_.lazy_materializations;
    r[kFabric] = fabric_.recomputes;
    r[kSdn] = controller_.install_attempts() +
              controller_.flow_mod_messages() + controller_.rules_installed();
    if (pythia_ != nullptr) {
      r[kCore] = pythia_->instrumentation().intents_emitted() +
                 pythia_->collector().intents_received() +
                 pythia_->collector().batches_flushed() +
                 pythia_->allocator().allocations();
    }
    return r;
  }

  /// First layer, in precedence order, whose counter moved; hadoop if none.
  static Layer classify(const Reading& before, const Reading& after) {
    for (std::size_t i = 0; i < kHadoop; ++i) {
      if (after[i] != before[i]) return static_cast<Layer>(i);
    }
    return kHadoop;
  }

 private:
  const net::RoutingCounters& routing_;
  const net::FabricCounters& fabric_;
  const sdn::Controller& controller_;
  const core::PythiaSystem* pythia_;
};

/// What one traced pass over a workload's cells recorded.
struct Trace {
  std::array<std::int64_t, kLayers> layer_ns{};
  std::vector<std::int64_t> event_ns;
  std::size_t heap_peak = 0;
  std::size_t cancelled_peak = 0;
};

/// Runs the submitted job's events one at a time, timing each.
void run_traced(exp::Scenario& sc, Trace& trace) {
  sim::EventQueue& q = sc.simulation().queue();
  const LayerProbe probe(sc);
  LayerProbe::Reading before = probe.read();
  for (;;) {
    const auto t0 = Clock::now();
    const bool fired = q.run_one();
    const auto t1 = Clock::now();
    if (!fired) break;
    const LayerProbe::Reading after = probe.read();
    const std::int64_t ns = ns_between(t0, t1);
    trace.layer_ns[LayerProbe::classify(before, after)] += ns;
    trace.event_ns.push_back(ns);
    trace.heap_peak = std::max(trace.heap_peak, q.heap_size());
    trace.cancelled_peak =
        std::max(trace.cancelled_peak, q.cancelled_in_heap());
    before = after;
  }
}

// ---------------------------------------------------------------------------
// Running cells and sets

struct CellRun {
  std::string error;  // empty = every check passed
  Counters counters{};
  double wall_s = 0.0;
  double link_change_s = 0.0;
  double shuffle_share = 0.0;
};

CellRun run_cell(const Cell& cell, Trace* trace) {
  CellRun out;
  try {
    exp::Scenario sc(cell.cfg);
    std::int64_t link_change_ns = 0;
    for (const Flap& f : cell.flaps) {
      sc.simulation().at(f.down, [&sc, &link_change_ns, l = f.link] {
        const auto s = Clock::now();
        sc.controller().handle_link_failure(l);
        link_change_ns += ns_between(s, Clock::now());
      });
      sc.simulation().at(f.up, [&sc, &link_change_ns, l = f.link] {
        const auto s = Clock::now();
        sc.controller().handle_link_restore(l);
        link_change_ns += ns_between(s, Clock::now());
      });
    }

    sc.submit_job(cell.job);
    const auto t0 = Clock::now();
    if (trace != nullptr) run_traced(sc, *trace);
    const hadoop::JobResult result = sc.finish();
    out.wall_s = seconds_between(t0, Clock::now());
    out.link_change_s = static_cast<double>(link_change_ns) * 1e-9;
    out.counters = read_counters(sc, result);
    out.shuffle_share = shuffle_share(result);
    out.error = check_run(cell, sc, result);
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

/// One pass over every cell of the workload, in order.
struct SetRun {
  std::vector<CellRun> cells;
  double wall_s = 0.0;
  double link_change_s = 0.0;
};

SetRun run_set(const Workload& w, Trace* trace) {
  SetRun s;
  for (const Cell& c : w.cells) {
    CellRun r = run_cell(c, trace);
    s.wall_s += r.wall_s;
    s.link_change_s += r.link_change_s;
    s.cells.push_back(std::move(r));
  }
  return s;
}

/// Seconds of construction-only passes before each measured rep.
constexpr double kSetupBudget = 0.05;

/// setup_s is this percentile of the construction samples, not their median.
/// On a host shared with other tenants the samples split into an uncontended
/// mode and a ~1.8x slower contended one, and which mode holds the median
/// changes from run to run (55 vs 100 us for paper-sort), while the 5th
/// percentile repeats within a few percent. Work moved into construction
/// raises every sample, so it still shows.
constexpr double kSetupPercentile = 5.0;

/// Appends samples of the whole set's Scenario construction time, each a
/// warm, like-for-like construction measured on its own: at least one pass,
/// then more until `budget` seconds. Called before every measured rep so the
/// samples spread over the run like the wall-time samples do.
void measure_setup(const Workload& w, double budget,
                   std::vector<double>& out) {
  const auto start = Clock::now();
  do {
    double sum = 0.0;
    for (const Cell& c : w.cells) {
      const auto t0 = Clock::now();
      const exp::Scenario sc(c.cfg);
      sum += seconds_between(t0, Clock::now());
    }
    out.push_back(sum);
  } while (seconds_between(start, Clock::now()) < budget);
}

/// First counter that differs, for diagnostics; "" when equal.
std::string counter_diff(const Counters& want, const Counters& got) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (want[i] != got[i]) {
      return std::string(kCounterNames[i]) + " " + std::to_string(want[i]) +
             " vs " + std::to_string(got[i]);
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Isolated routing probe: first-touch cost of one host pair on a fresh lazy
// RoutingGraph, measured directly rather than inferred from event timing.

struct ProbeResult {
  std::vector<std::int64_t> cold_ns;
  bool ok = true;
};

ProbeResult probe_routing(const Cell& cell, std::uint64_t seed) {
  constexpr std::size_t kSamples = 1000;
  const exp::Scenario sc(cell.cfg);
  const net::Topology& topo = sc.topology();
  const std::size_t k = sc.config().controller.k_paths;
  const auto hosts = topo.hosts();
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (net::NodeId a : hosts) {
    for (net::NodeId b : hosts) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  std::mt19937_64 rng(seed);
  ProbeResult out;
  if (pairs.empty()) {
    out.ok = false;
    return out;
  }
  std::size_t sink = 0;
  while (out.cold_ns.size() < kSamples) {
    const std::size_t had = out.cold_ns.size();
    // Fisher-Yates on the raw engine output: the same sample on every
    // standard library.
    for (std::size_t i = pairs.size() - 1; i > 0; --i) {
      std::swap(pairs[i], pairs[rng() % (i + 1)]);
    }
    const net::RoutingGraph graph(topo, k, net::BuildMode::kLazy);
    const std::size_t take =
        std::min(pairs.size(), kSamples - out.cold_ns.size());
    for (std::size_t i = 0; i < take; ++i) {
      const auto before = graph.counters().lazy_materializations;
      const auto t0 = Clock::now();
      const net::PathSet ps = graph.paths(pairs[i].first, pairs[i].second);
      const auto t1 = Clock::now();
      out.ok = out.ok && !ps.empty();
      sink += ps.size();
      // Only a query that computed the pair is a cold sample.
      if (graph.counters().lazy_materializations != before) {
        out.cold_ns.push_back(ns_between(t0, t1));
      }
    }
    if (out.cold_ns.size() == had) break;  // queries never compute a pair
  }
  out.ok = out.ok && sink > 0;
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and output

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const char* heading, const std::vector<Metric>& ms) {
  std::printf("%s\n", heading);
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Peak resident set of this process image, in MiB. Reads VmHWM, which
/// starts afresh at exec; getrusage's ru_maxrss would instead carry over the
/// peak of the parent process that launched the benchmark.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0' || val[0] == '-') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return false;
    } else if (key == "--trace") {
      const std::string_view t = val;
      if (t != "0" && t != "1") return false;
      a.trace = t == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         a.seconds <= 120.0 && a.trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "e2e_bench: refusing to report timings from an unoptimised "
               "build (build type '%s'); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               E2E_BUILD_TYPE);
  return 3;
#endif
  const Workload w = make_workload(args.workload, args.seed);
  if (w.cells.empty()) {
    std::fprintf(stderr,
                 "e2e_bench: unknown workload '%s' (paper-sort, "
                 "nutch-leafspine-flap, sort-leafspine)\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;

  // --- measure: repeat the whole set until the budget is spent -------------
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  // Per cell, its first passing untraced run: every later run of the cell,
  // traced or not, must reproduce its counters exactly.
  std::vector<std::optional<CellRun>> reference(w.cells.size());
  std::vector<double> wall, setup, traced_wall, link_change;
  std::vector<Trace> traces;
  const auto start = Clock::now();

  // Counts one finished set and checks it against the references. Returns
  // true if every cell passed.
  const auto account = [&](SetRun& s, bool was_traced) {
    bool ok = true;
    const char* mode = was_traced ? "traced" : "untraced";
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      CellRun& r = s.cells[i];
      ++attempted;
      if (r.error.empty()) {
        if (!reference[i].has_value()) {
          if (!was_traced) reference[i] = r;
        } else if (const auto d =
                       counter_diff(reference[i]->counters, r.counters);
                   !d.empty()) {
          r.error = std::string(was_traced ? "observation identity"
                                           : "same-seed determinism") +
                    ": differs from the first untraced run in " + d;
        }
      }
      if (!r.error.empty()) {
        ++failed;
        ok = false;
        errors.push_back(w.cells[i].label + " [" + mode + "]: " + r.error);
      }
    }
    return ok;
  };

  // A rep that would end past the budget (judged by the last rep's length)
  // is not started, so a run lasts about --seconds whatever a rep costs.
  // The first rep always runs.
  std::size_t reps = 0;
  for (;;) {
    const auto rep_start = Clock::now();
    try {
      measure_setup(w, kSetupBudget, setup);
    } catch (const std::exception& e) {
      errors.push_back(std::string("scenario construction: ") + e.what());
      break;
    }
    SetRun plain = run_set(w, nullptr);
    if (account(plain, false)) {
      wall.push_back(plain.wall_s);
    }
    if (traced) {
      Trace t;
      SetRun tr = run_set(w, &t);
      if (account(tr, true)) {
        traced_wall.push_back(tr.wall_s);
        link_change.push_back(tr.link_change_s);
        traces.push_back(std::move(t));
      }
    }
    ++reps;
    const auto now = Clock::now();
    if (!errors.empty() || seconds_between(start, now) +
                                   seconds_between(rep_start, now) >
                               args.seconds) {
      break;
    }
  }

  ProbeResult probe;
  if (traced) {
    ++attempted;
    try {
      probe = probe_routing(w.cells.front(), args.seed);
    } catch (const std::exception& e) {
      probe.ok = false;
      errors.push_back(std::string("routing probe: ") + e.what());
    }
    if (!probe.ok) {
      ++failed;
      errors.emplace_back(
          "routing probe: a host pair had no path or no pair was computed");
    }
  }

  // --- report -------------------------------------------------------------
  std::printf("e2e_bench workload=%s seed=%llu scenario_seed0=%llu "
              "cells=%zu reps=%zu trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first_scenario_seed(args.seed)),
              w.cells.size(), reps, args.trace);
  std::printf("provenance: build_type=%s optimized=1 NDEBUG=%d "
              "compiler=\"%s\" hardware_concurrency=%u\n",
              E2E_BUILD_TYPE,
#ifdef NDEBUG
              1,
#else
              0,
#endif
              __VERSION__, std::thread::hardware_concurrency());
  std::printf("loop: closed, 1 client, single thread; one rep = every cell "
              "below run back to back\n");
  for (const Cell& c : w.cells) {
    std::printf("  cell %-16s %s, %zu maps x %zu reducers, %zu link flaps\n",
                c.label.c_str(), c.job.name.c_str(), c.job.num_maps(),
                c.job.num_reducers, c.flaps.size());
  }
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  const bool correct =
      errors.empty() &&
      std::all_of(reference.begin(), reference.end(),
                  [](const auto& r) { return r.has_value(); });
  if (!correct) {
    print_json(false, attempted, std::max<std::size_t>(failed, 1), {});
    return 1;
  }

  // Simulated outcomes are deterministic: take them from the reference run.
  double pythia_jct = 0.0, ecmp_jct = 0.0;
  std::size_t n_pythia = 0, n_ecmp = 0;
  Counters total{};
  double share = 0.0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Counters& ref = reference[i]->counters;
    const double jct = static_cast<double>(ref[kJctNs]) * 1e-9;
    if (w.cells[i].cfg.scheduler == exp::SchedulerKind::kPythia) {
      pythia_jct += jct;
      ++n_pythia;
    } else {
      ecmp_jct += jct;
      ++n_ecmp;
    }
    for (std::size_t k = 0; k < kCounterCount; ++k) {
      total[k] += ref[k];
    }
    share += reference[i]->shuffle_share;
  }
  pythia_jct = ratio(pythia_jct, static_cast<double>(n_pythia));
  ecmp_jct = ratio(ecmp_jct, static_cast<double>(n_ecmp));
  const double headline_jct = n_pythia > 0 ? pythia_jct : ecmp_jct;
  const auto count = [&](Counter c) {
    return static_cast<double>(total[c]);
  };

  std::printf("simulated outcome (deterministic per seed):\n");
  if (n_pythia > 0) {
    std::printf("  pythia_jct_s %.6f sim_s\n", pythia_jct);
  } else {
    std::printf("  pythia_jct_s n/a (no Pythia arm)\n");
  }
  if (n_ecmp > 0) std::printf("  ecmp_jct_s %.6f sim_s\n", ecmp_jct);
  if (n_pythia > 0 && n_ecmp > 0) {
    std::printf("  pythia_speedup_pct %.4f %% (ECMP/Pythia - 1)\n",
                (ecmp_jct / pythia_jct - 1.0) * 100.0);
  } else {
    std::printf("  pythia_speedup_pct n/a (needs both arms)\n");
  }
  std::printf("  failed_run_frac %.4f (%zu of %zu runs)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);

  if (!traced) {
    const double rss = peak_rss_mib();
    if (rss <= 0.0) {
      std::printf("CHECK FAILED: no VmHWM in /proc/self/status\n");
      print_json(false, attempted, std::max<std::size_t>(failed, 1), {});
      return 1;
    }
    const std::vector<Metric> e2e = {
        {"wall_s", median(wall), "s"},
        {"setup_s", percentile(setup, kSetupPercentile), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"sim_jct_s", headline_jct, "sim_s"},
    };
    std::printf("wall_s over %zu reps: min %.6f p25 %.6f median %.6f p75 "
                "%.6f max %.6f s\n",
                wall.size(), percentile(wall, 0), percentile(wall, 25),
                median(wall), percentile(wall, 75), percentile(wall, 100));
    std::printf("wall_s per rep:");
    for (double v : wall) std::printf(" %.6f", v);
    std::printf("\nsetup_s: %zu samples, p5 %.6g p25 %.6g median %.6g p75 "
                "%.6g s\n",
                setup.size(), percentile(setup, kSetupPercentile),
                percentile(setup, 25), median(setup), percentile(setup, 75));
    print_metrics("end-to-end metrics:", e2e);
    print_json(true, attempted, failed, e2e);
    return 0;
  }

  // Per-layer: the traced rep with the median total event time supplies
  // every timing, so its layer classes sum exactly to its event total.
  // Counters come from the reference (identical across reps, checked above).
  const auto total_ns = [](const Trace& t) {
    return std::accumulate(t.layer_ns.begin(), t.layer_ns.end(),
                           std::int64_t{0});
  };
  std::vector<std::size_t> order(traces.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return total_ns(traces[x]) < total_ns(traces[y]);
  });
  const std::size_t mid = order[(order.size() - 1) / 2];
  const Trace& tr = traces[mid];
  std::vector<double> ev_us(tr.event_ns.begin(), tr.event_ns.end());
  for (double& v : ev_us) v *= 1e-3;
  const auto layer_ms = [&](Layer l) {
    return static_cast<double>(tr.layer_ns[l]) * 1e-6;
  };
  const double all_ms = static_cast<double>(total_ns(tr)) * 1e-6;
  std::vector<double> cold_us(probe.cold_ns.begin(), probe.cold_ns.end());
  for (double& v : cold_us) v *= 1e-3;

  const double fills = count(kFills);
  const double allocations = count(kAllocations);
  const auto layer_share = [&](Layer l) { return ratio(layer_ms(l), all_ms); };
  // The JSON carries no time that is structurally zero on some workload (a
  // constant time reads as a fabricated one). Each layer's share of event
  // time is there instead, and these three times are only printed.
  const std::vector<Metric> report_only = {
      {"sdn.event_ms", layer_ms(kSdn), "ms"},
      {"sdn.link_change_ms", link_change[mid] * 1e3, "ms"},
      {"core.event_ms", layer_ms(kCore), "ms"},
  };
  const std::vector<Metric> layers = {
      {"sim.events", count(kEvents), "count"},
      {"sim.event_us_p50", percentile(ev_us, 50), "us"},
      {"sim.event_us_p99", percentile(ev_us, 99), "us"},
      {"sim.event_us_max", percentile(ev_us, 100), "us"},
      {"sim.heap_peak", static_cast<double>(tr.heap_peak), "count"},
      {"sim.cancelled_peak", static_cast<double>(tr.cancelled_peak), "count"},
      {"sim.event_ms", all_ms, "ms"},
      {"net.fabric.fills", fills, "count"},
      {"net.fabric.full_fills", count(kFullFills), "count"},
      {"net.fabric.links_per_fill", ratio(count(kLinksTouched), fills),
       "count"},
      {"net.fabric.flows_per_fill", ratio(count(kFlowsTouched), fills),
       "count"},
      {"net.fabric.flows", count(kFlowsStarted), "count"},
      {"net.fabric.event_ms", layer_ms(kFabric), "ms"},
      {"net.fabric.event_share", layer_share(kFabric), "ratio"},
      {"net.routing.pairs_materialized", count(kPairsMaterialized), "count"},
      {"net.routing.pairs_invalidated", count(kPairsInvalidated), "count"},
      {"net.routing.pairs_reused", count(kPairsReused), "count"},
      {"net.routing.rebuilds", count(kRoutingRebuilds), "count"},
      {"net.routing.event_ms", layer_ms(kRouting), "ms"},
      {"net.routing.event_share", layer_share(kRouting), "ratio"},
      {"net.routing.pair_cold_us_p50", percentile(cold_us, 50), "us"},
      {"net.routing.pair_cold_us_p99", percentile(cold_us, 99), "us"},
      {"sdn.rules_installed", count(kRulesInstalled), "count"},
      {"sdn.flow_mods", count(kFlowMods), "count"},
      {"sdn.install_attempts", count(kInstallAttempts), "count"},
      {"sdn.install_failures", count(kInstallFailures), "count"},
      {"sdn.stats_refreshes", count(kStatsRefreshes), "count"},
      {"sdn.event_share", layer_share(kSdn), "ratio"},
      {"core.intents", count(kIntents), "count"},
      {"core.batches", count(kBatches), "count"},
      {"core.allocations", allocations, "count"},
      {"core.intents_per_allocation", ratio(count(kIntents), allocations),
       "count"},
      {"core.watchdog_fallbacks", count(kWatchdogFallbacks), "count"},
      {"core.event_share", layer_share(kCore), "ratio"},
      {"hadoop.maps", count(kMaps), "count"},
      {"hadoop.fetches", count(kFetches), "count"},
      {"hadoop.remote_shuffle_gb", count(kRemoteBytes) * 1e-9, "GB"},
      {"hadoop.shuffle_share", share / static_cast<double>(w.cells.size()),
       "ratio"},
      {"hadoop.event_ms", layer_ms(kHadoop), "ms"},
      {"hadoop.event_share", layer_share(kHadoop), "ratio"},
      {"trace_overhead_pct",
       (ratio(median(traced_wall), median(wall)) - 1.0) * 100.0, "%"},
  };

  std::printf("event charging precedence: routing first-touch "
              "(lazy_materializations advanced) > fabric fill (recomputes "
              "advanced) > sdn install (install attempts/flow-mods/rules "
              "advanced) > core intent (intents/batches/allocations "
              "advanced) > hadoop (the rest)\n");
  double share_sum = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    share_sum += layer_share(static_cast<Layer>(l));
  }
  std::printf("median traced rep: %.3f ms of event time in %.3f ms of "
              "traced wall; layer shares sum to %.9f\n",
              all_ms, traced_wall[mid] * 1e3, share_sum);
  std::printf("routing attribution check: %.2f us of routing-charged event "
              "time per first touch vs %.2f us median direct cold pair "
              "(%zu probe samples)\n",
              1e3 * ratio(layer_ms(kRouting),
                          count(kPairsMaterialized)),
              percentile(cold_us, 50), cold_us.size());
  print_metrics("per-layer metrics:", layers);
  print_metrics("per-layer metrics printed only:", report_only);
  print_json(true, attempted, failed, layers);
  return 0;
}

// Differential validation of the production rate engine against its oracle.
// Every scenario is replayed under kFullRecompute and kHierarchical, and the
// observable outcomes must match bit-for-bit: completion order and instants,
// every sampled rate's IEEE-754 bits, and the full encode_state() image at
// mid-run cuts. The engines share the progressive-fill arithmetic by
// construction, so any divergence is a bug in the group closure or the arena
// mirrors — exactly the machinery this suite exists to catch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiments/checkpoint.hpp"
#include "experiments/scenario.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::SimTime;

/// One engine configuration under test.
struct Arm {
  RateEngine engine;
  const char* name;
};

constexpr Arm kArms[] = {
    {RateEngine::kFullRecompute, "full"},
    {RateEngine::kHierarchical, "hierarchical"},
};

/// (start sequence, completion instant); flow ids recycle, the sequence is
/// the stable identity.
using CompletionLog = std::vector<std::pair<int, std::int64_t>>;

struct ChurnResult {
  CompletionLog log;
  /// encode_state() images captured at fixed run_until() cuts. Counters are
  /// deliberately NOT included — they are observability, engines may differ.
  std::vector<std::vector<std::uint8_t>> cuts;
  /// Rate bit-patterns of every active flow at each cut, ascending by id.
  std::vector<std::vector<double>> cut_rates;
};

/// Seeded churn on a k=4 fat-tree: staggered random arrivals with a tunable
/// cross-pod fraction, zero-byte flows, a CBR pulse, fail+restore of both a
/// core link and an intra-pod link, mid-flight reroutes and weight changes.
ChurnResult run_churn(const Arm& arm, std::uint64_t seed,
                      double cross_pod_fraction) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo, FabricConfig{.rate_engine = arm.engine});
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();
  const auto hosts_per_pod = hosts.size() / cfg.k;

  ChurnResult out;

  // Pinned long-lived cross-pod flows that survive to the reroute events.
  std::vector<FlowId> pinned;
  for (int i = 0; i < 4; ++i) {
    const NodeId src = hosts[i];
    const NodeId dst = hosts[hosts.size() - 1 - i];
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{6'000'000'000};
    spec.path = routing.paths(src, dst)[0].links;
    spec.weight = 1.0 + i;
    const int tag = 1000 + i;
    pinned.push_back(fabric.start_flow(
        spec, [&out, tag](FlowId, SimTime t) {
          out.log.emplace_back(tag, t.ns());
        }));
  }

  // Randomized short flows over two simulated seconds. Destination pod is
  // chosen intra-pod or cross-pod per `cross_pod_fraction`, which steers how
  // often components stay pod-local vs. couple through the core.
  constexpr int kFlows = 90;
  for (int i = 0; i < kFlows; ++i) {
    const auto at =
        SimTime{static_cast<std::int64_t>(rng.below(2'000'000'000))};
    const std::size_t src_idx = rng.below(hosts.size());
    const NodeId src = hosts[src_idx];
    const std::size_t src_pod = src_idx / hosts_per_pod;
    NodeId dst = src;
    while (dst == src) {
      const bool cross = rng.uniform(0.0, 1.0) < cross_pod_fraction;
      std::size_t pod = src_pod;
      if (cross) {
        while (pod == src_pod) pod = rng.below(cfg.k);
      }
      dst = hosts[pod * hosts_per_pod + rng.below(hosts_per_pod)];
    }
    const auto& paths = routing.paths(src, dst);
    const auto path = paths[rng.below(paths.size())].links;
    // Every 9th flow is zero-byte: starts and completes within one instant,
    // exercising slot recycling and the arena stale-row discipline hard.
    const auto size = static_cast<std::int64_t>(
        i % 9 == 8 ? 0 : 1'000'000 + rng.below(300'000'000));
    const double weight = rng.uniform(0.5, 3.0);
    sim.at(at, [&fabric, &out, i, src, dst, path, size, weight] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      spec.weight = weight;
      fabric.start_flow(spec, [&out, i](FlowId, SimTime t) {
        out.log.emplace_back(i, t.ns());
      });
    });
  }

  // CBR pulse on a cross-pod path.
  const auto& cbr_paths = routing.paths(hosts[0], hosts[hosts.size() - 2]);
  sim.at(SimTime::from_seconds(0.3), [&fabric, &cbr_paths] {
    const CbrId id = fabric.start_cbr(cbr_paths[0].links, BitsPerSec{4e9});
    fabric.simulation().at(SimTime::from_seconds(1.2),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });

  // Fail + restore a core-facing link (cross-pod hop of a long path) and an
  // intra-pod link (first hop: host -> edge).
  const auto& long_path = routing.paths(hosts[1], hosts.back())[0].links;
  const LinkId core_victim = long_path[long_path.size() / 2];
  const LinkId pod_victim = long_path.front();
  sim.at(SimTime::from_seconds(0.5),
         [&fabric, core_victim] { fabric.fail_link(core_victim); });
  sim.at(SimTime::from_seconds(0.9),
         [&fabric, core_victim] { fabric.restore_link(core_victim); });
  sim.at(SimTime::from_seconds(0.6),
         [&fabric, pod_victim] { fabric.fail_link(pod_victim); });
  sim.at(SimTime::from_seconds(0.8),
         [&fabric, pod_victim] { fabric.restore_link(pod_victim); });

  // Reroute and reweight the pinned flows mid-flight.
  sim.at(SimTime::from_seconds(0.7), [&fabric, &routing, pinned] {
    for (FlowId f : pinned) {
      if (!fabric.flow_active(f)) continue;
      const auto& spec = fabric.flow(f).spec;
      const auto& alts = routing.paths(spec.src, spec.dst);
      fabric.reroute_flow(f, alts[alts.size() - 1].links);
    }
  });
  sim.at(SimTime::from_seconds(1.1), [&fabric, pinned] {
    for (FlowId f : pinned) {
      if (fabric.flow_active(f)) fabric.set_flow_weight(f, 2.5);
    }
  });

  // Freeze at fixed instants and capture the behavioral state image plus
  // every active rate's bit pattern.
  for (const double cut_s : {0.45, 0.75, 1.3}) {
    sim.run_until(SimTime::from_seconds(cut_s));
    sim::StateEncoder enc;
    fabric.encode_state(enc);
    out.cuts.push_back(enc.bytes());
    std::vector<double> rates;
    for (FlowId f : fabric.active_flows()) {
      rates.push_back(fabric.flow(f).rate.bps());
    }
    out.cut_rates.push_back(std::move(rates));
  }

  sim.run();
  return out;
}

void expect_identical(const ChurnResult& base, const ChurnResult& other,
                      const char* base_name, const char* other_name) {
  SCOPED_TRACE(std::string(base_name) + " vs " + other_name);
  ASSERT_EQ(base.log.size(), other.log.size());
  for (std::size_t i = 0; i < base.log.size(); ++i) {
    EXPECT_EQ(base.log[i].first, other.log[i].first)
        << "completion order @" << i;
    EXPECT_EQ(base.log[i].second, other.log[i].second)
        << "completion time of flow " << base.log[i].first;
  }
  ASSERT_EQ(base.cuts.size(), other.cuts.size());
  for (std::size_t c = 0; c < base.cuts.size(); ++c) {
    EXPECT_EQ(base.cuts[c], other.cuts[c]) << "state image at cut " << c;
    ASSERT_EQ(base.cut_rates[c].size(), other.cut_rates[c].size());
    for (std::size_t i = 0; i < base.cut_rates[c].size(); ++i) {
      EXPECT_EQ(base.cut_rates[c][i], other.cut_rates[c][i])  // bitwise
          << "rate of active flow " << i << " at cut " << c;
    }
  }
}

struct ChurnParam {
  std::uint64_t seed;
  double cross_pod_fraction;
};

class FabricDifferential : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(FabricDifferential, AllEnginesBitIdentical) {
  const auto [seed, cross] = GetParam();
  const ChurnResult base = run_churn(kArms[0], seed, cross);
  ASSERT_FALSE(base.log.empty());
  for (std::size_t a = 1; a < std::size(kArms); ++a) {
    const ChurnResult other = run_churn(kArms[a], seed, cross);
    expect_identical(base, other, kArms[0].name, kArms[a].name);
  }
}

// Pod-local traffic (components never leave a group), core-coupled traffic
// (closure spans pods), and the mixed regime each stress different paths
// through collect_component_hier().
INSTANTIATE_TEST_SUITE_P(
    Seeds, FabricDifferential,
    ::testing::Values(ChurnParam{1, 0.5}, ChurnParam{7, 0.5},
                      ChurnParam{42, 0.5}, ChurnParam{1234, 0.5},
                      ChurnParam{3, 0.0},   // pure intra-pod
                      ChurnParam{3, 1.0},   // pure cross-pod
                      ChurnParam{99, 0.15}, ChurnParam{99, 0.85}));

/// Shuffle waves against a steady backdrop on a k=4 fat-tree: 300
/// long-lived flows, then waves of 25 simultaneous starts 5 ms apart — the
/// arrival shape a MapReduce shuffle stage produces. Returns the fabric's
/// behavioral state image halfway between consecutive waves.
struct WaveRun {
  std::vector<std::vector<std::uint8_t>> images;
  std::uint64_t completed = 0;
};

WaveRun run_shuffle_waves(RateEngine engine) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  const auto hosts = topo.hosts();
  sim::Simulation sim(17);
  Fabric fabric(sim, topo, FabricConfig{.rate_engine = engine});
  util::Xoshiro256 rng(17);

  auto random_spec = [&](std::int64_t bytes) {
    FlowSpec spec;
    spec.src = hosts[rng.below(hosts.size())];
    spec.dst = spec.src;
    while (spec.dst == spec.src) spec.dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(spec.src, spec.dst);
    spec.path = paths[rng.below(paths.size())].links;
    spec.size = Bytes{bytes};
    return spec;
  };

  constexpr int kBackdrop = 300;
  constexpr int kWaveSize = 25;
  constexpr int kWaves = 8;
  for (int i = 0; i < kBackdrop; ++i) {
    // Outlives every wave, so each fill runs against the full backdrop.
    fabric.start_flow(random_spec(1'000'000'000'000LL));
  }
  for (int w = 1; w <= kWaves; ++w) {
    for (int i = 0; i < kWaveSize; ++i) {
      // Wave flows are short enough that many finish before the next wave,
      // so completions interleave with arrivals.
      const FlowSpec spec = random_spec(
          2'000 + static_cast<std::int64_t>(rng.below(60'000)));
      sim.at(SimTime{w * 5'000'000LL},
             [&fabric, spec] { fabric.start_flow(spec); });
    }
  }
  WaveRun out;
  for (int w = 1; w <= kWaves; ++w) {
    sim.run_until(SimTime{w * 5'000'000LL + 2'500'000LL});
    sim::StateEncoder enc;
    fabric.encode_state(enc);
    out.images.push_back(enc.bytes());
  }
  out.completed = fabric.flows_completed();
  return out;
}

TEST(FabricDifferential, ShuffleWavesStateIdenticalToOracle) {
  const WaveRun full = run_shuffle_waves(RateEngine::kFullRecompute);
  const WaveRun hier = run_shuffle_waves(RateEngine::kHierarchical);
  EXPECT_GT(full.completed, 0u);  // completions interleaved with the waves
  EXPECT_EQ(full.completed, hier.completed);
  ASSERT_EQ(full.images.size(), hier.images.size());
  for (std::size_t w = 0; w < full.images.size(); ++w) {
    EXPECT_EQ(full.images[w], hier.images[w])
        << "state image after wave " << w + 1;
  }
}

TEST(FabricCheckpoint, HierarchicalScenarioRestoresVerified) {
  // Scenario-level capture/restore with the hierarchical engine at mid-run
  // event cursors.
  exp::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.scheduler = exp::SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;
  cfg.rate_engine = RateEngine::kHierarchical;
  const auto job = workloads::sort_job(Bytes{4'000'000'000LL}, 16);

  exp::Scenario probe(cfg);
  (void)probe.run_job(job);
  const std::uint64_t events = probe.simulation().queue().events_fired();
  ASSERT_GT(events, 100u);

  for (const std::uint64_t cut : {events / 3, (2 * events) / 3}) {
    exp::Scenario golden(cfg);
    golden.submit_job(job);
    golden.run_to_event_count(cut);
    const sim::Snapshot snap = exp::capture_snapshot(golden, job, "hier-cut");
    exp::RestoreResult restored = exp::restore_snapshot(snap, cfg, job);
    ASSERT_TRUE(restored.verified)
        << "cut " << cut << ": " << restored.divergence;
    const auto golden_result = golden.finish();
    const auto restored_result = restored.scenario->finish();
    EXPECT_EQ(restored_result.completion_time(),
              golden_result.completion_time());
  }
}

TEST(FabricCheckpoint, ScenarioSurfaceIdenticalAcrossEngines) {
  // The quickstart scenario shape must complete at the same instant under
  // the production engine and the oracle.
  auto run = [](RateEngine engine) {
    exp::ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.scheduler = exp::SchedulerKind::kEcmp;
    cfg.background.oversubscription = 10.0;
    cfg.rate_engine = engine;
    exp::Scenario scenario(cfg);
    return scenario.run_job(workloads::sort_job(Bytes{2'000'000'000}, 4))
        .completion_time()
        .ns();
  };
  EXPECT_EQ(run(RateEngine::kFullRecompute), run(RateEngine::kHierarchical));
}

}  // namespace
}  // namespace pythia::net

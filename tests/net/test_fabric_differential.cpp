// Differential validation of the production rate fill against the frozen
// oracle in tests/net/fabric_oracle.hpp. Every scenario drives one Fabric
// and, after every mutation and every event, compares each active flow's
// rate and each link's elastic and per-class rate with an oracle fill over
// the fabric's public state, by IEEE-754 bit pattern. The oracle shares no
// bookkeeping with the Fabric, so any divergence is a bug in the component
// collection, the per-link flow index or the arena mirrors — exactly the
// machinery this suite exists to catch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/checkpoint.hpp"
#include "experiments/scenario.hpp"
#include "net/fabric.hpp"
#include "net/fabric_oracle.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::SimTime;

/// Seeded churn on a k=4 fat-tree: staggered random arrivals with a tunable
/// cross-pod fraction, zero-byte flows, a CBR pulse, fail+restore of both a
/// core link and an intra-pod link, mid-flight reroutes and weight changes.
/// Returns the number of completed flows.
std::uint64_t run_churn(std::uint64_t seed, double cross_pod_fraction) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo);
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();
  const auto hosts_per_pod = hosts.size() / cfg.k;
  auto check = [&fabric](const std::string& what) {
    expect_fabric_matches_oracle(fabric, what);
  };

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
    pinned.push_back(fabric.start_flow(spec));
    check("pinned start " + std::to_string(i));
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
    sim.at(at, [&fabric, src, dst, path, size, weight] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      spec.weight = weight;
      fabric.start_flow(spec);
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

  // Reroute and reweight the pinned flows mid-flight, checking after each.
  sim.at(SimTime::from_seconds(0.7), [&fabric, &routing, &check, pinned] {
    for (FlowId f : pinned) {
      if (!fabric.flow_active(f)) continue;
      const auto& spec = fabric.flow(f).spec;
      const auto& alts = routing.paths(spec.src, spec.dst);
      fabric.reroute_flow(f, alts[alts.size() - 1].links);
      check("reroute of flow " + std::to_string(f.value()));
    }
  });
  sim.at(SimTime::from_seconds(1.1), [&fabric, &check, pinned] {
    for (FlowId f : pinned) {
      if (!fabric.flow_active(f)) continue;
      fabric.set_flow_weight(f, 2.5);
      check("reweight of flow " + std::to_string(f.value()));
    }
  });

  run_checking_oracle(sim, fabric, "churn seed " + std::to_string(seed));
  return fabric.flows_completed();
}

struct ChurnParam {
  std::uint64_t seed;
  double cross_pod_fraction;
};

class FabricDifferential : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(FabricDifferential, ChurnMatchesOracleAfterEveryMutation) {
  const auto [seed, cross] = GetParam();
  // 4 pinned + 90 randomized flows, every one of which completes.
  EXPECT_EQ(run_churn(seed, cross), 94u);
}

// Pod-local traffic (components never leave a pod), core-coupled traffic
// (components span pods), and the mixed regime each stress different shapes
// of the dirty-link component walk.
INSTANTIATE_TEST_SUITE_P(
    Seeds, FabricDifferential,
    ::testing::Values(ChurnParam{1, 0.5}, ChurnParam{7, 0.5},
                      ChurnParam{42, 0.5}, ChurnParam{1234, 0.5},
                      ChurnParam{3, 0.0},   // pure intra-pod
                      ChurnParam{3, 1.0},   // pure cross-pod
                      ChurnParam{99, 0.15}, ChurnParam{99, 0.85}));

TEST(FabricDifferential, ShuffleWavesStateIdenticalToOracle) {
  // Shuffle waves against a steady backdrop on a k=4 fat-tree: 300
  // long-lived flows, then waves of 25 simultaneous starts 5 ms apart — the
  // arrival shape a MapReduce shuffle stage produces. Every start and every
  // event is checked against the oracle.
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  const auto hosts = topo.hosts();
  sim::Simulation sim(17);
  Fabric fabric(sim, topo);
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
    expect_fabric_matches_oracle(fabric,
                                 "backdrop start " + std::to_string(i));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
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
  // Stop once the last wave has drained; the backdrop runs for hours.
  std::uint64_t events = 0;
  while (fabric.active_flow_count() > kBackdrop ||
         sim.now() < SimTime{kWaves * 5'000'000LL}) {
    ASSERT_TRUE(sim.queue().run_one());
    ++events;
    expect_fabric_matches_oracle(fabric,
                                 "shuffle waves after event " +
                                     std::to_string(events));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(fabric.flows_completed(),
            static_cast<std::uint64_t>(kWaves * kWaveSize));
}

TEST(FabricDifferential, QuickstartScenarioMatchesOracleAfterEveryEvent) {
  // The quickstart's scenario shape (two racks, 1:10 background, ECMP, a
  // 2 GB sort over 4 reducers), stepped one event at a time with every
  // active rate and link rate checked against the oracle.
  exp::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.scheduler = exp::SchedulerKind::kEcmp;
  cfg.background.oversubscription = 10.0;
  exp::Scenario scenario(cfg);
  scenario.submit_job(workloads::sort_job(Bytes{2'000'000'000}, 4));
  std::uint64_t events = 0;
  for (;;) {
    scenario.run_to_event_count(events + 1);
    const std::uint64_t fired =
        scenario.simulation().queue().events_fired();
    if (fired == events) break;  // queue drained
    events = fired;
    expect_fabric_matches_oracle(scenario.fabric(),
                                 "quickstart after event " +
                                     std::to_string(events));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_GT(events, 100u);
  EXPECT_GT(scenario.finish().completion_time(), util::Duration::zero());
}

TEST(FabricCheckpoint, ScenarioRestoresVerifiedAtMidRunCuts) {
  // Scenario-level capture/restore at mid-run event cursors.
  exp::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.scheduler = exp::SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;
  const auto job = workloads::sort_job(Bytes{4'000'000'000LL}, 16);

  exp::Scenario probe(cfg);
  (void)probe.run_job(job);
  const std::uint64_t events = probe.simulation().queue().events_fired();
  ASSERT_GT(events, 100u);

  for (const std::uint64_t cut : {events / 3, (2 * events) / 3}) {
    exp::Scenario golden(cfg);
    golden.submit_job(job);
    golden.run_to_event_count(cut);
    const sim::Snapshot snap = exp::capture_snapshot(golden, job, "mid-cut");
    exp::RestoreResult restored = exp::restore_snapshot(snap, cfg, job);
    ASSERT_TRUE(restored.verified)
        << "cut " << cut << ": " << restored.divergence;
    const auto golden_result = golden.finish();
    const auto restored_result = restored.scenario->finish();
    EXPECT_EQ(restored_result.completion_time(),
              golden_result.completion_time());
  }
}

}  // namespace
}  // namespace pythia::net

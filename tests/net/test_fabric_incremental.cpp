// Differential validation of the component-refill rate engine on leaf-spine
// fabrics: every scenario is replayed on two fabrics — RateEngine::
// kHierarchical vs the kFullRecompute oracle — and the observable outcomes
// (flow completion instants, sampled rates, delivered bytes) must match
// bit-for-bit. Both engines share the progressive-fill arithmetic and
// canonical orderings, so any divergence is a bug in the dirty-set
// component tracking.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "experiments/scenario.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;

/// (sequence number, completion instant) — flow ids are recycled, so the
/// start sequence is the stable identity.
using CompletionLog = std::vector<std::pair<int, std::int64_t>>;

/// Runs a seeded churn scenario — staggered randomized flow starts, a CBR
/// pulse, a link failure/restore, mid-flight reroutes and weight changes —
/// and returns the completion log.
CompletionLog run_churn(RateEngine engine, std::uint64_t seed) {
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 4;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo, FabricConfig{engine});
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();

  CompletionLog log;

  // A handful of long-lived flows that survive to the reroute/weight events.
  std::vector<FlowId> pinned;
  for (int i = 0; i < 4; ++i) {
    const NodeId src = hosts[i];
    const NodeId dst = hosts[hosts.size() - 1 - i];
    const auto& paths = routing.paths(src, dst);
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{4'000'000'000};
    spec.path = paths[0].links;
    spec.weight = 1.0 + i;
    const int tag = 1000 + i;
    pinned.push_back(fabric.start_flow(spec, [&log, tag](FlowId, SimTime t) {
      log.emplace_back(tag, t.ns());
    }));
  }

  // Randomized short flows over the first two simulated seconds.
  constexpr int kFlows = 60;
  for (int i = 0; i < kFlows; ++i) {
    const auto at =
        SimTime{static_cast<std::int64_t>(rng.below(2'000'000'000))};
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto path = paths[rng.below(paths.size())].links;
    const auto size =
        static_cast<std::int64_t>(1'000'000 + rng.below(400'000'000));
    const double weight = rng.uniform(0.5, 3.0);
    sim.at(at, [&fabric, &log, i, src, dst, path, size, weight] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      spec.weight = weight;
      fabric.start_flow(spec, [&log, i](FlowId, SimTime t) {
        log.emplace_back(i, t.ns());
      });
    });
  }

  // CBR pulse on a cross-rack path.
  const auto& cbr_paths = routing.paths(hosts[0], hosts[8]);
  sim.at(SimTime::from_seconds(0.3), [&fabric, &cbr_paths] {
    const CbrId id = fabric.start_cbr(cbr_paths[0].links, BitsPerSec{6e9});
    fabric.simulation().at(SimTime::from_seconds(1.2),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });

  // Fail + restore one spine uplink.
  const LinkId victim = cbr_paths[1].links[1];
  sim.at(SimTime::from_seconds(0.5), [&fabric, victim] {
    fabric.fail_link(victim);
  });
  sim.at(SimTime::from_seconds(0.9), [&fabric, victim] {
    fabric.restore_link(victim);
  });

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

  sim.run();
  return log;
}

class IncrementalDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalDifferential, ChurnCompletionsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const CompletionLog hier = run_churn(RateEngine::kHierarchical, seed);
  const CompletionLog full = run_churn(RateEngine::kFullRecompute, seed);
  ASSERT_EQ(hier.size(), full.size());
  for (std::size_t i = 0; i < hier.size(); ++i) {
    EXPECT_EQ(hier[i].first, full[i].first) << "completion order @" << i;
    EXPECT_EQ(hier[i].second, full[i].second)
        << "completion time of flow " << hier[i].first;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u));

TEST(IncrementalDifferential, RatesBitIdenticalUnderSnapshots) {
  // Freeze both fabrics mid-churn at several instants and compare every
  // active flow's rate bitwise.
  for (const double at_s : {0.4, 0.8, 1.15}) {
    LeafSpineConfig cfg;
    cfg.racks = 2;
    cfg.servers_per_rack = 5;
    cfg.spines = 4;
    const Topology topo = make_leaf_spine(cfg);
    const RoutingGraph routing(topo, cfg.spines);
    auto build = [&](sim::Simulation& sim, Fabric& fabric) {
      util::Xoshiro256 rng(99);
      const auto hosts = topo.hosts();
      for (int i = 0; i < 40; ++i) {
        const NodeId src = hosts[rng.below(hosts.size())];
        NodeId dst = src;
        while (dst == src) dst = hosts[rng.below(hosts.size())];
        const auto& paths = routing.paths(src, dst);
        FlowSpec spec;
        spec.src = src;
        spec.dst = dst;
        spec.size = Bytes{static_cast<std::int64_t>(
            5'000'000 + rng.below(900'000'000))};
        spec.path = paths[rng.below(paths.size())].links;
        spec.weight = rng.uniform(0.5, 4.0);
        sim.at(SimTime{static_cast<std::int64_t>(rng.below(1'000'000'000))},
               [&fabric, spec] { fabric.start_flow(spec); });
      }
      sim.run_until(SimTime::from_seconds(at_s));
    };
    sim::Simulation sim_a;
    Fabric hier(sim_a, topo, FabricConfig{RateEngine::kHierarchical});
    build(sim_a, hier);
    sim::Simulation sim_b;
    Fabric full(sim_b, topo, FabricConfig{RateEngine::kFullRecompute});
    build(sim_b, full);

    const auto active_a = hier.active_flows();
    const auto active_b = full.active_flows();
    ASSERT_EQ(active_a.size(), active_b.size());
    for (std::size_t i = 0; i < active_a.size(); ++i) {
      const auto& fa = hier.flow(active_a[i]);
      const auto& fb = full.flow(active_b[i]);
      EXPECT_TRUE(fa.rate == fb.rate)  // bitwise, not approximate
          << "flow " << i << " at t=" << at_s << ": " << fa.rate.bps()
          << " vs " << fb.rate.bps();
      EXPECT_EQ(fa.remaining_bytes, fb.remaining_bytes);
    }
  }
}

TEST(IncrementalDifferential, QuickstartSurfaceIdentical) {
  // The quickstart's scenario shape (two-rack, oversubscribed, sort job)
  // must complete at the exact same instant under both engines.
  auto run = [](RateEngine engine) {
    exp::ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.scheduler = exp::SchedulerKind::kEcmp;
    cfg.background.oversubscription = 10.0;
    cfg.rate_engine = engine;
    exp::Scenario scenario(cfg);
    const auto result =
        scenario.run_job(workloads::sort_job(Bytes{2'000'000'000}, 4));
    return result.completion_time().ns();
  };
  EXPECT_EQ(run(RateEngine::kHierarchical), run(RateEngine::kFullRecompute));
}

TEST(IncrementalCounters, DisjointComponentsStayUntouched) {
  // Two flows in different racks share no link; starting the second must not
  // revisit the first one's links. The refill closes over whole locality
  // groups, so it touches exactly rack 1's group links.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  const Topology topo = make_leaf_spine(cfg);
  sim::Simulation sim;
  Fabric fabric(sim, topo, FabricConfig{RateEngine::kHierarchical});
  const auto hosts = topo.hosts();

  auto intra_rack = [&](NodeId a, NodeId b) {
    const NodeId tor = topo.link(topo.out_links(a)[0]).dst;
    return std::vector<LinkId>{*topo.find_link(a, tor),
                               *topo.find_link(tor, b)};
  };
  FlowSpec f1;
  f1.src = hosts[0];
  f1.dst = hosts[1];
  f1.size = Bytes{1'000'000'000};
  f1.path = intra_rack(hosts[0], hosts[1]);
  fabric.start_flow(f1);
  const auto after_first = fabric.counters();

  FlowSpec f2;
  f2.src = hosts[4];  // other rack
  f2.dst = hosts[5];
  f2.size = Bytes{1'000'000'000};
  f2.path = intra_rack(hosts[4], hosts[5]);
  fabric.start_flow(f2);
  const auto after_second = fabric.counters();

  // The closure is a union of whole groups, so a link count equal to rack
  // 1's group size means it is exactly rack 1's group: no rack-0 link (and
  // no core link) was revisited, and only the new flow was refilled.
  const std::int32_t rack1 = topo.node_group(hosts[4]);
  ASSERT_NE(rack1, topo.node_group(hosts[0]));
  std::uint64_t rack1_links = 0;
  for (const auto& link : topo.links()) {
    if (topo.link_group(link.id) == rack1) ++rack1_links;
  }
  ASSERT_GT(rack1_links, 2u);  // host<->leaf links of four servers
  EXPECT_EQ(after_second.links_touched - after_first.links_touched,
            rack1_links);
  EXPECT_EQ(after_second.flows_touched - after_first.flows_touched, 1u);
  EXPECT_EQ(after_second.full_fills, after_first.full_fills);
}

TEST(IncrementalCounters, CleanRecomputeIsFree) {
  LeafSpineConfig cfg;
  const Topology topo = make_leaf_spine(cfg);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  const RoutingGraph routing(topo, 2);
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[6];
  spec.size = Bytes{10'000'000'000};
  spec.path = routing.paths(spec.src, spec.dst)[0].links;
  fabric.start_flow(spec);

  const auto before = fabric.counters();
  fabric.settle_and_recompute();  // probe accounting point, nothing dirty
  const auto after = fabric.counters();
  EXPECT_EQ(after.links_touched, before.links_touched);
  EXPECT_EQ(after.flows_touched, before.flows_touched);
}

}  // namespace
}  // namespace pythia::net

// Component-refill validation on leaf-spine fabrics. The churn scenarios
// drive one Fabric and compare it against the frozen oracle in
// tests/net/fabric_oracle.hpp after every mutation and every event — flow
// rates and link rates by bit pattern — so any divergence is a bug in the
// dirty-set component tracking. The counter tests pin how much state a
// refill touches: exactly the flow-connected component of the dirty links.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/fabric_oracle.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::SimTime;

/// Runs a seeded churn scenario — staggered randomized flow starts, a CBR
/// pulse, a link failure/restore, mid-flight reroutes and weight changes —
/// checking the fabric against the oracle throughout. Returns the number of
/// completed flows.
std::uint64_t run_churn(std::uint64_t seed) {
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 4;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo);
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();
  auto check = [&fabric](const std::string& what) {
    expect_fabric_matches_oracle(fabric, what);
  };

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
    pinned.push_back(fabric.start_flow(spec));
    check("pinned start " + std::to_string(i));
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

class IncrementalDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalDifferential, ChurnMatchesOracleAfterEveryMutation) {
  // 4 pinned + 60 randomized flows, every one of which completes.
  EXPECT_EQ(run_churn(GetParam()), 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u));

TEST(IncrementalDifferential, WeightedArrivalsMatchOracleAfterEveryEvent) {
  // 40 weighted flows arriving over the first simulated second on a
  // two-rack, four-spine fabric, checked after every event to the end.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 5;
  cfg.spines = 4;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
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
    spec.size = Bytes{
        static_cast<std::int64_t>(5'000'000 + rng.below(900'000'000))};
    spec.path = paths[rng.below(paths.size())].links;
    spec.weight = rng.uniform(0.5, 4.0);
    sim.at(SimTime{static_cast<std::int64_t>(rng.below(1'000'000'000))},
           [&fabric, spec] { fabric.start_flow(spec); });
  }
  run_checking_oracle(sim, fabric, "weighted arrivals");
  EXPECT_EQ(fabric.flows_completed(), 40u);
}

TEST(IncrementalCounters, DisjointComponentsStayUntouched) {
  // Two flows in different racks share no link; starting the second must not
  // revisit the first one's links. The refill covers exactly the second
  // flow's component: its own two links and itself.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  const Topology topo = make_leaf_spine(cfg);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
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

  ASSERT_EQ(f2.path.size(), 2u);
  EXPECT_EQ(after_second.links_touched - after_first.links_touched,
            f2.path.size());
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

/// One cross-rack shuffle flow over spine 0 of a two-rack, two-spine
/// fabric, with 2 Gb/s of CBR on the rack-0 uplink it crosses.
struct EmptiedUplink {
  Topology topo = make_leaf_spine(LeafSpineConfig{});
  RoutingGraph routing{topo, 2};
  sim::Simulation sim;
  Fabric fabric{sim, topo};
  FlowId flow;
  LinkId uplink;

  explicit EmptiedUplink(std::int64_t bytes) {
    const auto hosts = topo.hosts();
    FlowSpec spec;
    spec.src = hosts[0];
    spec.dst = hosts[hosts.size() - 1];
    spec.size = Bytes{bytes};
    spec.cls = FlowClass::kShuffle;
    spec.path = routing.paths(spec.src, spec.dst)[0].links;
    uplink = spec.path[1];  // tor-0 -> spine
    fabric.start_cbr({uplink}, BitsPerSec{2e9});
    flow = fabric.start_flow(spec);
  }

  /// The uplink carries only its CBR: zero elastic and per-class rates,
  /// bit for bit, and a utilization of CBR / capacity.
  void expect_cbr_only() const {
    EXPECT_EQ(fabric.flows_crossing(uplink).size(), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  fabric.link_elastic_rate(uplink).bps()),
              0u);
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    fabric.link_class_rate(uplink, static_cast<FlowClass>(c))
                        .bps()),
                0u)
          << "class " << c;
    }
    EXPECT_EQ(fabric.link_utilization(uplink),
              2e9 / topo.link(uplink).capacity.bps());
  }
};

TEST(EmptiedLinkRates, ZeroAfterLastFlowReroutedAway) {
  EmptiedUplink s(10'000'000'000);
  ASSERT_GT(s.fabric.link_elastic_rate(s.uplink).bps(), 0.0);
  ASSERT_GT(
      s.fabric.link_class_rate(s.uplink, FlowClass::kShuffle).bps(), 0.0);
  const FlowSpec& spec = s.fabric.flow(s.flow).spec;
  const auto& alt = s.routing.paths(spec.src, spec.dst)[1].links;
  ASSERT_EQ(std::count(alt.begin(), alt.end(), s.uplink), 0);
  s.fabric.reroute_flow(s.flow, alt);
  s.expect_cbr_only();
}

TEST(EmptiedLinkRates, ZeroAfterLastFlowCompletes) {
  EmptiedUplink s(1'000'000);
  ASSERT_GT(s.fabric.link_elastic_rate(s.uplink).bps(), 0.0);
  s.sim.run();
  ASSERT_FALSE(s.fabric.flow_active(s.flow));
  s.expect_cbr_only();
}

}  // namespace
}  // namespace pythia::net

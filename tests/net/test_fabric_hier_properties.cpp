// Property and invariant suite for the fabric's arena machinery: exact
// observer byte conservation, arena-mirror consistency (the SoA copies must
// track Flow::spec at every instant), the exact component a pod-local
// change refills, and the stale-slot discipline that turns use-after-recycle
// path reads into deterministic debug aborts — mirroring PathId's
// generation-stamp guard in the routing layer. The weighted max-min
// certificate on fat-trees lives in test_maxmin_properties.cpp.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::Bytes;
using util::SimTime;

/// Accumulates on_bytes_moved per flow and checks the exact-conservation
/// contract: cumulative observer bytes equal spec.size at completion.
class ByteLedger : public FabricObserver {
 public:
  void on_bytes_moved(const Fabric&, FlowId flow, Bytes moved, SimTime,
                      SimTime) override {
    moved_[flow.value()] += moved.count();
  }
  void on_flow_completed(const Fabric& fabric, FlowId flow,
                         SimTime) override {
    // Slot totals reset on recycle: record the finished ledger entry now.
    completed_.emplace_back(fabric.flow(flow).spec.size.count(),
                            moved_[flow.value()]);
    moved_[flow.value()] = 0;
  }

  /// (spec size, observed total) per completed flow.
  std::vector<std::pair<std::int64_t, std::int64_t>> completed_;

 private:
  std::map<std::uint32_t, std::int64_t> moved_;
};

TEST(HierByteConservation, ObserverTotalsEqualSpecSizeExactly) {
  // Churny mix (uneven sizes, a zero-byte flow, fractional-rate divisions)
  // through the arena fill: every completed flow's
  // observer byte total must equal its spec size exactly — integer
  // equality, no tolerance — which proves the settle/report residue
  // carrying survives arena completion handling.
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  sim::Simulation sim(21);
  Fabric fabric(sim, topo);
  ByteLedger ledger;
  fabric.add_observer(&ledger);
  util::Xoshiro256 rng(21);
  const auto hosts = topo.hosts();

  constexpr int kFlows = 48;
  for (int i = 0; i < kFlows; ++i) {
    const auto at = SimTime{static_cast<std::int64_t>(rng.below(500'000'000))};
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto path = paths[rng.below(paths.size())].links;
    const auto size = static_cast<std::int64_t>(
        i % 7 == 6 ? 0 : 999'983 + rng.below(50'000'000));  // prime-ish odd sizes
    sim.at(at, [&fabric, src, dst, path, size] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      fabric.start_flow(spec);
    });
  }
  sim.run();

  ASSERT_EQ(ledger.completed_.size(), static_cast<std::size_t>(kFlows));
  for (const auto& [spec_size, observed] : ledger.completed_) {
    EXPECT_EQ(observed, spec_size);  // exact, to the byte
  }
}

TEST(HierArenaMirrors, PathViewTracksSpecThroughChurn) {
  // At every probe instant, flow_path() (arena row) must equal
  // Flow::spec.path (authoritative copy) element-for-element for every
  // active flow — including right after reroutes, which rewrite the row.
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  sim::Simulation sim(31);
  Fabric fabric(sim, topo);
  util::Xoshiro256 rng(31);
  const auto hosts = topo.hosts();

  std::vector<FlowId> started;
  for (int i = 0; i < 40; ++i) {
    const auto at = SimTime{static_cast<std::int64_t>(rng.below(800'000'000))};
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto path = paths[rng.below(paths.size())].links;
    const auto size =
        static_cast<std::int64_t>(5'000'000 + rng.below(200'000'000));
    sim.at(at, [&fabric, &started, src, dst, path, size] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      started.push_back(fabric.start_flow(spec));
    });
  }
  // Mid-run reroutes rewrite arena rows (often into different size buckets).
  sim.at(SimTime::from_seconds(0.5), [&] {
    for (FlowId f : started) {
      if (!fabric.flow_active(f)) continue;
      const auto& spec = fabric.flow(f).spec;
      const auto& alts = routing.paths(spec.src, spec.dst);
      fabric.reroute_flow(f, alts[alts.size() - 1].links);
    }
  });

  for (const double at_s : {0.3, 0.55, 0.9, 1.5}) {
    sim.run_until(SimTime::from_seconds(at_s));
    for (FlowId f : fabric.active_flows()) {
      const auto view = fabric.flow_path(f);
      const auto& spec_path = fabric.flow(f).spec.path;
      ASSERT_EQ(view.size(), spec_path.size()) << "flow " << f.value();
      for (std::size_t i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view[i], spec_path[i])
            << "flow " << f.value() << " hop " << i;
      }
    }
  }
  sim.run();
}

TEST(HierArenaMirrors, PodLocalStartTouchesExactComponent) {
  // Component exactness, asserted via counters: an intra-pod flow start on
  // an otherwise busy fat-tree refills its own path's links and itself, and
  // touches no link or flow confined to other pods.
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  const auto hosts_per_pod = hosts.size() / cfg.k;

  // Fill pods 1..3 with intra-pod flows.
  for (std::size_t pod = 1; pod < cfg.k; ++pod) {
    for (int i = 0; i < 6; ++i) {
      const NodeId src = hosts[pod * hosts_per_pod + (i % hosts_per_pod)];
      const NodeId dst =
          hosts[pod * hosts_per_pod + ((i + 1) % hosts_per_pod)];
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{10'000'000'000};
      spec.path = routing.paths(src, dst)[0].links;
      fabric.start_flow(spec);
    }
  }
  const auto before = fabric.counters();

  // One intra-pod flow in pod 0: its component is pod-0-local.
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[1];
  spec.size = Bytes{10'000'000'000};
  spec.path = routing.paths(spec.src, spec.dst)[0].links;
  fabric.start_flow(spec);
  const auto after = fabric.counters();

  // 18 flows live in pods 1..3; pod 0 carries only the new flow, so its
  // component is exactly that flow and the links of its path.
  ASSERT_EQ(spec.path.size(), 2u);  // host -> edge -> host
  EXPECT_EQ(after.links_touched - before.links_touched, spec.path.size());
  EXPECT_EQ(after.flows_touched - before.flows_touched, 1u);
  EXPECT_EQ(after.full_fills, before.full_fills);
}

#ifndef NDEBUG
TEST(HierStaleSlotDeathTest, RecycledPathRowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[1];
  spec.size = Bytes{1'000'000};
  spec.path = routing.paths(spec.src, spec.dst)[0].links;
  const FlowId id = fabric.start_flow(spec);
  sim.run();  // flow completes; its arena path row is freed
  ASSERT_FALSE(fabric.flow_active(id));
  EXPECT_DEATH((void)fabric.flow_path(id), "stale FlowId");
}
#else
TEST(HierStaleSlot, RecycledPathRowReadsEmptyInRelease) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[1];
  spec.size = Bytes{1'000'000};
  spec.path = routing.paths(spec.src, spec.dst)[0].links;
  const FlowId id = fabric.start_flow(spec);
  sim.run();
  ASSERT_FALSE(fabric.flow_active(id));
  EXPECT_TRUE(fabric.flow_path(id).empty());
}
#endif

}  // namespace
}  // namespace pythia::net

#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "net/routing_oracle.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;

Topology diamond() {
  // a -> {x, y} -> b : two 2-hop paths.
  Topology topo;
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  const NodeId x = topo.add_switch("x");
  const NodeId y = topo.add_switch("y");
  topo.add_duplex(a, x, BitsPerSec{1e9});
  topo.add_duplex(a, y, BitsPerSec{1e9});
  topo.add_duplex(x, b, BitsPerSec{1e9});
  topo.add_duplex(y, b, BitsPerSec{1e9});
  return topo;
}

TEST(ShortestPath, TrivialAndSelf) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto self = shortest_path(topo, hosts[0], hosts[0]);
  ASSERT_TRUE(self.has_value());
  EXPECT_TRUE(self->links.empty());

  const auto p = shortest_path(topo, hosts[0], hosts[1]);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_TRUE(topo.validate_path(hosts[0], hosts[1], p->links));
}

TEST(ShortestPath, RespectsBannedLinks) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto first = shortest_path(topo, hosts[0], hosts[1]);
  ASSERT_TRUE(first.has_value());
  const auto second = shortest_path(topo, hosts[0], hosts[1],
                                    {first->links.front()});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->links, second->links);
  // Banning both first hops disconnects the pair.
  const auto none = shortest_path(
      topo, hosts[0], hosts[1],
      {first->links.front(), second->links.front()});
  EXPECT_FALSE(none.has_value());
}

TEST(ShortestPath, RespectsBannedNodes) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();
  const auto p = shortest_path(topo, hosts[0], hosts[1], {},
                               {switches[0], switches[1]});
  EXPECT_FALSE(p.has_value());
}

TEST(ShortestPath, DeterministicTieBreak) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto a = shortest_path(topo, hosts[0], hosts[1]);
  const auto b = shortest_path(topo, hosts[0], hosts[1]);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->links, b->links);
}

TEST(KShortest, FindsBothDiamondPaths) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[1], 4);
  ASSERT_EQ(paths.size(), 2u);  // only two loop-free paths exist
  EXPECT_EQ(paths[0].hops(), 2u);
  EXPECT_EQ(paths[1].hops(), 2u);
  EXPECT_NE(paths[0].links, paths[1].links);
  for (const auto& p : paths) {
    EXPECT_TRUE(topo.validate_path(hosts[0], hosts[1], p.links));
  }
}

TEST(KShortest, TwoRackParallelCables) {
  TwoRackConfig cfg;
  cfg.inter_rack_links = 3;
  const Topology topo = make_two_rack(cfg);
  const auto hosts = topo.hosts();
  const NodeId src = hosts[0];
  const NodeId dst = hosts[9];
  const auto paths = k_shortest_paths(topo, src, dst, 8);
  // Three parallel cables -> exactly three 4-hop inter-rack paths.
  ASSERT_EQ(paths.size(), 3u);
  std::set<std::vector<LinkId>> unique;
  for (const auto& p : paths) {
    EXPECT_EQ(p.hops(), 4u);
    EXPECT_TRUE(topo.validate_path(src, dst, p.links));
    unique.insert(p.links);
  }
  EXPECT_EQ(unique.size(), 3u);
}

TEST(KShortest, SameRackSinglePath) {
  const Topology topo = make_two_rack({});
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[1], 4);
  ASSERT_EQ(paths.size(), 1u);  // via the shared ToR only
  EXPECT_EQ(paths[0].hops(), 2u);
}

TEST(KShortest, NondecreasingLengths) {
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 2;
  cfg.spines = 4;
  const Topology topo = make_leaf_spine(cfg);
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[3], 16);
  ASSERT_GE(paths.size(), 4u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].hops(), paths[i - 1].hops());
  }
}

TEST(KShortest, KZeroAndDisconnected) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  EXPECT_TRUE(k_shortest_paths(topo, hosts[0], hosts[1], 0).empty());

  Topology island;
  const NodeId a = island.add_host("a", 0);
  const NodeId b = island.add_host("b", 1);
  EXPECT_TRUE(k_shortest_paths(island, a, b, 3).empty());
}

TEST(RoutingGraph, ServesEveryHostPair) {
  const Topology topo = make_two_rack({});
  const RoutingGraph rg(topo, 2);
  const auto hosts = topo.hosts();
  for (NodeId a : hosts) {
    for (NodeId b : hosts) {
      if (a == b) continue;
      const auto& paths = rg.paths(a, b);
      ASSERT_FALSE(paths.empty()) << a.value() << "->" << b.value();
      const bool cross_rack = topo.node(a).rack != topo.node(b).rack;
      EXPECT_EQ(paths.size(), cross_rack ? 2u : 1u);
    }
  }
  EXPECT_EQ(rg.k(), 2u);
}

TEST(PathPool, InternDeduplicatesAndKeepsReferencesStable) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[1], 4);
  ASSERT_EQ(paths.size(), 2u);

  PathPool pool;
  const PathId a = pool.intern(paths[0]);
  const PathId b = pool.intern(paths[1]);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  // Interning the same link sequence again returns the same id.
  EXPECT_EQ(pool.intern(paths[0]), a);
  EXPECT_EQ(pool.intern(paths[1]), b);
  EXPECT_EQ(pool.size(), 2u);

  // References stay valid as the pool grows (deque storage).
  const Path* first = &pool.path(a);
  for (int i = 0; i < 1000; ++i) {
    Path p;
    p.links.push_back(LinkId{static_cast<std::uint32_t>(i + 100)});
    pool.intern(std::move(p));
  }
  EXPECT_EQ(first, &pool.path(a));
  EXPECT_EQ(pool.path(a).links, paths[0].links);
}

TEST(RoutingGraph, HasPathsAndHostPairQueries) {
  const Topology topo = make_two_rack({});
  const RoutingGraph rg(topo, 2);
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();

  EXPECT_TRUE(rg.is_host_pair(hosts[0], hosts[9]));
  EXPECT_TRUE(rg.has_paths(hosts[0], hosts[9]));
  // Switches are not hosts: no precomputed entry exists.
  EXPECT_FALSE(rg.is_host_pair(hosts[0], switches[0]));
  EXPECT_FALSE(rg.has_paths(hosts[0], switches[0]));
  EXPECT_FALSE(rg.is_host_pair(switches[0], switches[1]));
  // The diagonal is a valid host pair with no paths computed for it.
  EXPECT_TRUE(rg.is_host_pair(hosts[0], hosts[0]));
  EXPECT_FALSE(rg.has_paths(hosts[0], hosts[0]));
}

TEST(RoutingGraph, PathsOnUnknownPairDiesInDebug) {
  const Topology topo = make_two_rack({});
  const RoutingGraph rg(topo, 2);
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();
#ifndef NDEBUG
  EXPECT_DEATH((void)rg.paths(hosts[0], switches[0]), "must be hosts");
#else
  EXPECT_TRUE(rg.paths(hosts[0], switches[0]).empty());
#endif
}

TEST(RoutingGraph, BanAndRestoreMatchesOracle) {
  TwoRackConfig cfg;
  cfg.inter_rack_links = 3;
  const Topology topo = make_two_rack(cfg);
  RoutingGraph rg(topo, 4);
  const auto hosts = topo.hosts();

  // Ban one inter-rack cable, then a second, then restore both.
  const LinkId victim = rg.paths(hosts[0], hosts[9])[0].links[1];
  const LinkId second = rg.paths(hosts[0], hosts[9])[1].links[1];
  const std::vector<std::unordered_set<LinkId>> steps = {
      {victim}, {victim, second}, {second}, {}};
  for (const auto& banned : steps) {
    rg.rebuild(banned);
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(rg, banned, "ban/restore"));
  }
  // Every step changed the banned set, so every step rebuilt the table.
  EXPECT_EQ(rg.counters().full_rebuilds, 1 + steps.size());
  EXPECT_EQ(rg.counters().noop_rebuilds, 0u);
}

TEST(RoutingGraph, NoopRebuildRecomputesNothing) {
  const Topology topo = make_two_rack({});
  RoutingGraph rg(topo, 2);
  const auto before = rg.counters();
  rg.rebuild();  // same (empty) ban set
  const auto after = rg.counters();
  // A no-op delta early-returns: no recomputation, no rebuild-counter bump
  // — only the dedicated noop counter moves.
  EXPECT_EQ(after.pairs_recomputed, before.pairs_recomputed);
  EXPECT_EQ(after.full_rebuilds, before.full_rebuilds);
  EXPECT_EQ(after.noop_rebuilds, before.noop_rebuilds + 1);
}

}  // namespace
}  // namespace pythia::net

// Property tests for k-shortest-path routing: cross-checked against
// brute-force enumeration of all loop-free paths on randomized graphs, and
// link for link (order among equal-length paths included) against the
// frozen Yen oracle in routing_oracle.hpp on those graphs, on the
// e2ebench topologies under seeded ban sets, and on random graphs with
// one-way and parallel links.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"
#include "net/routing_oracle.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;

/// `prefix` followed by `n` (built by append: GCC 12 reports a false
/// -Wrestrict on an inlined `"literal" + std::to_string(n)`).
std::string label(const char* prefix, std::uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

/// Random connected-ish graph: `hosts` hosts, `switches` switches, each host
/// wired to one switch, plus `extra_edges` random switch-switch cables.
Topology random_topology(util::Xoshiro256& rng, std::size_t hosts,
                         std::size_t switches, std::size_t extra_edges) {
  Topology topo;
  std::vector<NodeId> sw;
  sw.reserve(switches);
  for (std::size_t i = 0; i < switches; ++i) {
    sw.push_back(topo.add_switch(label("s", i)));
  }
  // Switch ring so the graph is connected.
  for (std::size_t i = 0; i + 1 < switches; ++i) {
    topo.add_duplex(sw[i], sw[i + 1], BitsPerSec{1e9});
  }
  for (std::size_t i = 0; i < hosts; ++i) {
    const NodeId h = topo.add_host(label("h", i), static_cast<int>(i % 2));
    topo.add_duplex(h, sw[rng.below(switches)], BitsPerSec{1e9});
  }
  for (std::size_t i = 0; i < extra_edges; ++i) {
    const NodeId a = sw[rng.below(switches)];
    const NodeId b = sw[rng.below(switches)];
    if (a != b) topo.add_duplex(a, b, BitsPerSec{1e9});
  }
  return topo;
}

/// All loop-free (node-simple) link paths from src to dst, by DFS.
std::vector<Path> enumerate_paths(const Topology& topo, NodeId src,
                                  NodeId dst, std::size_t max_hops = 10) {
  std::vector<Path> out;
  std::vector<LinkId> stack;
  std::set<NodeId> visited{src};
  std::function<void(NodeId)> dfs = [&](NodeId at) {
    if (stack.size() > max_hops) return;
    if (at == dst) {
      out.push_back(Path{stack});
      return;
    }
    for (LinkId l : topo.out_links(at)) {
      const NodeId next = topo.link(l).dst;
      if (visited.contains(next)) continue;
      visited.insert(next);
      stack.push_back(l);
      dfs(next);
      stack.pop_back();
      visited.erase(next);
    }
  };
  dfs(src);
  return out;
}

class RoutingVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingVsBruteForce, KShortestMatchesEnumeration) {
  util::Xoshiro256 rng(GetParam());
  const Topology topo = random_topology(rng, 4, 5, 3);
  const auto hosts = topo.hosts();

  for (NodeId src : hosts) {
    for (NodeId dst : hosts) {
      if (src == dst) continue;
      auto all = enumerate_paths(topo, src, dst);
      std::sort(all.begin(), all.end(), [](const Path& a, const Path& b) {
        return a.hops() < b.hops();
      });
      for (const std::size_t k : {1UL, 2UL, 4UL, 16UL}) {
        ASSERT_NO_FATAL_FAILURE(
            expect_yen_matches_oracle(topo, src, dst, k, {}, "brute force"));
        const auto got = k_shortest_paths(topo, src, dst, k);
        // Cardinality: min(k, #loop-free paths).
        ASSERT_EQ(got.size(), std::min(k, all.size()))
            << src.value() << "->" << dst.value() << " k=" << k;
        std::set<std::vector<LinkId>> seen;
        for (std::size_t i = 0; i < got.size(); ++i) {
          // Valid, loop-free, distinct.
          EXPECT_TRUE(topo.validate_path(src, dst, got[i].links));
          EXPECT_TRUE(seen.insert(got[i].links).second);
          // Appears in the brute-force enumeration.
          EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                                  [&](const Path& p) {
                                    return p.links == got[i].links;
                                  }));
          // Nondecreasing lengths, and the i-th matches the i-th shortest
          // possible length.
          EXPECT_EQ(got[i].hops(), all[i].hops());
          if (i > 0) {
            EXPECT_GE(got[i].hops(), got[i - 1].hops());
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 25));

/// Small-world variant: <= 8 nodes but denser wiring, where Yen's spur
/// bookkeeping (per-spur ban epochs, candidate dedup) sees the most
/// duplicate candidates per spur.
class DenseSmallGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DenseSmallGraphs, KShortestMatchesEnumeration) {
  util::Xoshiro256 rng(GetParam());
  // 3 hosts + 5 switches = 8 nodes; ring + 6 chords approaches a clique.
  const Topology topo = random_topology(rng, 3, 5, 6);
  const auto hosts = topo.hosts();

  for (NodeId src : hosts) {
    for (NodeId dst : hosts) {
      if (src == dst) continue;
      auto all = enumerate_paths(topo, src, dst);
      std::sort(all.begin(), all.end(), [](const Path& a, const Path& b) {
        return a.hops() < b.hops();
      });
      for (const std::size_t k : {1UL, 3UL, 8UL, 64UL}) {
        ASSERT_NO_FATAL_FAILURE(
            expect_yen_matches_oracle(topo, src, dst, k, {}, "dense"));
        const auto got = k_shortest_paths(topo, src, dst, k);
        ASSERT_EQ(got.size(), std::min(k, all.size()))
            << src.value() << "->" << dst.value() << " k=" << k;
        std::set<std::vector<LinkId>> seen;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(topo.validate_path(src, dst, got[i].links));
          EXPECT_TRUE(seen.insert(got[i].links).second);
          EXPECT_EQ(got[i].hops(), all[i].hops());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseSmallGraphs,
                         ::testing::Range<std::uint64_t>(100, 116));

TEST(RoutingDeterminism, IdenticalAcrossRuns) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Xoshiro256 rng_a(seed);
    util::Xoshiro256 rng_b(seed);
    const Topology ta = random_topology(rng_a, 4, 5, 3);
    const Topology tb = random_topology(rng_b, 4, 5, 3);
    const auto hosts = ta.hosts();
    for (NodeId src : hosts) {
      for (NodeId dst : hosts) {
        if (src == dst) continue;
        const auto pa = k_shortest_paths(ta, src, dst, 8);
        const auto pb = k_shortest_paths(tb, src, dst, 8);
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
          EXPECT_EQ(pa[i].links, pb[i].links);
        }
      }
    }
  }
}

// --- Differentials against the frozen oracle --------------------------------
//
// Each shape is checked through a RoutingGraph (the production caller: one
// search engine whose scratch is reused across pairs and rebuilds) and, on
// the small graphs, through the free k_shortest_paths as well.

/// Forward link of every duplex cable (the one whose reverse has a larger
/// id); banning a cable bans both directions, as a link flap does.
std::vector<LinkId> duplex_cables(const Topology& topo) {
  std::vector<LinkId> out;
  for (const Link& link : topo.links()) {
    const auto peer = topo.find_link(link.dst, link.src);
    if (peer && peer->value() > link.id.value()) out.push_back(link.id);
  }
  return out;
}

/// `count` random cables, both directions banned.
std::unordered_set<LinkId> random_cable_bans(const Topology& topo,
                                             const std::vector<LinkId>& cables,
                                             util::Xoshiro256& rng,
                                             std::size_t count) {
  std::unordered_set<LinkId> banned;
  for (std::size_t i = 0; i < count; ++i) {
    const LinkId l = cables[rng.below(cables.size())];
    banned.insert(l);
    banned.insert(*topo.find_link(topo.link(l).dst, topo.link(l).src));
  }
  return banned;
}

/// Checks the ordered host pairs with a source in `sources` against the
/// oracle through `rg` (already rebuilt to `banned`).
void expect_sources_match(const RoutingGraph& rg,
                          const std::vector<NodeId>& sources,
                          const std::unordered_set<LinkId>& banned,
                          const std::string& what) {
  const auto hosts = rg.topology().hosts();
  for (NodeId a : sources) {
    for (NodeId b : hosts) {
      if (a == b) continue;
      expect_pair_matches_oracle(rg, a, b, banned, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The nutch-leafspine-flap routing graph: 16 racks x 8 servers, 4 spines,
// k = 4. Every host pair unbanned; under 20 seeded 3-cable ban sets, every
// pair leaving one rotating source rack (all 16 racks covered over the
// seeds), all through one graph so scratch reuse across rebuilds is
// exercised too.
TEST(YenOracleShapes, LeafSpine16x8MatchesOracle) {
  const Topology topo = make_leaf_spine(
      LeafSpineConfig{.racks = 16, .servers_per_rack = 8, .spines = 4});
  RoutingGraph rg(topo, 4);
  ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(rg, {}, "unbanned"));
  const auto hosts = topo.hosts();
  const auto cables = duplex_cables(topo);
  util::Xoshiro256 rng(16);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto banned = random_cable_bans(topo, cables, rng, 3);
    rg.rebuild(banned);
    std::vector<NodeId> sources;
    for (std::size_t s = 0; s < 8; ++s) {
      sources.push_back(hosts[(seed % 16) * 8 + s]);
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_sources_match(rg, sources, banned, label("ban set ", seed)));
  }
}

/// Every pair of a fat-tree for each k, unbanned and under 20 seeded
/// 3-cable ban sets (sources thinned to `source_stride` under bans).
void check_fat_tree(std::size_t arity, std::initializer_list<std::size_t> ks,
                    std::size_t source_stride) {
  FatTreeConfig cfg;
  cfg.k = arity;
  const Topology topo = make_fat_tree(cfg);
  const auto hosts = topo.hosts();
  const auto cables = duplex_cables(topo);
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < hosts.size(); i += source_stride) {
    sources.push_back(hosts[i]);
  }
  for (const std::size_t k : ks) {
    RoutingGraph rg(topo, k);
    const std::string what = label("fat-tree k", arity);
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(rg, {}, what));
    util::Xoshiro256 rng(arity * 100 + k);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto banned = random_cable_bans(topo, cables, rng, 3);
      rg.rebuild(banned);
      ASSERT_NO_FATAL_FAILURE(
          expect_sources_match(rg, sources, banned,
                               what + label(" ban set ", seed)));
    }
  }
}

TEST(YenOracleShapes, FatTreeK4MatchesOracle) {
  check_fat_tree(4, {1, 4, 8, 16}, 1);
}

TEST(YenOracleShapes, FatTreeK6MatchesOracle) {
  check_fat_tree(6, {4}, 9);
}

TEST(YenOracleShapes, TwoRackMatchesOracle) {
  const Topology topo = make_two_rack({});
  const auto cables = duplex_cables(topo);
  for (const std::size_t k : {1UL, 2UL, 4UL}) {
    RoutingGraph rg(topo, k);
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(rg, {}, "two-rack"));
    util::Xoshiro256 rng(k);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto banned = random_cable_bans(topo, cables, rng, 1);
      rg.rebuild(banned);
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_oracle(rg, banned, label("ban set ", seed)));
    }
  }
}

/// Random switch graph with 4 hosts: a duplex switch ring plus random
/// extra links, some one-way and some parallel to an existing link (the
/// same switch pair drawn twice), so tie-breaks between parallel links and
/// unreachable directed pairs are both exercised.
Topology random_directed_topology(util::Xoshiro256& rng) {
  Topology topo;
  const std::size_t switches = 3 + rng.below(6);
  std::vector<NodeId> sw;
  for (std::size_t i = 0; i < switches; ++i) {
    sw.push_back(topo.add_switch(label("s", i)));
  }
  for (std::size_t i = 0; i + 1 < switches; ++i) {
    topo.add_duplex(sw[i], sw[i + 1], BitsPerSec{1e9});
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const NodeId h = topo.add_host(label("h", i), static_cast<int>(i % 2));
    const NodeId s = sw[rng.below(switches)];
    // Mostly duplex access; an occasional one-way host link leaves some
    // directed pairs unreachable.
    if (rng.below(6) == 0) {
      topo.add_link(h, s, BitsPerSec{1e9});
    } else {
      topo.add_duplex(h, s, BitsPerSec{1e9});
    }
  }
  const std::size_t extra = 2 + rng.below(2 * switches);
  for (std::size_t i = 0; i < extra; ++i) {
    const NodeId a = sw[rng.below(switches)];
    const NodeId b = sw[rng.below(switches)];
    if (a == b) continue;
    const int copies = rng.below(4) == 0 ? 2 : 1;  // parallel links
    for (int c = 0; c < copies; ++c) {
      if (rng.below(2) == 0) {
        topo.add_link(a, b, BitsPerSec{1e9});
      } else {
        topo.add_duplex(a, b, BitsPerSec{1e9});
      }
    }
  }
  return topo;
}

class YenOracleRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YenOracleRandom, OneWayAndParallelLinksMatchOracle) {
  // 10 graphs per seed x 20 seeds = 200 graphs.
  util::Xoshiro256 rng(GetParam());
  for (int g = 0; g < 10; ++g) {
    const Topology topo = random_directed_topology(rng);
    const auto hosts = topo.hosts();
    // One random single-direction link ban per graph on top of the clean
    // run, so bans on one-way links are covered.
    std::unordered_set<LinkId> banned{
        LinkId{static_cast<std::uint32_t>(rng.below(topo.link_count()))}};
    for (const std::size_t k : {1UL, 3UL, 8UL, 64UL}) {
      RoutingGraph rg(topo, k);
      const std::string what = label("graph ", static_cast<std::uint64_t>(g));
      ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(rg, {}, what));
      rg.rebuild(banned);
      ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(rg, banned, what));
      for (NodeId a : hosts) {
        for (NodeId b : hosts) {
          ASSERT_NO_FATAL_FAILURE(
              expect_yen_matches_oracle(topo, a, b, k, banned, what));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenOracleRandom,
                         ::testing::Range<std::uint64_t>(200, 220));

}  // namespace
}  // namespace pythia::net

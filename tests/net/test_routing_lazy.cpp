// Differential proof for the lazy routing table: whatever mix of paths()
// queries, link fail/restore churn, and snapshot encoding a run performs,
// every pair the graph serves must equal a direct per-pair Yen run under the
// current banned set, and encode_state must match a fresh graph rebuilt to
// the same banned set — query order and history never show.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/routing_oracle.hpp"
#include "net/topology.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

std::vector<std::uint8_t> encoded_state(const RoutingGraph& rg) {
  sim::StateEncoder enc;
  rg.encode_state(enc);
  return enc.take();
}

/// encode_state of a never-queried graph rebuilt straight to `banned`.
std::vector<std::uint8_t> fresh_encoded_state(
    const Topology& topo, std::size_t k,
    const std::unordered_set<LinkId>& banned) {
  RoutingGraph fresh(topo, k);
  fresh.rebuild(banned);
  return encoded_state(fresh);
}

Topology small_fat_tree() {
  FatTreeConfig cfg;
  cfg.k = 4;
  return make_fat_tree(cfg);
}

TEST(LazyRouting, ConstructionDoesNoYenWork) {
  const Topology topo = small_fat_tree();
  const RoutingGraph rg(topo, 4);
  EXPECT_EQ(rg.pairs_materialized(), 0u);
  EXPECT_EQ(rg.counters().pairs_recomputed, 0u);
  EXPECT_EQ(rg.counters().full_rebuilds, 1u);
}

TEST(LazyRouting, FirstQueryMaterializesAndMatchesOracle) {
  const Topology topo = small_fat_tree();
  const RoutingGraph lazy(topo, 4);
  const auto hosts = topo.hosts();

  // Query in deliberately scrambled order: results must not depend on it.
  std::vector<std::pair<NodeId, NodeId>> order;
  for (NodeId s : hosts) {
    for (NodeId d : hosts) {
      if (s != d) order.emplace_back(s, d);
    }
  }
  util::Xoshiro256 rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::size_t seen = 0;
  for (const auto& [s, d] : order) {
    ASSERT_NO_FATAL_FAILURE(
        expect_pair_matches_oracle(lazy, s, d, {}, "scrambled"));
    ++seen;
    EXPECT_EQ(lazy.pairs_materialized(), seen);
  }
  EXPECT_EQ(lazy.counters().lazy_materializations, order.size());
}

TEST(LazyRouting, HasPathsMaterializesOnDemand) {
  const Topology topo = make_two_rack({});
  const RoutingGraph lazy(topo, 2);
  const auto hosts = topo.hosts();
  EXPECT_EQ(lazy.pairs_materialized(), 0u);
  EXPECT_TRUE(lazy.has_paths(hosts[0], hosts[9]));
  EXPECT_EQ(lazy.pairs_materialized(), 1u);
}

TEST(LazyRouting, EncodeStateIdenticalAcrossCoverage) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();

  // Untouched, partially queried, and fully materialized graphs must all
  // encode the same bytes (encode_state forces materialization in slot
  // order).
  const RoutingGraph untouched(topo, 4);
  RoutingGraph partial(topo, 4);
  (void)partial.paths(hosts[3], hosts[11]);
  (void)partial.paths(hosts[8], hosts[1]);
  RoutingGraph complete(topo, 4);
  ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(complete, {}, "complete"));

  const auto reference = encoded_state(complete);
  EXPECT_EQ(encoded_state(untouched), reference);
  EXPECT_EQ(encoded_state(partial), reference);
  // Encoding materialized everything as a side effect.
  EXPECT_EQ(untouched.pairs_materialized(), complete.pairs_materialized());
}

TEST(LazyRouting, RebuildInvalidatesInsteadOfRecomputing) {
  const Topology topo = small_fat_tree();
  RoutingGraph lazy(topo, 4);
  const auto hosts = topo.hosts();

  // Materialize one cross-pod pair, then fail a link on its first path.
  const auto before = lazy.paths(hosts.front(), hosts.back());
  ASSERT_FALSE(before.empty());
  const LinkId victim = before[0].links[1];
  const std::unordered_set<LinkId> banned{victim};

  const auto recomputed_before = lazy.counters().pairs_recomputed;
  lazy.rebuild(banned);
  // The rebuild itself did no Yen work — it only dropped the table.
  EXPECT_EQ(lazy.counters().pairs_recomputed, recomputed_before);
  EXPECT_EQ(lazy.counters().pairs_invalidated, 1u);
  EXPECT_EQ(lazy.counters().full_rebuilds, 2u);
  EXPECT_EQ(lazy.pairs_materialized(), 0u);

  ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(lazy, banned, "after failure"));
  // The retired counters stay at zero.
  EXPECT_EQ(lazy.counters().incremental_rebuilds, 0u);
  EXPECT_EQ(lazy.counters().pairs_reused, 0u);
}

/// A rebuild with an unchanged banned set touches nothing but the noop
/// counter.
TEST(LazyRouting, NoopRebuildBumpsOnlyNoopCounter) {
  const Topology topo = make_two_rack({});
  RoutingGraph rg(topo, 2);
  (void)rg.paths(topo.hosts()[0], topo.hosts()[9]);
  const RoutingCounters before = rg.counters();
  rg.rebuild();    // same (empty) banned set, default argument ...
  rg.rebuild({});  // ... and spelled out
  const RoutingCounters after = rg.counters();
  EXPECT_EQ(after.noop_rebuilds, before.noop_rebuilds + 2);
  EXPECT_EQ(after.full_rebuilds, before.full_rebuilds);
  EXPECT_EQ(after.incremental_rebuilds, before.incremental_rebuilds);
  EXPECT_EQ(after.pairs_recomputed, before.pairs_recomputed);
  EXPECT_EQ(after.pairs_reused, before.pairs_reused);
  EXPECT_EQ(after.pairs_invalidated, before.pairs_invalidated);
  EXPECT_EQ(rg.pairs_materialized(), 1u);
}

/// Randomized interleavings of queries, churn, and snapshot capture: the
/// graph must stay observably identical to the oracle through any such
/// trajectory — tables, encode_state bytes, has_paths answers.
class LazyChurnInterleaving : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LazyChurnInterleaving, LazyMatchesOracleUnderRandomOps) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();
  RoutingGraph lazy(topo, 4);
  util::Xoshiro256 rng(GetParam());

  std::vector<LinkId> cables;
  for (const auto& link : topo.links()) {
    if (topo.node(link.src).kind == NodeKind::kSwitch &&
        topo.node(link.dst).kind == NodeKind::kSwitch) {
      cables.push_back(link.id);
    }
  }
  std::unordered_set<LinkId> banned;

  for (int step = 0; step < 60; ++step) {
    const std::string what = "step " + std::to_string(step);
    switch (rng.below(4)) {
      case 0: {  // toggle a cable (duplex, like the controller does)
        const LinkId l = cables[rng.below(cables.size())];
        const auto peer =
            topo.find_link(topo.link(l).dst, topo.link(l).src);
        if (banned.contains(l)) {
          banned.erase(l);
          if (peer) banned.erase(*peer);
        } else {
          banned.insert(l);
          if (peer) banned.insert(*peer);
        }
        lazy.rebuild(banned);
        break;
      }
      case 1: {  // snapshot capture must agree byte-for-byte
        ASSERT_EQ(encoded_state(lazy), fresh_encoded_state(topo, 4, banned))
            << what;
        break;
      }
      default: {  // query a random pair
        const NodeId s = hosts[rng.below(hosts.size())];
        NodeId d = s;
        while (d == s) d = hosts[rng.below(hosts.size())];
        ASSERT_EQ(lazy.has_paths(s, d),
                  !k_shortest_paths(topo, s, d, 4, banned).empty())
            << what;
        ASSERT_NO_FATAL_FAILURE(
            expect_pair_matches_oracle(lazy, s, d, banned, what));
        break;
      }
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(lazy, banned, "final"));
  EXPECT_EQ(encoded_state(lazy), fresh_encoded_state(topo, 4, banned));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyChurnInterleaving,
                         ::testing::Values(1, 17, 404, 90210));

}  // namespace
}  // namespace pythia::net

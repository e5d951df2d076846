// Churn differential for the routing table: drive randomized link
// failure/restore sequences and require every pair the graph serves to equal
// a direct per-pair Yen run under the current banned set. Each rebuild drops
// the whole table, so this pins that nothing computed under an old banned
// set is ever served under a new one.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"
#include "net/routing_oracle.hpp"
#include "net/topology.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

/// Runs `steps` random fail/restore events against two graphs: one queried
/// in full after every step, one only sparsely. Links fail in duplex pairs
/// (a physical cable takes both directions), which is also what the
/// controller does on handle_link_failure.
void run_churn(const Topology& topo, std::size_t k, std::uint64_t seed,
               int steps) {
  // `full` is checked (and therefore fully materialized) every step;
  // `sparse` only ever sees a handful of random queries per step, so it
  // stays partially materialized throughout.
  RoutingGraph full(topo, k);
  RoutingGraph sparse(topo, k);
  util::Xoshiro256 rng(seed);

  // Only switch-switch cables fail: losing a host's single access link just
  // disconnects it, which is legal but uninteresting churn.
  std::vector<LinkId> cables;
  for (const auto& link : topo.links()) {
    if (topo.node(link.src).kind == NodeKind::kSwitch &&
        topo.node(link.dst).kind == NodeKind::kSwitch) {
      cables.push_back(link.id);
    }
  }
  ASSERT_FALSE(cables.empty());

  std::unordered_set<LinkId> banned;
  for (int step = 0; step < steps; ++step) {
    const std::string what = "step " + std::to_string(step);
    const LinkId l = cables[rng.below(cables.size())];
    const auto peer = topo.find_link(topo.link(l).dst, topo.link(l).src);
    if (banned.contains(l)) {
      banned.erase(l);
      if (peer) banned.erase(*peer);
    } else {
      banned.insert(l);
      if (peer) banned.insert(*peer);
    }
    full.rebuild(banned);
    sparse.rebuild(banned);
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(full, banned, what));
    const auto hosts = topo.hosts();
    for (int q = 0; q < 4; ++q) {
      const NodeId a = hosts[rng.below(hosts.size())];
      NodeId b = a;
      while (b == a) b = hosts[rng.below(hosts.size())];
      ASSERT_NO_FATAL_FAILURE(
          expect_pair_matches_oracle(sparse, a, b, banned, "sparse " + what));
    }
  }
  // The sparse graph never paid for pairs nobody asked about.
  EXPECT_LT(sparse.pairs_materialized(), full.pairs_materialized());
  // Final sweep: the sparse graph, fully queried now, agrees everywhere.
  expect_matches_oracle(sparse, banned, "sparse final");
}

class FatTreeChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FatTreeChurn, MatchesYenOracle) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  run_churn(topo, 4, GetParam(), 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FatTreeChurn,
                         ::testing::Values(1, 7, 42, 1234, 99999));

class LeafSpineChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeafSpineChurn, MatchesYenOracle) {
  LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 3;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  run_churn(topo, 8, GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSpineChurn,
                         ::testing::Values(3, 17, 2026));

TEST(FatTreeChurnDeep, ManyStepsOneSeed) {
  // One long trajectory: repeated fail/restore cycles, including restores
  // that return starved pairs to their full candidate sets.
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  run_churn(topo, 4, 0xC0FFEE, 40);
}

}  // namespace
}  // namespace pythia::net

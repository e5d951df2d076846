// Differential proof for BuildMode::kLazy and the parallel eager build:
// whatever mix of paths() queries, link fail/restore churn, and snapshot
// encoding a run performs, a lazy graph must be observably identical to an
// eager twin — same candidate tables, same encode_state bytes — and a
// parallel cold build must be *byte*-identical to a serial one, PathId
// values included (interning order is part of the determinism contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace pythia::net {
namespace {

std::vector<std::uint8_t> encoded_state(const RoutingGraph& rg) {
  sim::StateEncoder enc;
  rg.encode_state(enc);
  return enc.take();
}

void expect_tables_identical(const Topology& topo, const RoutingGraph& a,
                             const RoutingGraph& b, const char* what) {
  for (NodeId s : topo.hosts()) {
    for (NodeId d : topo.hosts()) {
      if (s == d) continue;
      const auto pa = a.paths(s, d);
      const auto pb = b.paths(s, d);
      ASSERT_EQ(pa.size(), pb.size())
          << what << ": pair " << s.value() << "->" << d.value();
      for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i].links, pb[i].links)
            << what << ": pair " << s.value() << "->" << d.value() << " path "
            << i;
      }
    }
  }
}

Topology small_fat_tree() {
  FatTreeConfig cfg;
  cfg.k = 4;
  return make_fat_tree(cfg);
}

TEST(LazyRouting, ConstructionDoesNoYenWork) {
  const Topology topo = small_fat_tree();
  const RoutingGraph rg(topo, 4, BuildMode::kLazy);
  EXPECT_EQ(rg.pairs_materialized(), 0u);
  EXPECT_EQ(rg.counters().pairs_recomputed, 0u);
  EXPECT_EQ(rg.counters().full_rebuilds, 1u);
  EXPECT_EQ(rg.build_mode(), BuildMode::kLazy);
}

TEST(LazyRouting, FirstQueryMaterializesAndMatchesEager) {
  const Topology topo = small_fat_tree();
  const RoutingGraph eager(topo, 4);
  const RoutingGraph lazy(topo, 4, BuildMode::kLazy);
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
    const auto pl = lazy.paths(s, d);
    const auto pe = eager.paths(s, d);
    ASSERT_EQ(pl.size(), pe.size());
    for (std::size_t i = 0; i < pl.size(); ++i) {
      ASSERT_EQ(pl[i].links, pe[i].links);
    }
    ++seen;
    EXPECT_EQ(lazy.pairs_materialized(), seen);
  }
  EXPECT_EQ(lazy.counters().lazy_materializations, order.size());
  EXPECT_EQ(eager.pairs_materialized(), order.size());
}

TEST(LazyRouting, HasPathsMaterializesOnDemand) {
  const Topology topo = make_two_rack({});
  const RoutingGraph lazy(topo, 2, BuildMode::kLazy);
  const auto hosts = topo.hosts();
  EXPECT_EQ(lazy.pairs_materialized(), 0u);
  EXPECT_TRUE(lazy.has_paths(hosts[0], hosts[9]));
  EXPECT_EQ(lazy.pairs_materialized(), 1u);
}

TEST(LazyRouting, EncodeStateIdenticalAcrossModesAndCoverage) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();
  const RoutingGraph eager(topo, 4);

  // Untouched, partially queried, and fully materialized lazy graphs must
  // all encode the same bytes as the eager build (encode_state forces
  // materialization in slot order).
  const RoutingGraph untouched(topo, 4, BuildMode::kLazy);
  RoutingGraph partial(topo, 4, BuildMode::kLazy);
  (void)partial.paths(hosts[3], hosts[11]);
  (void)partial.paths(hosts[8], hosts[1]);
  RoutingGraph complete(topo, 4, BuildMode::kLazy);
  complete.materialize_all();

  const auto reference = encoded_state(eager);
  EXPECT_EQ(encoded_state(untouched), reference);
  EXPECT_EQ(encoded_state(partial), reference);
  EXPECT_EQ(encoded_state(complete), reference);
  // Encoding materialized everything as a side effect.
  EXPECT_EQ(untouched.pairs_materialized(), eager.pairs_materialized());
}

TEST(LazyRouting, RebuildInvalidatesInsteadOfRecomputing) {
  const Topology topo = small_fat_tree();
  RoutingGraph lazy(topo, 4, BuildMode::kLazy);
  RoutingGraph eager(topo, 4);
  const auto hosts = topo.hosts();

  // Materialize one cross-pod pair, then fail a link on its first path.
  const auto before = lazy.paths(hosts.front(), hosts.back());
  ASSERT_FALSE(before.empty());
  const LinkId victim = before[0].links[1];
  std::unordered_set<LinkId> banned{victim};

  const auto recomputed_before = lazy.counters().pairs_recomputed;
  lazy.rebuild(topo, banned);
  eager.rebuild(topo, banned);
  // The rebuild itself did no Yen work on the lazy graph — it only dropped
  // the affected pair.
  EXPECT_EQ(lazy.counters().pairs_recomputed, recomputed_before);
  EXPECT_GE(lazy.counters().pairs_invalidated, 1u);
  EXPECT_EQ(lazy.pairs_materialized(), 0u);

  expect_tables_identical(topo, lazy, eager, "after failure");
}

/// The satellite-3 pin: a rebuild with an unchanged banned set (any mode)
/// touches nothing but the noop counter.
TEST(LazyRouting, NoopRebuildBumpsOnlyNoopCounter) {
  const Topology topo = make_two_rack({});
  for (const BuildMode mode : {BuildMode::kEager, BuildMode::kLazy}) {
    RoutingGraph rg(topo, 2, mode);
    (void)rg.paths(topo.hosts()[0], topo.hosts()[9]);
    const RoutingCounters before = rg.counters();
    rg.rebuild(topo);  // same topology, same (empty) banned set, incremental
    rg.rebuild(topo, {}, RebuildMode::kFull);  // ... and in full mode
    const RoutingCounters after = rg.counters();
    EXPECT_EQ(after.noop_rebuilds, before.noop_rebuilds + 2);
    EXPECT_EQ(after.full_rebuilds, before.full_rebuilds);
    EXPECT_EQ(after.incremental_rebuilds, before.incremental_rebuilds);
    EXPECT_EQ(after.pairs_recomputed, before.pairs_recomputed);
    EXPECT_EQ(after.pairs_reused, before.pairs_reused);
    EXPECT_EQ(after.pairs_invalidated, before.pairs_invalidated);
  }
}

/// Randomized interleavings of queries, churn, and snapshot capture: the
/// lazy graph must stay observably identical to an eager twin through any
/// such trajectory — tables, encode_state bytes, has_paths answers.
class LazyChurnInterleaving : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LazyChurnInterleaving, LazyMatchesEagerUnderRandomOps) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();
  RoutingGraph lazy(topo, 4, BuildMode::kLazy);
  RoutingGraph eager(topo, 4);
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
        lazy.rebuild(topo, banned);
        eager.rebuild(topo, banned);
        break;
      }
      case 1: {  // snapshot capture must agree byte-for-byte
        ASSERT_EQ(encoded_state(lazy), encoded_state(eager)) << "step "
                                                             << step;
        break;
      }
      default: {  // query a random pair
        const NodeId s = hosts[rng.below(hosts.size())];
        NodeId d = s;
        while (d == s) d = hosts[rng.below(hosts.size())];
        ASSERT_EQ(lazy.has_paths(s, d), eager.has_paths(s, d));
        const auto pl = lazy.paths(s, d);
        const auto pe = eager.paths(s, d);
        ASSERT_EQ(pl.size(), pe.size()) << "step " << step;
        for (std::size_t i = 0; i < pl.size(); ++i) {
          ASSERT_EQ(pl[i].links, pe[i].links) << "step " << step;
        }
        break;
      }
    }
  }
  expect_tables_identical(topo, lazy, eager, "final");
  EXPECT_EQ(encoded_state(lazy), encoded_state(eager));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyChurnInterleaving,
                         ::testing::Values(1, 17, 404, 90210));

/// The parallel cold build must match a serial one bit-for-bit, including
/// the PathId values behind the table (interning order is the contract —
/// snapshot images embed behavior, and id-order divergence would betray a
/// scheduling dependence).
TEST(ParallelRouting, ColdBuildMatchesSerialIncludingPathIds) {
  const Topology topo = small_fat_tree();
  const RoutingGraph serial(topo, 4);
  util::ThreadPool pool(4);
  const RoutingGraph parallel(topo, 4, BuildMode::kEager, &pool);

  EXPECT_EQ(parallel.pool().size(), serial.pool().size());
  EXPECT_EQ(parallel.pairs_materialized(), serial.pairs_materialized());
  for (NodeId s : topo.hosts()) {
    for (NodeId d : topo.hosts()) {
      if (s == d) continue;
      const auto ps = serial.paths(s, d);
      const auto pp = parallel.paths(s, d);
      ASSERT_EQ(ps.size(), pp.size());
      for (std::size_t i = 0; i < ps.size(); ++i) {
        ASSERT_EQ(ps.id(i).value(), pp.id(i).value())
            << "pair " << s.value() << "->" << d.value() << " path " << i;
        ASSERT_EQ(ps[i].links, pp[i].links);
      }
    }
  }
  EXPECT_EQ(encoded_state(parallel), encoded_state(serial));
}

TEST(ParallelRouting, MaterializeAllFinishesALazyGraph) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();
  const RoutingGraph serial(topo, 4);
  RoutingGraph lazy(topo, 4, BuildMode::kLazy);
  // Partially materialize in an arbitrary order first: materialize_all must
  // only fill the gaps (slot order), never disturb what is already there.
  (void)lazy.paths(hosts[5], hosts[2]);
  (void)lazy.paths(hosts[0], hosts[15]);
  util::ThreadPool pool(4);
  lazy.materialize_all(&pool);
  EXPECT_EQ(lazy.pairs_materialized(), serial.pairs_materialized());
  expect_tables_identical(topo, lazy, serial, "materialize_all");
  EXPECT_EQ(encoded_state(lazy), encoded_state(serial));
}

TEST(PathPoolGeneration, ClearBumpsGeneration) {
  PathPool pool;
  const std::uint32_t g0 = pool.generation();
  (void)pool.intern(Path{{LinkId{1}, LinkId{2}}});
  pool.clear();
  EXPECT_EQ(pool.generation(), g0 + 1);
}

#ifndef NDEBUG
TEST(PathPoolGenerationDeathTest, StaleIdAssertsAfterTopologySwitch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Topology before = make_two_rack({});
  TwoRackConfig bigger;
  bigger.servers_per_rack = 6;
  const Topology after = make_two_rack(bigger);

  RoutingGraph rg(before, 2);
  const auto hosts = before.hosts();
  const PathId stale = rg.paths(hosts[0], hosts[9]).id(0);
  rg.rebuild(after);  // topology switch: pool cleared, `stale` now dangles
  EXPECT_DEATH((void)rg.path(stale), "stale PathId");
}
#endif

}  // namespace
}  // namespace pythia::net

// Per-pair Yen oracle for RoutingGraph: whatever a graph serves for an
// ordered host pair must equal a direct k_shortest_paths run on the same
// topology, k and banned set, link by link. The graph is a lazy cache in
// front of exactly that computation, so this is its whole contract.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "net/routing.hpp"

namespace pythia::net {

/// Checks one ordered host pair of `rg` (materializing it) against the
/// oracle under `banned`.
inline void expect_pair_matches_oracle(
    const RoutingGraph& rg, NodeId a, NodeId b,
    const std::unordered_set<LinkId>& banned, const std::string& what) {
  const auto want = k_shortest_paths(rg.topology(), a, b, rg.k(), banned);
  const auto got = rg.paths(a, b);
  ASSERT_EQ(got.size(), want.size())
      << what << ": pair " << a.value() << "->" << b.value();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].links, want[i].links)
        << what << ": pair " << a.value() << "->" << b.value() << " path "
        << i;
  }
}

/// Checks every ordered host pair of `rg` (materializing all of them)
/// against the oracle under `banned`; stops at the first mismatch.
inline void expect_matches_oracle(const RoutingGraph& rg,
                                  const std::unordered_set<LinkId>& banned,
                                  const std::string& what) {
  const auto hosts = rg.topology().hosts();
  for (NodeId a : hosts) {
    for (NodeId b : hosts) {
      if (a == b) continue;
      expect_pair_matches_oracle(rg, a, b, banned, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace pythia::net

// Routing oracle: a frozen, self-contained copy of the original hop-count
// Dijkstra + Yen's k-shortest paths (a priority queue ordered by (hops,
// node id), strict-< relaxation, unordered_set bans and dedup), kept here
// so the production search in src/net/routing.cpp is checked against an
// independent implementation rather than against itself. Do not "fix" or
// speed this up: its tie-breaking (order among equal-length paths, parent
// choice among equal-length predecessors) is the contract the production
// search must reproduce link for link.
//
// Also holds the per-pair RoutingGraph check: whatever a graph serves for
// an ordered host pair must equal an oracle run on the same topology, k and
// banned set. The graph is a lazy cache in front of exactly that
// computation, so this is its whole contract.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"

namespace pythia::net {

namespace oracle_detail {

/// Dijkstra state entry; ordering makes the search deterministic: fewer hops
/// first, then smaller node id.
struct QueueEntry {
  std::size_t dist;
  NodeId node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.node.value() > b.node.value();
  }
};

struct LinkSeqHash {
  std::size_t operator()(const std::vector<LinkId>& links) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (LinkId l : links) {
      h ^= l.value();
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace oracle_detail

/// Shortest path by hop count; smaller link ids win ties.
inline std::optional<Path> oracle_shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links = {},
    const std::unordered_set<NodeId>& banned_nodes = {}) {
  using oracle_detail::QueueEntry;
  assert(src.valid() && dst.valid());
  if (src == dst) return Path{};
  if (banned_nodes.contains(src) || banned_nodes.contains(dst)) {
    return std::nullopt;
  }

  constexpr std::size_t kInf = SIZE_MAX;
  std::vector<std::size_t> dist(topo.node_count(), kInf);
  std::vector<LinkId> parent_link(topo.node_count());
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  dist[src.value()] = 0;
  frontier.push(QueueEntry{0, src});

  while (!frontier.empty()) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (d > dist[u.value()]) continue;
    if (u == dst) break;
    for (LinkId l : topo.out_links(u)) {
      if (banned_links.contains(l)) continue;
      const Link& link = topo.link(l);
      if (banned_nodes.contains(link.dst)) continue;
      const std::size_t nd = d + 1;
      // Strict < keeps the first (smallest link id, since out_links is in
      // insertion order and we expand in id order) equal-length parent.
      if (nd < dist[link.dst.value()]) {
        dist[link.dst.value()] = nd;
        parent_link[link.dst.value()] = l;
        frontier.push(QueueEntry{nd, link.dst});
      }
    }
  }

  if (dist[dst.value()] == kInf) return std::nullopt;
  Path path;
  for (NodeId cursor = dst; cursor != src;) {
    const LinkId l = parent_link[cursor.value()];
    path.links.push_back(l);
    cursor = topo.link(l).src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

/// Yen's algorithm: up to `k` loop-free shortest paths in nondecreasing
/// hop-count order, ties broken by link-id sequence.
inline std::vector<Path> oracle_k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links = {}) {
  std::vector<Path> result;
  if (k == 0) return result;
  auto first = oracle_shortest_path(topo, src, dst, banned_links);
  if (!first) return result;
  result.push_back(std::move(*first));

  // Candidate pool ordered by (hops, link-id sequence) for determinism.
  auto path_less = [](const Path& a, const Path& b) {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return std::lexicographical_compare(
        a.links.begin(), a.links.end(), b.links.begin(), b.links.end(),
        [](LinkId x, LinkId y) { return x.value() < y.value(); });
  };
  std::vector<Path> candidates;
  std::unordered_set<std::vector<LinkId>, oracle_detail::LinkSeqHash> seen;
  seen.insert(result.front().links);

  std::unordered_set<LinkId> spur_banned = banned_links;
  std::vector<LinkId> spur_added;

  while (result.size() < k) {
    const Path& prev = result.back();
    std::unordered_set<NodeId> banned_nodes;
    NodeId spur_node = src;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      if (i > 0) {
        banned_nodes.insert(spur_node);
        spur_node = topo.link(prev.links[i - 1]).dst;
      }
      const auto root_begin = prev.links.begin();
      const auto root_end = root_begin + static_cast<std::ptrdiff_t>(i);
      spur_added.clear();
      for (const Path& p : result) {
        if (p.links.size() > i && std::equal(root_begin, root_end,
                                             p.links.begin())) {
          if (spur_banned.insert(p.links[i]).second) {
            spur_added.push_back(p.links[i]);
          }
        }
      }

      auto spur = oracle_shortest_path(topo, spur_node, dst, spur_banned,
                                       banned_nodes);
      for (LinkId l : spur_added) spur_banned.erase(l);
      if (!spur) continue;
      Path total;
      total.links.reserve(i + spur->links.size());
      total.links.insert(total.links.end(), root_begin, root_end);
      total.links.insert(total.links.end(), spur->links.begin(),
                         spur->links.end());
      if (!seen.insert(total.links).second) continue;
      candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(),
                                 path_less);
    result.push_back(std::move(*best));
    candidates.erase(best);
  }
  return result;
}

/// Checks production k_shortest_paths against the oracle for one ordered
/// pair, link by link and in order (ties among equal-length paths included).
inline void expect_yen_matches_oracle(
    const Topology& topo, NodeId a, NodeId b, std::size_t k,
    const std::unordered_set<LinkId>& banned, const std::string& what) {
  const auto want = oracle_k_shortest_paths(topo, a, b, k, banned);
  const auto got = k_shortest_paths(topo, a, b, k, banned);
  ASSERT_EQ(got.size(), want.size())
      << what << ": pair " << a.value() << "->" << b.value() << " k=" << k;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].links, want[i].links)
        << what << ": pair " << a.value() << "->" << b.value() << " k=" << k
        << " path " << i;
  }
}

/// Checks one ordered host pair of `rg` (materializing it) against the
/// oracle under `banned`.
inline void expect_pair_matches_oracle(
    const RoutingGraph& rg, NodeId a, NodeId b,
    const std::unordered_set<LinkId>& banned, const std::string& what) {
  const auto want =
      oracle_k_shortest_paths(rg.topology(), a, b, rg.k(), banned);
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

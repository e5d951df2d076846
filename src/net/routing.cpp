#include "net/routing.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "sim/snapshot.hpp"

namespace pythia::net {

namespace {

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

/// FNV-1a over a link-id sequence; collisions are resolved by full sequence
/// equality wherever this is used.
std::uint64_t link_seq_hash(const std::vector<LinkId>& links) {
  std::uint64_t h = 1469598103934665603ull;
  for (LinkId l : links) {
    h ^= l.value();
    h *= 1099511628211ull;
  }
  return h;
}

struct LinkSeqHash {
  std::size_t operator()(const std::vector<LinkId>& links) const noexcept {
    return static_cast<std::size_t>(link_seq_hash(links));
  }
};

}  // namespace

std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links,
    const std::unordered_set<NodeId>& banned_nodes) {
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

std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links) {
  std::vector<Path> result;
  if (k == 0) return result;
  auto first = shortest_path(topo, src, dst, banned_links);
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
  // Link sequences already in result or candidates — replaces the quadratic
  // std::find scans over both containers with one hashed lookup.
  std::unordered_set<std::vector<LinkId>, LinkSeqHash> seen;
  seen.insert(result.front().links);

  // One scratch banned set shared by every spur computation instead of a
  // fresh copy of banned_links per spur; spur-specific insertions are rolled
  // back after each shortest_path call.
  std::unordered_set<LinkId> spur_banned = banned_links;
  std::vector<LinkId> spur_added;

  while (result.size() < k) {
    const Path& prev = result.back();
    // Spur from every prefix of the previous path. The banned-node set grows
    // with the prefix (root nodes except the spur node stay banned), so it
    // is built incrementally instead of from scratch per spur.
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

      auto spur = shortest_path(topo, spur_node, dst, spur_banned,
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

PathId PathPool::intern(Path path) {
  const std::uint64_t h = link_seq_hash(path.links);
  auto& bucket = index_[h];
  for (std::uint32_t id : bucket) {
    if (paths_[id].links == path.links) return PathId{id};
  }
  const auto id = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(std::move(path));
  bucket.push_back(id);
  return PathId{id};
}

std::vector<Path> PathSet::materialize() const {
  std::vector<Path> out;
  out.reserve(ids_->size());
  for (PathId id : *ids_) out.push_back(pool_->path(id));
  return out;
}

RoutingGraph::RoutingGraph(const Topology& topo, std::size_t k, BuildMode)
    : topo_(&topo), k_(k), hosts_(topo.hosts()) {
  host_slot_.assign(topo.node_count(), kNotHost);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    host_slot_[hosts_[i].value()] = static_cast<std::uint32_t>(i);
  }
  table_.assign(hosts_.size() * hosts_.size(), {});
  materialized_.assign(table_.size(), 0);
  clear_table();
}

void RoutingGraph::rebuild(const std::unordered_set<LinkId>& banned_links) {
  if (banned_links == banned_) {
    // Same banned set: the table could not change. Return before copying
    // the set or bumping rebuild counters; only the no-op count moves
    // (pinned by unit test).
    ++counters_.noop_rebuilds;
    return;
  }
  clear_table();
  banned_ = banned_links;
}

void RoutingGraph::clear_table() {
  ++counters_.full_rebuilds;
  counters_.pairs_invalidated += materialized_count_;
  // Clearing in place keeps each inner vector object (and therefore any
  // outstanding PathSet view of a pair) valid.
  for (auto& ids : table_) ids.clear();
  std::fill(materialized_.begin(), materialized_.end(), 0);
  materialized_count_ = 0;
}

void RoutingGraph::ensure_pair(std::size_t slot) const {
  if (materialized_[slot] != 0 || diagonal(slot)) return;
  const std::size_t H = hosts_.size();
  std::vector<Path> found =
      k_shortest_paths(*topo_, hosts_[slot / H], hosts_[slot % H], k_, banned_);
  auto& ids = table_[slot];
  ids.reserve(found.size());
  for (Path& p : found) ids.push_back(pool_.intern(std::move(p)));
  materialized_[slot] = 1;
  ++materialized_count_;
  ++counters_.pairs_recomputed;
  ++counters_.lazy_materializations;
}

PathSet RoutingGraph::paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = host_slot(src_host);
  const std::uint32_t b = host_slot(dst_host);
  assert(a != kNotHost && b != kNotHost &&
         "RoutingGraph::paths endpoints must be hosts of this topology");
  if (a == kNotHost || b == kNotHost) {
    static const std::vector<PathId> kNoIds;
    return {&kNoIds, &pool_};
  }
  const std::size_t slot = pair_slot(a, b);
  ensure_pair(slot);
  return {&table_[slot], &pool_};
}

bool RoutingGraph::is_host_pair(NodeId src_host, NodeId dst_host) const {
  return host_slot(src_host) != kNotHost && host_slot(dst_host) != kNotHost;
}

bool RoutingGraph::has_paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = host_slot(src_host);
  const std::uint32_t b = host_slot(dst_host);
  if (a == kNotHost || b == kNotHost) return false;
  const std::size_t slot = pair_slot(a, b);
  ensure_pair(slot);
  return !table_[slot].empty();
}

void RoutingGraph::encode_counters(sim::StateEncoder& enc) const {
  // Routing-work observability: the counts depend on query timing, not on
  // table content, so they live in their own snapshot section the cross-arm
  // bisection skips. incremental_rebuilds and pairs_reused are retired
  // (always 0) but keep their slots in the layout.
  enc.put_u64(counters_.full_rebuilds);
  enc.put_u64(counters_.incremental_rebuilds);
  enc.put_u64(counters_.pairs_recomputed);
  enc.put_u64(counters_.pairs_reused);
  enc.put_u64(counters_.noop_rebuilds);
  enc.put_u64(counters_.pairs_invalidated);
  enc.put_u64(counters_.lazy_materializations);
  enc.put_u64(static_cast<std::uint64_t>(materialized_count_));
}

void RoutingGraph::encode_state(sim::StateEncoder& enc) const {
  enc.put_u32(kStateVersion);
  enc.put_u64(static_cast<std::uint64_t>(k_));

  // Per-pair candidate link chains in canonical slot order — not raw pool
  // ids. Interning order tracks query order, so pool ids would
  // make two behaviorally identical runs encode different bytes; the chains
  // themselves are a pure function of (topology, banned set, k).
  // Unmaterialized pairs are computed right here for the same reason: the
  // forced work cannot perturb behavior, it only advances the rebuild-work
  // counters (observability section, excluded from cross-arm comparison).
  enc.put_u32(static_cast<std::uint32_t>(table_.size()));
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    ensure_pair(slot);
    const auto& ids = table_[slot];
    enc.put_u32(static_cast<std::uint32_t>(ids.size()));
    for (PathId id : ids) {
      const Path& p = pool_.path(id);
      enc.put_u32(static_cast<std::uint32_t>(p.links.size()));
      for (LinkId l : p.links) enc.put_u32(l.value());
    }
  }

  std::vector<std::uint32_t> ban_ids;
  ban_ids.reserve(banned_.size());
  // pythia-lint: allow(unordered-iter) key collection only; sorted below
  for (LinkId l : banned_) ban_ids.push_back(l.value());
  std::sort(ban_ids.begin(), ban_ids.end());
  enc.put_u32(static_cast<std::uint32_t>(ban_ids.size()));
  for (std::uint32_t l : ban_ids) enc.put_u32(l);
}

}  // namespace pythia::net

#include "net/routing.hpp"

#include <algorithm>
#include <cassert>

#include "sim/snapshot.hpp"

namespace pythia::net {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// One FNV-1a step over a link id.
std::uint64_t fnv_step(std::uint64_t h, LinkId l) {
  return (h ^ l.value()) * 1099511628211ull;
}

/// FNV-1a over a link-id sequence; collisions are resolved by full sequence
/// equality wherever this is used.
std::uint64_t link_seq_hash(std::span<const LinkId> links) {
  std::uint64_t h = kFnvBasis;
  for (LinkId l : links) h = fnv_step(h, l);
  return h;
}

/// Advances an epoch stamp. On wrap-around every mark below `keep` is
/// cleared first, so no stale mark can alias a reused epoch value.
void advance_epoch(std::uint32_t& epoch, std::vector<std::uint32_t>& marks,
                   std::uint32_t keep) {
  if (++epoch < keep) return;
  for (std::uint32_t& m : marks) {
    if (m < keep) m = 0;
  }
  epoch = 1;
}

constexpr std::uint32_t kNoKeep = std::numeric_limits<std::uint32_t>::max();

}  // namespace

std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links,
    const std::unordered_set<NodeId>& banned_nodes) {
  PathSearch search(topo);
  search.set_banned_links(banned_links);
  return search.shortest_path(src, dst, banned_nodes);
}

std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links) {
  PathSearch search(topo);
  search.set_banned_links(banned_links);
  const std::size_t n = search.k_shortest_paths(src, dst, k);
  std::vector<Path> result(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto links = search.path(i);
    result[i].links.assign(links.begin(), links.end());
  }
  return result;
}

PathSearch::PathSearch(const Topology& topo) : topo_(&topo) {
  const std::size_t nodes = topo.node_count();
  first_out_.reserve(nodes + 1);
  out_link_.reserve(topo.link_count());
  out_head_.reserve(topo.link_count());
  for (std::size_t n = 0; n < nodes; ++n) {
    first_out_.push_back(static_cast<std::uint32_t>(out_link_.size()));
    for (LinkId l : topo.out_links(NodeId{static_cast<std::uint32_t>(n)})) {
      out_link_.push_back(l.value());
      out_head_.push_back(topo.link(l).dst.value());
    }
  }
  first_out_.push_back(static_cast<std::uint32_t>(out_link_.size()));

  // In-links by counting sort on the head node (only their presence is
  // used, so their order within a node does not matter).
  first_in_.assign(nodes + 1, 0);
  for (const Link& link : topo.links()) ++first_in_[link.dst.value() + 1];
  for (std::size_t n = 0; n < nodes; ++n) first_in_[n + 1] += first_in_[n];
  in_link_.resize(topo.link_count());
  std::vector<std::uint32_t> fill(first_in_.begin(), first_in_.end() - 1);
  for (const Link& link : topo.links()) {
    in_link_[fill[link.dst.value()]++] = link.id.value();
  }

  link_ban_.assign(topo.link_count(), 0);
  node_ban_.assign(nodes, 0);
  visit_.assign(nodes, 0);
  parent_link_.assign(nodes, 0);
}

void PathSearch::set_banned_links(
    const std::unordered_set<LinkId>& banned_links) {
  std::fill(link_ban_.begin(), link_ban_.end(), 0);
  // pythia-lint: allow(unordered-iter) order-independent mask writes
  for (LinkId l : banned_links) {
    assert(l.value() < link_ban_.size() && "banned link not in topology");
    link_ban_[l.value()] = kBannedLink;
  }
}

void PathSearch::next_spur_epoch() {
  advance_epoch(spur_epoch_, link_ban_, kBannedLink);
}

bool PathSearch::search(std::uint32_t from, std::uint32_t to) {
  spur_.clear();
  if (node_ban_[from] == root_epoch_ || node_ban_[to] == root_epoch_) {
    return false;
  }
  // Early out: `to` is unreachable when every link into it is banned or
  // leaves a banned node — typically the last spur of a Yen round, whose
  // only way into a host is a banned access link. Without this the BFS
  // would sweep the whole reachable graph to find that out.
  bool enterable = false;
  for (std::uint32_t e = first_in_[to]; e < first_in_[to + 1]; ++e) {
    const std::uint32_t l = in_link_[e];
    if (link_ban_[l] >= spur_epoch_) continue;
    if (node_ban_[topo_->link(LinkId{l}).src.value()] == root_epoch_) {
      continue;
    }
    enterable = true;
    break;
  }
  if (!enterable) return false;

  advance_epoch(visit_epoch_, visit_, kNoKeep);
  visit_[from] = visit_epoch_;
  level_.assign(1, from);
  while (!level_.empty()) {
    // Ascending node id within a level = the Dijkstra pop order (see the
    // header comment); the first discovery fixes a node's parent.
    std::sort(level_.begin(), level_.end());
    next_level_.clear();
    for (const std::uint32_t u : level_) {
      for (std::uint32_t e = first_out_[u]; e < first_out_[u + 1]; ++e) {
        const std::uint32_t l = out_link_[e];
        const std::uint32_t v = out_head_[e];
        if (link_ban_[l] >= spur_epoch_ || visit_[v] == visit_epoch_ ||
            node_ban_[v] == root_epoch_) {
          continue;
        }
        visit_[v] = visit_epoch_;
        parent_link_[v] = l;
        if (v == to) {
          // `to`'s parent chain is final: every node on it was discovered
          // on an earlier level.
          for (std::uint32_t n = to; n != from;) {
            const LinkId via{parent_link_[n]};
            spur_.push_back(via);
            n = topo_->link(via).src.value();
          }
          return true;
        }
        next_level_.push_back(v);
      }
    }
    std::swap(level_, next_level_);
  }
  return false;
}

std::optional<Path> PathSearch::shortest_path(
    NodeId src, NodeId dst, const std::unordered_set<NodeId>& banned_nodes) {
  assert(src.valid() && dst.valid());
  if (src == dst) return Path{};
  advance_epoch(root_epoch_, node_ban_, kNoKeep);
  // pythia-lint: allow(unordered-iter) order-independent mask writes
  for (NodeId n : banned_nodes) node_ban_[n.value()] = root_epoch_;
  next_spur_epoch();
  if (!search(src.value(), dst.value())) return std::nullopt;
  Path path;
  path.links.assign(spur_.rbegin(), spur_.rend());
  return path;
}

bool PathSearch::seen_before(std::uint64_t hash, std::uint32_t root,
                             std::uint32_t i) const {
  const auto len = static_cast<std::uint32_t>(i + spur_.size());
  for (const Span& s : spans_) {
    if (s.hash != hash || s.len != len) continue;
    const LinkId* p = arena_.data() + s.begin;
    if (std::equal(p, p + i, arena_.data() + root) &&
        std::equal(p + i, p + len, spur_.rbegin())) {
      return true;
    }
  }
  return false;
}

bool PathSearch::path_less(std::uint32_t a, std::uint32_t b) const {
  const Span& x = spans_[a];
  const Span& y = spans_[b];
  if (x.len != y.len) return x.len < y.len;
  return std::lexicographical_compare(
      arena_.data() + x.begin, arena_.data() + x.begin + x.len,
      arena_.data() + y.begin, arena_.data() + y.begin + y.len,
      [](LinkId p, LinkId q) { return p.value() < q.value(); });
}

std::size_t PathSearch::k_shortest_paths(NodeId src, NodeId dst,
                                         std::size_t k) {
  arena_.clear();
  spans_.clear();
  found_.clear();
  pending_.clear();
  if (k == 0) return 0;
  if (src == dst) {
    spans_.push_back(Span{0, 0, kFnvBasis});
    found_.push_back(0);
    return 1;
  }
  advance_epoch(root_epoch_, node_ban_, kNoKeep);
  next_spur_epoch();
  if (!search(src.value(), dst.value())) return 0;
  arena_.assign(spur_.rbegin(), spur_.rend());
  spans_.push_back(Span{0, static_cast<std::uint32_t>(arena_.size()),
                        link_seq_hash(arena_)});
  found_.push_back(0);

  while (found_.size() < k) {
    // Spur from every prefix (root) of the previous path. Root nodes other
    // than the spur node stay banned for the whole round, and the results
    // sharing the root shrink as it grows, so both are kept incrementally.
    const Span prev = spans_[found_.back()];
    advance_epoch(root_epoch_, node_ban_, kNoKeep);
    sharing_.assign(found_.begin(), found_.end());
    std::uint32_t spur_node = src.value();
    std::uint64_t root_hash = kFnvBasis;
    for (std::uint32_t i = 0; i < prev.len; ++i) {
      if (i > 0) {
        const LinkId via = arena_[prev.begin + i - 1];
        node_ban_[spur_node] = root_epoch_;
        spur_node = topo_->link(via).dst.value();
        root_hash = fnv_step(root_hash, via);
        std::erase_if(sharing_, [&](std::uint32_t r) {
          const Span& p = spans_[r];
          return p.len < i || arena_[p.begin + i - 1] != via;
        });
      }
      // Each result through this root loses its next link for this spur.
      next_spur_epoch();
      for (const std::uint32_t r : sharing_) {
        const Span& p = spans_[r];
        if (p.len <= i) continue;
        std::uint32_t& mark = link_ban_[arena_[p.begin + i].value()];
        if (mark != kBannedLink) mark = spur_epoch_;
      }
      if (!search(spur_node, dst.value())) continue;

      std::uint64_t hash = root_hash;
      for (auto it = spur_.rbegin(); it != spur_.rend(); ++it) {
        hash = fnv_step(hash, *it);
      }
      if (seen_before(hash, prev.begin, i)) continue;
      const auto begin = static_cast<std::uint32_t>(arena_.size());
      arena_.reserve(arena_.size() + i + spur_.size());
      for (std::uint32_t j = 0; j < i; ++j) {
        arena_.push_back(arena_[prev.begin + j]);
      }
      arena_.insert(arena_.end(), spur_.rbegin(), spur_.rend());
      pending_.push_back(static_cast<std::uint32_t>(spans_.size()));
      spans_.push_back(Span{
          begin, static_cast<std::uint32_t>(arena_.size()) - begin, hash});
    }
    if (pending_.empty()) break;
    // Candidates are distinct link sequences, so (hops, link ids) is a
    // strict order and the minimum does not depend on pending_'s order.
    auto best = std::min_element(
        pending_.begin(), pending_.end(),
        [this](std::uint32_t a, std::uint32_t b) { return path_less(a, b); });
    found_.push_back(*best);
    *best = pending_.back();
    pending_.pop_back();
  }
  return found_.size();
}

PathId PathPool::intern(std::span<const LinkId> links) {
  auto& bucket = index_[link_seq_hash(links)];
  for (std::uint32_t id : bucket) {
    if (std::ranges::equal(paths_[id].links, links)) return PathId{id};
  }
  const auto id = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(Path{{links.begin(), links.end()}});
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
    : topo_(&topo), k_(k), hosts_(topo.hosts()), search_(topo) {
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
  search_.set_banned_links(banned_);
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
  const std::size_t found =
      search_.k_shortest_paths(hosts_[slot / H], hosts_[slot % H], k_);
  auto& ids = table_[slot];
  ids.reserve(found);
  for (std::size_t i = 0; i < found; ++i) {
    ids.push_back(pool_.intern(search_.path(i)));
  }
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

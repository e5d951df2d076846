// Multi-path routing: Yen's k-shortest paths by hop count, and the
// RoutingGraph cache the controller keeps per host pair (paper §IV: paths
// are recomputed only on topology-change events — off the data path).
//
// Every search runs in one PathSearch engine per graph: a CSR copy of the
// adjacency plus scratch (epoch-stamped visit marks and parents, link and
// node ban stamps, a flat path arena) reused across spur searches and
// pairs, so a Yen run allocates and hashes nothing in its inner loops. Each
// spur search is a level-synchronous unit-weight BFS that sorts every level
// by node id before expanding it and records a node's parent on first
// discovery. That is exactly the (hops, node id) pop order of a
// priority-queue Dijkstra with strict-< relaxation: on unit weights every
// node of level d is queued before any of them pops, so the queue pops a
// whole level in ascending id, and a node keeps the parent from its first
// relaxation — the first-expanded predecessor, via that node's first link
// in out_links (insertion) order. Paths therefore come out link for link as
// from that Dijkstra (tests/net/routing_oracle.hpp keeps a frozen copy of it
// as the oracle).
//
// Paths are interned in a PathPool: the graph stores PathId handles instead
// of link-vector copies, and the control plane (controller/allocator) passes
// ids on the per-flow hot path instead of copying/comparing link vectors.
//
// The table is filled lazily: a pair's candidates are computed on its first
// paths()/has_paths() query. A pair's Yen result is a pure function of
// (topology, banned set, k), so query order cannot change what is stored,
// and a banned-set change simply drops every materialized pair — the next
// query recomputes it under the new set. At warehouse scale most host pairs
// never carry a shuffle flow, so there is no cold build up front.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::net {

/// A loop-free path as a link chain; endpoints are implied by the links.
struct Path {
  std::vector<LinkId> links;

  [[nodiscard]] std::size_t hops() const { return links.size(); }
  friend bool operator==(const Path&, const Path&) = default;
};

/// Shortest path by hop count with deterministic tie-breaking (smaller link
/// ids win). `banned_links` / `banned_nodes` support Yen's spur computation
/// and failure simulation. Returns nullopt when disconnected. A one-shot
/// PathSearch; callers with many queries keep an engine instead.
std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links = {},
    const std::unordered_set<NodeId>& banned_nodes = {});

/// Yen's algorithm: up to `k` loop-free shortest paths in nondecreasing
/// hop-count order (deterministic ordering among equal-length paths).
/// `banned_links` are excluded entirely (failed links). A one-shot
/// PathSearch; callers with many queries keep an engine instead.
std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links = {});

/// The search engine behind every routing query on one fixed topology (see
/// the file comment for the BFS tie-break argument). Holds a CSR adjacency
/// built once, the caller's banned links as a mask, and scratch reused
/// across searches: nothing in a spur search allocates or hashes.
class PathSearch {
 public:
  /// `topo` must outlive the engine and never change.
  explicit PathSearch(const Topology& topo);

  /// Replaces the banned (failed) link set every later search avoids.
  void set_banned_links(const std::unordered_set<LinkId>& banned_links);

  /// Shortest path avoiding the banned links and `banned_nodes`.
  std::optional<Path> shortest_path(
      NodeId src, NodeId dst, const std::unordered_set<NodeId>& banned_nodes);

  /// Runs Yen for (src, dst, k) and returns how many paths it found; read
  /// them with path(i), valid until the next search.
  std::size_t k_shortest_paths(NodeId src, NodeId dst, std::size_t k);
  [[nodiscard]] std::span<const LinkId> path(std::size_t i) const {
    const Span& s = spans_[found_[i]];
    return {arena_.data() + s.begin, s.len};
  }

 private:
  /// Link-ban stamp of the caller's banned set; spur epochs stay below it.
  static constexpr std::uint32_t kBannedLink =
      std::numeric_limits<std::uint32_t>::max();

  /// One path in arena_: links [begin, begin + len), FNV-1a hash.
  struct Span {
    std::uint32_t begin;
    std::uint32_t len;
    std::uint64_t hash;
  };

  /// BFS from `from` to `to` under the current link and node bans; on
  /// success spur_ holds the path's links last to first.
  bool search(std::uint32_t from, std::uint32_t to);
  /// Starts a fresh spur (no spur-banned links).
  void next_spur_epoch();
  /// True iff the path root (i links of arena_ at `root`) + reversed spur_
  /// equals an earlier path of this run (results and candidates alike).
  [[nodiscard]] bool seen_before(std::uint64_t hash, std::uint32_t root,
                                 std::uint32_t i) const;
  [[nodiscard]] bool path_less(std::uint32_t a, std::uint32_t b) const;

  const Topology* topo_;
  // CSR adjacency: node n's out-links (in out_links order) and their head
  // nodes at [first_out_[n], first_out_[n + 1]); in-links the same way.
  std::vector<std::uint32_t> first_out_;
  std::vector<std::uint32_t> out_link_;
  std::vector<std::uint32_t> out_head_;
  std::vector<std::uint32_t> first_in_;
  std::vector<std::uint32_t> in_link_;
  // Link l is banned iff link_ban_[l] >= spur_epoch_: kBannedLink for the
  // caller's set, spur_epoch_ for the links the current spur excludes.
  std::vector<std::uint32_t> link_ban_;
  std::uint32_t spur_epoch_ = 1;
  // Node n is a banned root node iff node_ban_[n] == root_epoch_.
  std::vector<std::uint32_t> node_ban_;
  std::uint32_t root_epoch_ = 1;
  // Node n was discovered by the current BFS iff visit_[n] == visit_epoch_;
  // parent_link_[n] is then its discovering link.
  std::vector<std::uint32_t> visit_;
  std::vector<std::uint32_t> parent_link_;
  std::uint32_t visit_epoch_ = 1;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> next_level_;
  std::vector<LinkId> spur_;
  // Paths of the current Yen run: results (found_, in order) and pending
  // candidates, all stored once in arena_.
  std::vector<LinkId> arena_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> found_;
  std::vector<std::uint32_t> pending_;
  // Results that share the current spur's root with the previous path.
  std::vector<std::uint32_t> sharing_;
};

/// Append-only intern table for paths. Interning the same link sequence
/// twice yields the same PathId, and `path(id)` references are stable for
/// the lifetime of the pool (deque storage never relocates elements), so the
/// control plane can hold `const Path*` across rebuilds.
class PathPool {
 public:
  PathId intern(std::span<const LinkId> links);
  PathId intern(const Path& path) { return intern(std::span(path.links)); }

  [[nodiscard]] const Path& path(PathId id) const {
    assert(id.valid() && id.value() < paths_.size());
    return paths_[id.value()];
  }
  [[nodiscard]] std::size_t size() const { return paths_.size(); }

 private:
  std::deque<Path> paths_;
  // Hash of the link sequence → pool ids with that hash (collisions resolved
  // by full sequence equality in intern()).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
};

/// Non-owning view of one host pair's candidate paths: an id vector in the
/// routing table plus the pool that resolves them. Indexing returns the
/// interned `const Path&` (pool storage is stable), so existing callers that
/// range-for over candidates and keep `&path` work unchanged. The view
/// itself tracks the live table: after a rebuild it sees the new candidate
/// set; call `materialize()` to snapshot instead.
class PathSet {
 public:
  PathSet(const std::vector<PathId>* ids, const PathPool* pool)
      : ids_(ids), pool_(pool) {}

  [[nodiscard]] std::size_t size() const { return ids_->size(); }
  [[nodiscard]] bool empty() const { return ids_->empty(); }
  [[nodiscard]] const Path& operator[](std::size_t i) const {
    return pool_->path((*ids_)[i]);
  }
  [[nodiscard]] PathId id(std::size_t i) const { return (*ids_)[i]; }
  [[nodiscard]] const std::vector<PathId>& ids() const { return *ids_; }

  /// Deep copy of the current candidates; survives later rebuilds that
  /// shrink or reorder the live set.
  [[nodiscard]] std::vector<Path> materialize() const;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Path;
    using difference_type = std::ptrdiff_t;
    using pointer = const Path*;
    using reference = const Path&;

    const Path& operator*() const { return set_->operator[](i_); }
    const Path* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      auto copy = *this;
      ++i_;
      return copy;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) =
        default;

   private:
    friend class PathSet;
    const_iterator(const PathSet* set, std::size_t i) : set_(set), i_(i) {}
    const PathSet* set_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, ids_->size()}; }

 private:
  const std::vector<PathId>* ids_;
  const PathPool* pool_;
};

/// Kept as a one-value enum so callers that name the build mode still
/// compile; every RoutingGraph computes pairs on first query.
enum class BuildMode : std::uint8_t { kLazy };

/// Observability for routing work. The field set is the routing.counters
/// snapshot layout, so retired fields stay (always 0) rather than go.
struct RoutingCounters {
  /// Table (re)builds: the construction plus every rebuild() that changed
  /// the banned set. Each drops every materialized pair.
  std::uint64_t full_rebuilds = 0;
  /// Retired: always 0 (there is no incremental rebuild).
  std::uint64_t incremental_rebuilds = 0;
  /// Per-pair Yen runs.
  std::uint64_t pairs_recomputed = 0;
  /// Retired: always 0 (no materialized pair survives a rebuild).
  std::uint64_t pairs_reused = 0;
  /// rebuild() calls with an unchanged banned set; they return without
  /// touching any state.
  std::uint64_t noop_rebuilds = 0;
  /// Materialized pairs dropped by rebuilds (recomputed only if queried
  /// again).
  std::uint64_t pairs_invalidated = 0;
  /// Pairs computed on first query (equals pairs_recomputed).
  std::uint64_t lazy_materializations = 0;
};

/// k-shortest paths for every ordered host pair of one fixed topology,
/// computed on first query. The SDN topology service rebuilds it when links
/// fail or come back.
class RoutingGraph {
 public:
  /// Indexes the hosts of `topo` (which must outlive the graph and never
  /// change); no pair is computed until it is queried. The BuildMode
  /// argument names the only mode there is.
  explicit RoutingGraph(const Topology& topo, std::size_t k,
                        BuildMode /*build*/ = BuildMode::kLazy);

  /// Equal-candidate path set for an ordered host pair; non-empty for every
  /// connected pair. Materializes the pair on first use.
  /// Precondition: both are hosts in this topology (asserted
  /// in debug; release returns an empty set — use has_paths()/is_host_pair()
  /// to distinguish "partitioned" from "not a host").
  [[nodiscard]] PathSet paths(NodeId src_host, NodeId dst_host) const;

  /// True iff both nodes are hosts of the topology (a valid key for the
  /// table, whether or not it currently has candidates).
  [[nodiscard]] bool is_host_pair(NodeId src_host, NodeId dst_host) const;

  /// True iff the ordered pair is a host pair with at least one path (false
  /// means partitioned — or not hosts at all; see is_host_pair()).
  /// Materializes the pair on first use.
  [[nodiscard]] bool has_paths(NodeId src_host, NodeId dst_host) const;

  /// Ordered host pairs whose candidates are currently computed.
  [[nodiscard]] std::size_t pairs_materialized() const {
    return materialized_count_;
  }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const RoutingCounters& counters() const { return counters_; }

  /// Interns an externally built path (e.g. composed rack chains) into the
  /// shared pool so the rest of the control plane can pass ids around.
  PathId intern(const Path& path) { return pool_.intern(path); }
  [[nodiscard]] const Path& path(PathId id) const { return pool_.path(id); }

  /// Excludes `banned_links` (failed links) from every path from now on —
  /// the controller's topology-update service calls this on link-failure/
  /// restore events. A changed banned set drops every materialized pair
  /// (they recompute on their next query); an unchanged one returns
  /// immediately, bumping only the noop_rebuilds counter. Interned paths
  /// and their ids stay valid either way.
  void rebuild(const std::unordered_set<LinkId>& banned_links = {});

  /// Serializes the routing state for snapshots (section version
  /// kStateVersion): per-pair candidate link chains in slot order plus the
  /// banned set (sorted). Chains — not raw pool ids — keep the section
  /// independent of interning order, which depends on query order; every
  /// unmaterialized pair is materialized first (pure per-pair computation,
  /// so this cannot perturb behavior), making the bytes independent of
  /// which pairs were queried before the capture.
  void encode_state(sim::StateEncoder& enc) const;

  /// Leading u32 of the encode_state section; bumped when the routing
  /// section layout changes (v2: slot-order link chains replaced the v1
  /// pool-id dump — see docs/checkpoint.md).
  static constexpr std::uint32_t kStateVersion = 2;

  /// Routing-work counters, serialized as their own snapshot section: they
  /// depend on when pairs were queried, not on what the table holds, so
  /// divergence bisection compares behavioral sections only (see
  /// Snapshot::describe_divergence).
  void encode_counters(sim::StateEncoder& enc) const;

 private:
  static constexpr std::uint32_t kNotHost =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::uint32_t host_slot(NodeId n) const {
    return n.value() < host_slot_.size() ? host_slot_[n.value()] : kNotHost;
  }
  [[nodiscard]] std::size_t pair_slot(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * hosts_.size() + b;
  }
  [[nodiscard]] bool diagonal(std::size_t slot) const {
    return slot / hosts_.size() == slot % hosts_.size();
  }

  /// Drops every materialized pair and counts one full rebuild.
  void clear_table();
  /// Yen-computes `slot` under the current banned set if it is an
  /// unmaterialized off-diagonal pair. const: lazy-cache members only.
  void ensure_pair(std::size_t slot) const;

  // pythia-lint: allow(snapshot-skip, group) construction-time derivations
  // of the (fingerprinted) topology: wiring and host maps rebuild
  // identically in the restored process. k_ and banned_ ARE encoded.
  const Topology* topo_;
  std::size_t k_;
  std::vector<NodeId> hosts_;
  std::vector<std::uint32_t> host_slot_;  // node id → host index or kNotHost
  std::unordered_set<LinkId> banned_;     // banned set of last rebuild

  // Lazy cache: logically-const queries (paths/has_paths/encode_state)
  // materialize pairs on demand, so these are mutable. Every materialized
  // entry equals the pure per-pair Yen result under the current banned set —
  // query order cannot change what is stored, only when.
  // pythia-lint: allow(snapshot-skip, group) materialization flags and
  // counts are re-derived from the encoded table_ on restore; by the
  // invariant above they never depend on query order.
  mutable PathPool pool_;
  // Dense table: slot = host_slot(src) * H + host_slot(dst).
  mutable std::vector<std::vector<PathId>> table_;
  // Per-slot flag: candidates computed and current (off-diagonal only).
  mutable std::vector<char> materialized_;
  mutable std::size_t materialized_count_ = 0;
  mutable RoutingCounters counters_;
  // pythia-lint: allow(snapshot-skip) search scratch: CSR of the topology
  // plus the banned set as a mask, both rebuilt from topo_ and banned_
  mutable PathSearch search_;
};

}  // namespace pythia::net

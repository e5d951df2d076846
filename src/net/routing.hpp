// Multi-path routing: hop-count Dijkstra, Yen's k-shortest paths, and the
// RoutingGraph cache the controller keeps per host pair (paper §IV: paths
// are recomputed only on topology-change events — off the data path).
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
/// and failure simulation. Returns nullopt when disconnected.
std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links = {},
    const std::unordered_set<NodeId>& banned_nodes = {});

/// Yen's algorithm: up to `k` loop-free shortest paths in nondecreasing
/// hop-count order (deterministic ordering among equal-length paths).
/// `banned_links` are excluded entirely (failed links).
std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links = {});

/// Append-only intern table for paths. Interning the same link sequence
/// twice yields the same PathId, and `path(id)` references are stable for
/// the lifetime of the pool (deque storage never relocates elements), so the
/// control plane can hold `const Path*` across rebuilds.
class PathPool {
 public:
  PathId intern(Path path);

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
  PathId intern(Path path) { return pool_.intern(std::move(path)); }
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
};

}  // namespace pythia::net

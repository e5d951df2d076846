// Fluid (flow-level) network engine with max-min fair bandwidth sharing.
//
// Elastic (TCP) flows traverse an explicit link path and share residual link
// capacity max-min fairly — the standard fluid approximation of long-lived
// TCP on datacenter paths. CBR (UDP/iperf) streams occupy a fixed rate first
// and never back off, exactly like the background traffic the paper injects
// to emulate oversubscription. Rates are recomputed by progressive filling on
// every flow arrival/departure/CBR change; each flow's remaining volume is
// settled against simulated time before every recompute, so byte accounting
// is exact.
//
// One fill: a change refills only the exact flow-connected component of
// the links it dirtied (a BFS over the per-link flow index and the flows'
// path rows), and max-min decomposes exactly over components, so every
// other flow provably keeps its rate. The fill reads dense struct-of-arrays
// flow mirrors (weights, classes, rates, path rows in a shared arena)
// instead of chasing Flow records, and completion deadlines live in a dense
// per-slot array scanned linearly. Component links are filled in ascending
// link order with flows visited in ascending id order, so every allocated
// rate is bit-identical to a whole-fabric progressive fill; the frozen
// oracle in tests/net/fabric_oracle.hpp is that fill, and the differential
// tests compare against it after every mutation.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/simulation.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::net {

class Fabric;

/// Observer of wire-level activity; NetFlow-style probes and SDN apps
/// implement the hooks they care about (defaults are no-ops).
class FabricObserver {
 public:
  virtual ~FabricObserver() = default;
  /// A new elastic flow entered the fabric.
  virtual void on_flow_started(const Fabric& /*fabric*/, FlowId /*flow*/,
                               util::SimTime /*at*/) {}
  /// Bytes moved by `flow` in (from, to]; called whenever the fabric settles.
  virtual void on_bytes_moved(const Fabric& /*fabric*/, FlowId /*flow*/,
                              util::Bytes /*moved*/, util::SimTime /*from*/,
                              util::SimTime /*to*/) {}
  /// Flow fully delivered.
  virtual void on_flow_completed(const Fabric& /*fabric*/, FlowId /*flow*/,
                                 util::SimTime /*at*/) {}
};

struct FlowSpec {
  NodeId src;
  NodeId dst;
  util::Bytes size;
  std::vector<LinkId> path;
  FiveTuple tuple;
  FlowClass cls = FlowClass::kOther;
  /// Weighted max-min share (1.0 = plain TCP-fair). Values > 1 model rate
  /// boosting (e.g. more parallel connections or priority queues) for
  /// Orchestra-style proportional allocation.
  double weight = 1.0;
};

struct Flow {
  FlowId id;
  FlowSpec spec;
  util::SimTime started;
  double remaining_bytes = 0.0;  // settled remaining volume
  util::BitsPerSec rate;         // current max-min share
  bool completed = false;
  util::SimTime completed_at;
  /// Integer bytes already reported to observers; the fractional residue
  /// (spec.size - remaining - reported) is carried so cumulative observer
  /// totals equal spec.size exactly at completion.
  std::int64_t reported_bytes = 0;
};

using FlowCompleteFn = std::function<void(FlowId, util::SimTime)>;

/// Hot-path counters for perf-trajectory tracking across PRs.
struct FabricCounters {
  std::uint64_t recomputes = 0;        // progressive fills run
  std::uint64_t full_fills = 0;        // fills that spanned every link
  std::uint64_t links_touched = 0;     // Σ links revisited per fill
  std::uint64_t flows_touched = 0;     // Σ flows revisited per fill
  std::uint64_t completion_events = 0; // completion events fired
  std::uint64_t settles = 0;           // non-empty settle intervals
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, const Topology& topo);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Starts an elastic flow; `on_complete` fires (via the event queue) when
  /// the last byte is delivered. The path must connect spec.src to spec.dst.
  /// FlowIds are recycled once a flow has completed and its callbacks have
  /// run, so ids are transient handles, not stable history keys.
  FlowId start_flow(FlowSpec spec, FlowCompleteFn on_complete = {});

  /// Moves an in-flight flow onto a new path (what a higher-priority
  /// OpenFlow rule installation does to subsequent packets of the flow).
  /// No-op if the flow already completed. The new path must connect the
  /// flow's endpoints.
  void reroute_flow(FlowId id, std::vector<LinkId> new_path);

  /// Adjusts a flow's max-min weight mid-flight; no-op once completed.
  void set_flow_weight(FlowId id, double weight);

  /// Starts a fixed-rate stream on `path` (UDP-like: holds its rate
  /// regardless of congestion; clamped by link capacity when computing the
  /// residual available to elastic flows).
  CbrId start_cbr(std::vector<LinkId> path, util::BitsPerSec rate);
  void stop_cbr(CbrId id);

  // --- failure injection ---

  /// Takes a link down: elastic flows crossing it stall at rate zero until
  /// rerouted or the link is restored; CBR load on it goes nowhere (the
  /// packets are simply lost). Idempotent.
  void fail_link(LinkId l);
  /// Brings a failed link back. Idempotent.
  void restore_link(LinkId l);
  [[nodiscard]] bool link_up(LinkId l) const { return link_up_[l.value()]; }
  /// Active elastic flows whose current path crosses `l`, ascending by id.
  /// Indexed (O(flows on link), not O(all active)); returns a copy so
  /// callers may reroute while iterating.
  [[nodiscard]] std::vector<FlowId> flows_crossing(LinkId l) const {
    return link_flows_[l.value()];
  }

  // --- introspection (the SDN link-load service reads these) ---

  /// Fixed-rate load currently placed on a link (uncapped sum).
  [[nodiscard]] util::BitsPerSec link_cbr_load(LinkId l) const;
  /// Sum of elastic flow rates currently crossing a link.
  [[nodiscard]] util::BitsPerSec link_elastic_rate(LinkId l) const;
  /// Elastic rate on a link restricted to one traffic class.
  [[nodiscard]] util::BitsPerSec link_class_rate(LinkId l, FlowClass cls) const;
  /// (cbr + elastic) / capacity, clamped to [0, 1]; 0 for failed or
  /// zero-capacity links (a dead port serves nothing).
  [[nodiscard]] double link_utilization(LinkId l) const;
  /// Capacity minus CBR load, floored at zero — what elastic traffic can get.
  [[nodiscard]] util::BitsPerSec link_residual_capacity(LinkId l) const;

  [[nodiscard]] const Flow& flow(FlowId id) const;
  /// Current path of `id` as a view. This resolves the flow's arena path
  /// row and carries a use-after-recycle guard: reading a
  /// slot whose row was freed by swap-pop recycling is a deterministic
  /// debug-build abort (and an empty span in release builds) instead of a
  /// wrong-path read — the fabric analogue of PathId's generation stamp.
  [[nodiscard]] std::span<const LinkId> flow_path(FlowId id) const;
  [[nodiscard]] bool flow_active(FlowId id) const;
  [[nodiscard]] std::size_t active_flow_count() const { return active_.size(); }
  /// Active flow ids in ascending id order (deterministic).
  [[nodiscard]] std::vector<FlowId> active_flows() const;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }

  void add_observer(FabricObserver* obs) { observers_.push_back(obs); }

  // --- cumulative statistics ---
  [[nodiscard]] std::uint64_t flows_started() const { return flows_started_; }
  [[nodiscard]] std::uint64_t flows_completed() const {
    return flows_completed_;
  }
  [[nodiscard]] util::Bytes bytes_delivered() const { return bytes_delivered_; }
  [[nodiscard]] std::uint64_t rate_recomputations() const {
    return counters_.recomputes;
  }
  /// Hot-path perf counters (recomputes, links/flows touched, events).
  [[nodiscard]] const FabricCounters& counters() const { return counters_; }

  /// Settles all flows to now() and recomputes max-min rates. Called
  /// automatically on arrivals/departures/CBR changes; public so that probes
  /// can force an accounting point.
  void settle_and_recompute();

  /// Serializes the fabric's logical state for snapshots: counters, every
  /// active flow (sorted by id) with its exact settled remaining volume and
  /// rate bits, CBR streams, and per-link up/load/rate state. Physical
  /// scratch (slot free lists, dirty sets, arena layout) is excluded —
  /// it is reconstructed by replay and never observable.
  void encode_state(sim::StateEncoder& enc) const;

  /// Fill work counters, serialized as their own snapshot section: they
  /// measure how much state the fill touched, not what it allocated, so
  /// divergence bisection compares behavioral sections only (see
  /// Snapshot::describe_divergence).
  void encode_counters(sim::StateEncoder& enc) const;

 private:
  /// Power-of-two size-bucketed span allocator for flow path rows. Freed
  /// rows go onto a per-bucket LIFO free list, so allocation order — and
  /// therefore every offset — is a deterministic function of the mutation
  /// sequence, never of the host allocator.
  class SpanArena {
   public:
    /// Offset of a row holding >= len entries; sets `bucket` for release().
    std::uint32_t acquire(std::uint32_t len, std::uint8_t& bucket);
    void release(std::uint32_t off, std::uint8_t bucket) {
      free_[bucket].push_back(off);
    }
    /// High-water span count; callers size their pools to this.
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::size_t size_ = 0;
    std::array<std::vector<std::uint32_t>, 32> free_;
  };

  void settle();
  void recompute_rates();
  void after_mutation();
  void schedule_next_completion();
  void on_completion_event();
  /// Completion bookkeeping for one due flow (swap-pop from active_,
  /// link deregistration, stats).
  void complete_flow(std::uint32_t slot);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void insert_link_flow(LinkId l, FlowId id);
  void remove_link_flow(LinkId l, FlowId id);
  void mark_dirty(LinkId l);
  void clear_dirty();
  /// Residual capacity a link offers elastic flows: capacity minus CBR
  /// load, floored at zero; zero while the link is down.
  [[nodiscard]] double elastic_headroom(std::uint32_t l) const;

  /// Copies spec.path into the path arena and the Flow fields the fill
  /// reads into the slot's mirrors.
  void arena_admit(std::uint32_t slot);
  /// Frees the path row; the offset sentinel left behind turns stale
  /// flow_path() reads into deterministic debug aborts.
  void free_path_row(std::uint32_t slot);
  /// Collects the exact flow-connected component of the dirty links into
  /// comp_links_ (ascending) and comp_flows_, and sets each component
  /// link's unfixed weight and count.
  void collect_component();
  /// Progressive fill restricted to comp_links_/comp_flows_, reading the
  /// arena mirrors.
  void fill_component();
  /// Sets a flow's rate (Flow record and arena mirror) and re-arms its
  /// completion deadline.
  void set_rate(std::uint32_t slot, double rate_bps);
  void push_eta(std::uint32_t slot, const Flow& f);

  // pythia-lint: allow(snapshot-skip, group) construction wiring: restore
  // builds a fresh Fabric from the fingerprinted scenario.
  sim::Simulation* sim_;
  const Topology* topo_;

  // pythia-lint: allow(snapshot-skip, group) slot bookkeeping rebuilt by
  // restore replay: encode_state writes the live flows, and re-admitting
  // them through start_flow() recreates slots, callbacks, and link indexes.
  std::vector<Flow> flows_;                  // slot-indexed; slots recycled
  std::vector<FlowCompleteFn> callbacks_;    // parallel to flows_
  std::vector<std::uint32_t> free_slots_;    // completed slots ready for reuse
  std::vector<FlowId> active_;               // unordered; O(1) erase
  std::vector<std::uint32_t> active_pos_;    // slot -> index in active_
  std::vector<std::vector<FlowId>> link_flows_;  // per link, ascending by id

  std::vector<double> cbr_load_bps_;  // per link
  struct CbrStream {
    std::vector<LinkId> path;
    double rate_bps;
    bool active;
  };
  std::vector<CbrStream> cbrs_;
  std::vector<char> link_up_;             // per link
  std::vector<double> elastic_rate_bps_;  // per link, refreshed on recompute
  std::vector<std::array<double, 4>> class_rate_bps_;  // per link, per class

  // Dirty-link accumulator consumed by the next recompute.
  // pythia-lint: allow(snapshot-skip, group) empty at every snapshot cut:
  // cuts happen at settled instants, after the pending recompute drained.
  std::vector<std::uint32_t> dirty_links_;
  std::vector<char> link_dirty_;

  // Scratch buffers reused across fills (no per-recompute allocation).
  // pythia-lint: allow(snapshot-skip, group) fill scratch: every recompute
  // rewrites these before reading them, so restored runs never observe the
  // pre-snapshot contents.
  std::vector<double> residual_;
  std::vector<double> unfixed_weight_;
  std::vector<std::uint32_t> unfixed_count_;
  // Bottleneck selection scratch: comp_links_[r] has its live share at
  // share_dense_[r] (+inf once the link empties), and link_rank_ inverts the
  // mapping for freeze-time refreshes. A dense array the vectorized min scan
  // can walk without indirection or a count check; ranks follow comp_links_
  // order, so "first rank at the min" reproduces a strict `share < best`
  // scan over ascending link ids exactly.
  std::vector<double> share_dense_;
  std::vector<std::uint32_t> link_rank_;
  // Per-round dedup of freeze-time share refreshes: one division per touched
  // link per round instead of one per (flow, link) path step.
  std::vector<char> link_touched_;
  std::vector<std::uint32_t> touched_links_;
  std::vector<char> flow_fixed_;        // slot-indexed
  // Component collection: comp_links_ is the BFS link queue, then the
  // ascending readout of comp_bits_ (one bit per link, all clear between
  // fills); comp_flows_ is the flow queue, and flow_mark_ stamps a flow with
  // comp_epoch_ once it is collected.
  std::vector<std::uint32_t> comp_links_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint64_t> comp_bits_;
  std::vector<std::uint64_t> flow_mark_;  // slot-indexed
  std::uint64_t comp_epoch_ = 0;
  std::vector<std::uint32_t> due_slots_;  // completion scan scratch

  // --- struct-of-arrays flow arena ---
  // Dense slot-indexed mirrors of the Flow fields the fill hot loops read,
  // plus each flow's completion deadline; Flow::spec stays authoritative for
  // the public API. Path rows live in a shared pool so a fill walks
  // contiguous memory instead of per-flow vectors.
  // pythia-lint: allow(snapshot-skip, group) struct-of-arrays mirror of
  // Flow::spec (which IS encoded): re-admitting the encoded flows through
  // start_flow() repopulates every arena row and the path pool.
  std::vector<double> arena_weight_;        // slot-indexed
  std::vector<double> arena_rate_bps_;      // slot-indexed
  std::vector<std::int64_t> arena_eta_ns_;  // slot-indexed; -1 = starved
  std::vector<std::uint8_t> arena_cls_;     // slot-indexed
  std::vector<LinkId> path_pool_;
  std::vector<std::uint32_t> path_off_;     // slot-indexed; kNoPos = freed
  std::vector<std::uint32_t> path_len_;     // slot-indexed
  std::vector<std::uint8_t> path_bucket_;   // slot-indexed
  SpanArena path_arena_;

  // pythia-lint: allow(snapshot-skip, group) completion_event_ is
  // re-scheduled from the encoded scheduled_eta_ns_ during restore, and
  // observers re-register themselves when the owning system is rebuilt.
  // scheduled_eta_ns_ and last_settle_ ARE encoded.
  std::int64_t scheduled_eta_ns_ = -1;
  util::SimTime last_settle_ = util::SimTime::zero();
  sim::EventHandle completion_event_;
  std::vector<FabricObserver*> observers_;

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  util::Bytes bytes_delivered_;
  FabricCounters counters_;
};

}  // namespace pythia::net

// Pythia prediction-notification collector (runs beside the controller).
//
// Responsibilities from the paper:
//  * receive per-(map, reducer) shuffle intents from every slave's
//    instrumentation process;
//  * hold intents whose reducer has not started yet ("unknown destination")
//    and complete them from reducer-initialization events;
//  * aggregate all flows from one mapper server to one reducer server into a
//    single flow entry that sums constituent sizes (dst TCP ports are
//    unknowable in advance, so rules must match at server granularity);
//  * hand batches of aggregate updates to the flow-allocation module.
//
// Updates accumulate for `batch_window` and are then handed over jointly,
// first-fit decreasing: aggregates feeding the most loaded reducer server go
// first (criticality-aware), larger aggregates before smaller ones. Each
// update carries how many intents it coalesces, which weights the install
// outcome accounting the watchdog reads.
//
// The collector sits at the receiving end of a lossy management network
// (sim::FaultChannel), so it also defends itself: held intents expire after a
// TTL (a reducer-initialization event may have been lost, or the reducer may
// never launch), and a job's residue is purged when the job completes.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/prediction.hpp"
#include "sim/simulation.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::core {

class Allocator;
class ControlPlaneWatchdog;

struct CollectorConfig {
  /// Aggregation window: intents arriving within it are allocated jointly
  /// (the paper's heuristic "jointly allocates sets of predicted flows").
  util::Duration batch_window = util::Duration::millis(100);
  /// Flow criticality (the paper's differentiator over FlowComb): order
  /// batch allocation by how loaded the *destination reducer server* is —
  /// flows feeding the barrier-critical reducer get first pick of paths.
  /// When false, plain first-fit-decreasing by aggregate volume.
  bool criticality_aware = true;
  /// Held-intent TTL: an intent whose reducer location never materializes
  /// (lost reducer-init message, reducer never launched) is dropped this
  /// long after arrival. Purging is lazy — no events are scheduled — so a
  /// fault-free run whose reducers start within the TTL is byte-identical
  /// to one without the TTL. Zero disables expiry.
  util::Duration intent_ttl = util::Duration::seconds_i(600);
};

class Collector {
 public:
  Collector(sim::Simulation& sim, Allocator& allocator,
            CollectorConfig cfg = {});
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Intent from an instrumentation process; dst may be unknown yet.
  void ingest(const ShuffleIntent& intent);

  /// Reducer-initialization event: resolves pending intents for the reducer.
  void reducer_located(std::size_t job_serial, std::size_t reduce_index,
                       net::NodeId server);

  /// A shuffle fetch finished; retires predicted volume so the allocator's
  /// outstanding-load bookkeeping tracks reality.
  void fetch_completed(net::NodeId src_server, net::NodeId dst_server,
                       util::Bytes payload);

  /// Job teardown: reclaims held intents and reducer locations for the job
  /// so intents for never-launched reducers cannot leak across jobs.
  void job_completed(std::size_t job_serial);

  /// Health-watchdog hookup: every delivered notification is reported so the
  /// watchdog can track control-plane staleness.
  void set_watchdog(ControlPlaneWatchdog* watchdog) { watchdog_ = watchdog; }

  /// Outstanding predicted volume destined to a server (criticality proxy:
  /// the most-loaded reducer server gates the shuffle barrier).
  [[nodiscard]] util::Bytes destination_outstanding(net::NodeId dst) const;
  /// Mean outstanding volume across destinations that currently have any.
  [[nodiscard]] util::Bytes mean_destination_outstanding() const;

  // --- accounting ---
  [[nodiscard]] std::uint64_t intents_received() const { return received_; }
  [[nodiscard]] std::uint64_t intents_held_for_reducer() const {
    return held_;
  }
  /// flush_batch invocations with work.
  [[nodiscard]] std::uint64_t batches_flushed() const { return batches_; }
  /// Held intents dropped because their reducer location never arrived
  /// within the TTL.
  [[nodiscard]] std::uint64_t intents_expired() const { return expired_; }
  /// Held intents reclaimed by job completion.
  [[nodiscard]] std::uint64_t intents_purged_on_completion() const {
    return purged_on_completion_;
  }
  /// Completed fetches whose wire bytes exceeded the remaining predicted
  /// volume for the destination (prediction lost or under-estimated); the
  /// outstanding counter is clamped at zero instead of going negative.
  [[nodiscard]] std::uint64_t underflow_events() const { return underflows_; }
  /// Aggregates currently known (src-server, dst-server pairs ever seen).
  [[nodiscard]] std::size_t aggregate_count() const { return pair_seen_.size(); }
  /// Intents currently parked waiting for a reducer location.
  [[nodiscard]] std::size_t intents_waiting() const;

  /// Cumulative predicted wire volume that `server` will source towards
  /// *other* servers (Fig. 5's predicted curve); points are stamped when the
  /// destination became known — at ingest for running reducers, at
  /// reducer-location resolution otherwise.
  [[nodiscard]] const std::vector<PredictionPoint>& predicted_curve(
      net::NodeId server) const;

  /// Serializes the collector's logical state for snapshots: reducer
  /// locations, held intents, aggregates, per-destination outstanding
  /// volume, prediction curves, counters, and the open batch.
  void encode_state(sim::StateEncoder& enc) const;

 private:
  struct ReducerKey {
    std::size_t job_serial;
    std::size_t reduce_index;
    friend auto operator<=>(const ReducerKey&, const ReducerKey&) = default;
  };
  struct HeldIntent {
    ShuffleIntent intent;
    util::SimTime held_at;  // arrival time; TTL counts from here
  };
  /// Batch entry: coalesced bytes plus how many intents they came
  /// from (the intent count is what failure accounting must weight by).
  struct PendingUpdate {
    std::int64_t bytes = 0;
    std::uint64_t intents = 0;
  };
  void enqueue_update(net::NodeId src, net::NodeId dst, util::Bytes wire);
  void flush_batch();
  /// Lazily drops held intents past the TTL; cheap when nothing can expire.
  void purge_expired();

  // pythia-lint: allow(snapshot-skip, group) wiring and config identity:
  // pointers are re-connected by the restore factory and cfg_ is covered by
  // the scenario fingerprint.
  sim::Simulation* sim_;
  Allocator* allocator_;
  ControlPlaneWatchdog* watchdog_ = nullptr;
  CollectorConfig cfg_;

  std::map<ReducerKey, net::NodeId> reducer_location_;
  std::map<ReducerKey, std::vector<HeldIntent>> waiting_;
  /// Earliest possible held-intent expiry; SimTime::max() when none held.
  util::SimTime next_expiry_ = util::SimTime::max();

  /// Batched aggregate additions keyed by (src, dst) server pair.
  std::map<std::pair<std::uint32_t, std::uint32_t>, PendingUpdate> batch_;
  bool flush_pending_ = false;

  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> pair_seen_;
  std::unordered_map<net::NodeId, std::int64_t> dst_outstanding_;
  std::unordered_map<net::NodeId, std::vector<PredictionPoint>> curves_;
  std::unordered_map<net::NodeId, std::int64_t> predicted_totals_;
  // pythia-lint: allow(snapshot-skip) immutable empty-sentinel returned for
  // unknown reducers; never written after construction.
  std::vector<PredictionPoint> empty_curve_;
  std::uint64_t received_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t purged_on_completion_ = 0;
  std::uint64_t underflows_ = 0;
  // pythia-lint: allow(snapshot-skip) pure value object derived from cfg_ at
  // construction (predict_wire_bytes is const); holds no run state.
  ProtocolOverheadModel retire_model_;
};

}  // namespace pythia::core

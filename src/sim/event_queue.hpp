// Discrete-event queue.
//
// Events are ordered by (time, insertion sequence) so that same-time events
// fire in deterministic FIFO order — a hard requirement for reproducible
// experiments. Cancellation is lazy: a cancelled event stays in the heap but
// is skipped on pop, which keeps cancel O(1) (the fluid network model cancels
// its pending flow-completion event on every recompute). To bound memory
// under that churn, the heap is compacted — cancelled entries erased and the
// heap rebuilt — once they outnumber live ones (and exceed a small floor);
// (time, seq) is a total order, so rebuilding cannot perturb firing order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/time.hpp"

namespace pythia::sim {

using EventFn = std::function<void()>;

/// Thrown out of the event loop when an installed abort check trips (the
/// sweep executor's cooperative wall-clock timeout). Carries the simulation
/// position so the failure is attributable and reproducible.
class AbortedError : public std::runtime_error {
 public:
  AbortedError(util::SimTime at_, std::uint64_t events_fired_)
      : std::runtime_error("simulation run aborted at t=" +
                           std::to_string(at_.ns()) + "ns after " +
                           std::to_string(events_fired_) + " events"),
        at(at_),
        events_fired(events_fired_) {}

  util::SimTime at;
  std::uint64_t events_fired;
};

/// Handle used to cancel a scheduled event. Default-constructed handles are
/// inert. Copies share the same cancellation flag.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet; idempotent.
  void cancel();
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool cancelled() const;

 private:
  friend class EventQueue;
  struct State {
    bool cancelled = false;
    bool fired = false;
    std::size_t* live = nullptr;       // queue's live-event counter
    std::size_t* cancelled_in_heap = nullptr;  // queue's garbage counter
  };
  explicit EventHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at`. `at` must be >= now() (asserted).
  EventHandle schedule(util::SimTime at, EventFn fn);

  /// Convenience: schedule `fn` after a relative delay.
  EventHandle schedule_after(util::Duration delay, EventFn fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  /// Pops and runs the earliest non-cancelled event; advances now() to its
  /// timestamp. Returns false when the queue is empty.
  bool run_one();

  /// Runs events until the queue drains or `limit` events have fired.
  /// Returns the number of events fired.
  std::size_t run_all(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until` (advances now() to `until` even if
  /// the queue drains earlier). Returns the number of events fired.
  std::size_t run_until(util::SimTime until);

  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of scheduled, not-yet-fired, not-cancelled events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  /// Physical heap size including not-yet-compacted cancelled entries; the
  /// compaction test asserts this stays bounded under cancel churn.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  // --- snapshot support (see sim/snapshot.hpp) ---

  /// Timestamp + insertion sequence of one live (scheduled, uncancelled,
  /// unfired) entry; the closure itself is not marshalable.
  struct PendingEventInfo {
    util::SimTime at;
    std::uint64_t seq;
  };
  /// The canonical logical content of the queue: live entries sorted by
  /// (time, seq). Deliberately independent of the physical heap layout,
  /// which varies with compaction history even between logically identical
  /// queues.
  [[nodiscard]] std::vector<PendingEventInfo> pending_events() const;
  /// Next insertion sequence number (counts cancelled entries too — two
  /// runs only replay identically if their schedule() call sequences match).
  [[nodiscard]] std::uint64_t next_sequence() const { return next_seq_; }
  /// Cancelled entries still parked in the heap (lazy-cancel garbage).
  [[nodiscard]] std::size_t cancelled_in_heap() const {
    return cancelled_in_heap_;
  }
  /// Advances the clock without firing anything; `to` must be >= now() and
  /// <= the next live event. Restore uses this to reproduce a capture clock
  /// that run_until() parked *between* events — replaying to the event
  /// cursor alone leaves now() at the last fired event's timestamp, which
  /// would diverge from the captured image (see docs/checkpoint.md).
  void advance_now(util::SimTime to);

  /// Installs a cooperative abort check, polled every kAbortCheckStride
  /// fired events; when it returns true the loop throws AbortedError. The
  /// check must not touch simulation state — the sweep executor installs a
  /// wall-clock deadline, which only ever decides whether a run *dies*,
  /// never what a surviving run computes.
  void install_abort_check(std::function<bool()> should_abort) {
    abort_check_ = std::move(should_abort);
  }

 private:
  struct Entry {
    util::SimTime at;
    std::uint64_t seq;
    EventFn fn;
    std::shared_ptr<EventHandle::State> state;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Don't bother compacting tiny heaps.
  static constexpr std::size_t kCompactFloor = 64;
  /// Abort-check polling stride (events between wall-clock deadline polls).
  static constexpr std::uint64_t kAbortCheckStride = 1024;

  void maybe_compact();
  /// Pops cancelled entries off the heap top so front() is the next real
  /// event.
  void skim_cancelled();

  // Raw vector + std::push_heap/pop_heap (rather than std::priority_queue)
  // so compaction can erase_if + make_heap in place.
  std::vector<Entry> heap_;
  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  std::function<bool()> abort_check_;
};

}  // namespace pythia::sim

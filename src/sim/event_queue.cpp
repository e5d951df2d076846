#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pythia::sim {

void EventHandle::cancel() {
  if (!state_ || state_->cancelled || state_->fired) return;
  state_->cancelled = true;
  if (state_->live != nullptr) {
    assert(*state_->live > 0);
    --*state_->live;
  }
  if (state_->cancelled_in_heap != nullptr) {
    ++*state_->cancelled_in_heap;
  }
}

bool EventHandle::cancelled() const { return state_ && state_->cancelled; }

EventHandle EventQueue::schedule(util::SimTime at, EventFn fn) {
  assert(at >= now_ && "cannot schedule into the past");
  auto state = std::make_shared<EventHandle::State>();
  state->live = &live_;
  state->cancelled_in_heap = &cancelled_in_heap_;
  heap_.push_back(Entry{at, next_seq_++, std::move(fn), state});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  // Cancel itself is O(1) and has no access to the heap, so garbage is
  // collected at the next schedule/pop touch point.
  maybe_compact();
  return EventHandle{std::move(state)};
}

bool EventQueue::run_one() {
  skim_cancelled();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  entry.state->fired = true;
  --live_;
  assert(entry.at >= now_);
  now_ = entry.at;
  ++fired_;
  if (abort_check_ && fired_ % kAbortCheckStride == 0 && abort_check_()) {
    throw AbortedError(now_, fired_);
  }
  entry.fn();
  return true;
}

std::size_t EventQueue::run_all(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && run_one()) ++n;
  return n;
}

std::size_t EventQueue::run_until(util::SimTime until) {
  std::size_t n = 0;
  for (;;) {
    skim_cancelled();
    if (heap_.empty() || heap_.front().at > until) break;
    if (run_one()) ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

std::vector<EventQueue::PendingEventInfo> EventQueue::pending_events() const {
  std::vector<PendingEventInfo> out;
  out.reserve(live_);
  for (const auto& entry : heap_) {
    if (entry.state->cancelled) continue;
    out.push_back({entry.at, entry.seq});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEventInfo& a, const PendingEventInfo& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.seq < b.seq;
            });
  return out;
}

void EventQueue::advance_now(util::SimTime to) {
  assert(to >= now_ && "cannot rewind the clock");
  assert((heap_.empty() || pending_events().empty() ||
          pending_events().front().at >= to) &&
         "cannot idle-advance past a live event");
  now_ = to;
}

void EventQueue::skim_cancelled() {
  while (!heap_.empty() && heap_.front().state->cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    assert(cancelled_in_heap_ > 0);
    --cancelled_in_heap_;
  }
}

void EventQueue::maybe_compact() {
  if (cancelled_in_heap_ < kCompactFloor ||
      cancelled_in_heap_ * 2 <= heap_.size()) {
    return;
  }
  std::erase_if(heap_, [](const Entry& e) { return e.state->cancelled; });
  // (time, seq) is a total order over entries, so rebuilding the heap cannot
  // change the order in which the remaining events fire.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_in_heap_ = 0;
}

}  // namespace pythia::sim

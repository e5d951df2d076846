// Parallel deterministic run fan-out.
//
// ParallelRunner executes N independent simulation runs across a thread pool
// and gathers the results in canonical index order. The determinism contract:
//
//   For a fixed task function, map(n, fn) returns a bit-for-bit identical
//   vector for ANY thread count, including 1.
//
// The contract holds because (a) every task builds its entire simulation
// universe — Simulation, Fabric, RNG streams — from its index (and seeds
// derived via util::split_seed / the run's ScenarioConfig), sharing no
// mutable state with other tasks, and (b) results are written to
// pre-allocated index slots and read only after wait_idle(), so scheduling
// order never leaks into the output. Anything order- or time-dependent
// (progress, wall-clock, utilization) is reported separately via
// RunnerCounters and excluded from result payloads.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace pythia::sim {
class Simulation;
}

namespace pythia::exp {

/// Progress/timing counters for a runner's lifetime; surfaced through the
/// bench table/CSV output. Non-deterministic by nature (wall time), so never
/// part of result rows.
struct RunnerCounters {
  std::size_t threads = 1;
  std::uint64_t runs_completed = 0;
  double wall_seconds = 0.0;  // summed over map() calls
  double busy_seconds = 0.0;  // summed worker in-task time

  /// Fraction of worker capacity spent inside runs (1.0 = perfectly packed).
  [[nodiscard]] double utilization() const {
    const double capacity = wall_seconds * static_cast<double>(threads);
    return capacity > 0.0 ? busy_seconds / capacity : 0.0;
  }
};

/// Why a guarded run produced no value.
enum class RunFailureKind : std::uint8_t {
  kNone,       // run completed
  kException,  // task threw (crash isolation: the sweep continues)
  kTimeout,    // per-run wall-clock budget exhausted (sim::AbortedError)
};

[[nodiscard]] const char* run_failure_name(RunFailureKind kind);

/// Crash-tolerance policy for run_guarded().
struct RunGuard {
  /// Per-attempt wall-clock budget in seconds; 0 disables the timeout. The
  /// deadline is enforced cooperatively (EventQueue abort checks), so it
  /// only ever decides whether a run *dies* — never what a surviving run
  /// computes. Surviving results stay bit-identical to unguarded runs.
  double timeout_seconds = 0.0;
  /// Attempts per run (first try + retries), always on the same seed lane —
  /// a retry is an exact re-execution, so a flaky-environment failure
  /// (timeout on a loaded machine) converges to the deterministic result.
  std::size_t max_attempts = 2;
  /// Optional run describer for crash reports ("point 3 arm Pythia seed 7").
  std::function<std::string(std::size_t)> describe;
};

/// Outcome of one guarded run: the value (valid when ok()), or a typed
/// failure with the attempt count and diagnostic message.
struct RunOutcome {
  double value = 0.0;
  RunFailureKind failure = RunFailureKind::kNone;
  std::size_t attempts = 0;
  std::string message;

  [[nodiscard]] bool ok() const { return failure == RunFailureKind::kNone; }
};

/// Per-attempt context handed to a guarded run. The run must call
/// bind(sim) once its simulation exists: that installs the wall-clock
/// deadline (and test-only injected faults) into the event loop and wires
/// the crash handler's progress stamps.
class RunContext {
 public:
  /// Arms the deadline/injection against `sim`; throws immediately when
  /// this (index, attempt) has an injected fault (PYTHIA_INJECT_RUN_FAULT).
  void bind(sim::Simulation& sim) const;

 private:
  friend RunOutcome run_guarded(
      std::size_t index, const RunGuard& guard,
      const std::function<double(const RunContext&)>& run);
  std::size_t index_ = 0;
  std::uint64_t deadline_ns_ = 0;  // steady-clock deadline; 0 = none
  bool inject_fault_ = false;      // throw on bind (attempt 1 only)
  bool inject_timeout_ = false;    // abort at the first check (attempt 1 only)
};

/// Crash-tolerant execution of run `index`: a run that throws or exceeds
/// the guard's wall-clock budget is retried (same index → same seed lane,
/// so a retry is an exact deterministic re-execution) up to
/// guard.max_attempts times, then returned as a typed failure instead of
/// propagating. The crash handler's per-thread stamp names the run while
/// it executes. A surviving value is bit-identical to calling `run`
/// unguarded, on any thread.
///
/// Test-only fault injection: PYTHIA_INJECT_RUN_FAULT /
/// PYTHIA_INJECT_RUN_TIMEOUT name comma-separated run indices whose
/// FIRST attempt fails (thrown exception / immediate cooperative abort);
/// retries succeed, exercising the recovery path end to end.
[[nodiscard]] RunOutcome run_guarded(
    std::size_t index, const RunGuard& guard,
    const std::function<double(const RunContext&)>& run);

class ParallelRunner {
 public:
  /// `threads == 0` uses one worker per hardware core.
  explicit ParallelRunner(std::size_t threads = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  /// Runs fn(0..n-1) across the pool; returns results in index order.
  /// Blocks until every run finishes. If any run throws, the first exception
  /// in index order is rethrown after the batch drains.
  template <typename T>
  std::vector<T> map(std::size_t n, const std::function<T(std::size_t)>& fn) {
    std::vector<T> results(n);
    std::vector<std::exception_ptr> errors(n);
    const std::uint64_t batch_t0_ns = begin_batch();
    for (std::size_t i = 0; i < n; ++i) {
      pool().submit([&, i] {
        try {
          results[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool().wait_idle();
    end_batch(batch_t0_ns);
    for (auto& err : errors) {
      if (err) std::rethrow_exception(err);
    }
    return results;
  }

  [[nodiscard]] std::size_t thread_count() const;
  /// Runs finished so far; safe to poll from another thread mid-batch.
  [[nodiscard]] std::uint64_t runs_completed() const;
  /// Lifetime counters (threads, runs, wall/busy seconds, utilization).
  [[nodiscard]] RunnerCounters counters() const;

 private:
  [[nodiscard]] util::ThreadPool& pool() { return *pool_; }
  // Wall-clock sampling is confined to these two and to the counters they
  // feed; timestamps never flow through map() or into result payloads.
  // The batch start time stays a per-call value (returned by begin_batch(),
  // consumed by end_batch()) so concurrent map() calls on one runner don't
  // clobber each other's timestamps.
  [[nodiscard]] std::uint64_t begin_batch() const;
  void end_batch(std::uint64_t batch_t0_ns);

  std::unique_ptr<util::ThreadPool> pool_;
  double wall_seconds_ = 0.0;
};

}  // namespace pythia::exp

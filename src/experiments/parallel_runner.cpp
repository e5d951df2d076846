#include "experiments/parallel_runner.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "experiments/crash_handler.hpp"
#include "sim/simulation.hpp"

namespace pythia::exp {

namespace {
// Wall-clock sampling lives in exactly one place, feeds RunnerCounters
// (wall/busy seconds) and nothing else; run results never read it, so the
// bit-identity contract of map() is untouched.
std::uint64_t steady_ns() {
  // pythia-lint: allow(wall-clock) counters-only wall time; results never
  // depend on it (see RunnerCounters doc)
  const auto now = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}
/// True when the comma-separated index list in env var `name` contains
/// `index`. Test-only hook for the crash-injected sweep CI job; unset in
/// normal operation, so the parse cost is a getenv.
bool env_index_listed(const char* name, std::size_t index) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return false;
  std::istringstream ss{std::string(raw)};
  std::string token;
  while (std::getline(ss, token, ',')) {
    try {
      if (!token.empty() && std::stoull(token) == index) return true;
    } catch (const std::exception&) {
      // Malformed token: ignore (injection is a test-only convenience).
    }
  }
  return false;
}

}  // namespace

const char* run_failure_name(RunFailureKind kind) {
  switch (kind) {
    case RunFailureKind::kNone:
      return "none";
    case RunFailureKind::kException:
      return "exception";
    case RunFailureKind::kTimeout:
      return "timeout";
  }
  return "unknown";
}

void RunContext::bind(sim::Simulation& sim) const {
  if (inject_fault_) {
    throw std::runtime_error(
        "injected run fault (PYTHIA_INJECT_RUN_FAULT) for run " +
        std::to_string(index_));
  }
  const std::uint64_t deadline = deadline_ns_;
  const bool inject_timeout = inject_timeout_;
  if (deadline == 0 && !inject_timeout) {
    // No guard armed: still stamp progress for the crash handler, riding
    // the same cooperative poll the deadline would use.
    sim.install_abort_check([&sim] {
      crash_stamp_progress(sim.now().ns(), sim.queue().events_fired());
      return false;
    });
    return;
  }
  sim.install_abort_check([&sim, deadline, inject_timeout] {
    crash_stamp_progress(sim.now().ns(), sim.queue().events_fired());
    if (inject_timeout) return true;
    if (deadline == 0) return false;
    // pythia-lint: allow(wall-clock) cooperative run deadline; only decides
    // whether a run dies, never what a surviving run computes
    const auto now_ns = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(now_ns)
                   .count()) >= deadline;
  });
}

RunOutcome run_guarded(std::size_t index, const RunGuard& guard,
                       const std::function<double(const RunContext&)>& run) {
  RunOutcome out;
  const std::size_t budget = guard.max_attempts > 0 ? guard.max_attempts : 1;
  for (std::size_t attempt = 1; attempt <= budget; ++attempt) {
    RunContext ctx;
    ctx.index_ = index;
    if (guard.timeout_seconds > 0.0) {
      ctx.deadline_ns_ =
          steady_ns() +
          static_cast<std::uint64_t>(guard.timeout_seconds * 1e9);
    }
    // Injected faults hit only the first attempt: the retry then succeeds,
    // exercising the recovery path end to end.
    if (attempt == 1) {
      ctx.inject_fault_ = env_index_listed("PYTHIA_INJECT_RUN_FAULT", index);
      ctx.inject_timeout_ =
          env_index_listed("PYTHIA_INJECT_RUN_TIMEOUT", index);
    }
    out.attempts = attempt;
    crash_stamp_run(index, guard.describe ? guard.describe(index)
                                          : std::string());
    try {
      out.value = run(ctx);
      out.failure = RunFailureKind::kNone;
      out.message.clear();
      break;
    } catch (const sim::AbortedError& e) {
      out.failure = RunFailureKind::kTimeout;
      out.message = "run timed out at sim t=" + std::to_string(e.at.ns()) +
                    "ns after " + std::to_string(e.events_fired) + " events";
    } catch (const std::exception& e) {
      out.failure = RunFailureKind::kException;
      out.message = e.what();
    } catch (...) {
      out.failure = RunFailureKind::kException;
      out.message = "unknown exception";
    }
  }
  crash_stamp_clear();
  return out;
}

ParallelRunner::ParallelRunner(std::size_t threads)
    : pool_(std::make_unique<util::ThreadPool>(threads)) {}

ParallelRunner::~ParallelRunner() = default;

std::size_t ParallelRunner::thread_count() const {
  return pool_->thread_count();
}

std::uint64_t ParallelRunner::runs_completed() const {
  return pool_->tasks_completed();
}

RunnerCounters ParallelRunner::counters() const {
  RunnerCounters c;
  c.threads = pool_->thread_count();
  c.runs_completed = pool_->tasks_completed();
  c.wall_seconds = wall_seconds_;
  c.busy_seconds = pool_->busy_seconds();
  return c;
}

std::uint64_t ParallelRunner::begin_batch() const { return steady_ns(); }

void ParallelRunner::end_batch(std::uint64_t batch_t0_ns) {
  wall_seconds_ += static_cast<double>(steady_ns() - batch_t0_ns) / 1e9;
}

}  // namespace pythia::exp

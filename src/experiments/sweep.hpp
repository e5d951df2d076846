// Parameter-sweep harness for the paper's evaluation figures: job completion
// time vs. network over-subscription ratio, ECMP vs. Pythia, averaged over
// seeds ("average of multiple executions" in the paper).
//
// Sweeps fan their independent (point × scheduler × seed) runs out across a
// ParallelRunner; results are gathered in canonical order, so the returned
// rows — and their CSV serialization — are bit-for-bit identical for any
// thread count, including 1. See parallel_runner.hpp for the contract and
// docs/robustness.md for the crash-tolerance and resume behaviour.
#pragma once

#include <string>
#include <vector>

#include "experiments/parallel_runner.hpp"
#include "experiments/scenario.hpp"
#include "hadoop/config.hpp"
#include "util/table.hpp"

namespace pythia::exp {

struct OversubPoint {
  std::string label;  // "none", "1:2", ...
  double ratio;       // 1.0, 2.0, ...
};

/// The ratios of the paper's Figures 3 and 4.
[[nodiscard]] std::vector<OversubPoint> paper_oversubscription_points();

/// Runs one scenario+job and returns completion time in seconds.
[[nodiscard]] double run_completion_seconds(const ScenarioConfig& cfg,
                                            const hadoop::JobSpec& job);

struct SpeedupRow {
  std::string label;
  double baseline_mean_s = 0.0;
  double baseline_stddev_s = 0.0;
  double treatment_mean_s = 0.0;
  double treatment_stddev_s = 0.0;

  /// Relative improvement of treatment over baseline (0.46 == 46% faster,
  /// computed as baseline/treatment - 1, the paper's "speedup").
  [[nodiscard]] double speedup() const {
    return treatment_mean_s > 0.0
               ? baseline_mean_s / treatment_mean_s - 1.0
               : 0.0;
  }
};

struct SweepConfig {
  /// Per run, the seed, oversubscription ratio and scheduler are
  /// overwritten by the run's (point, arm, seed) cell; the arms are always
  /// ECMP (baseline) and Pythia (treatment), the paper's comparison.
  ScenarioConfig base;
  std::vector<std::uint64_t> seeds{1, 2, 3};
  /// Worker threads for the run fan-out; 0 = one per hardware core. Results
  /// are identical for every value — this only trades wall time.
  std::size_t threads = 0;
  /// Per-run timeout/retry policy (see RunGuard); default: no timeout,
  /// one retry.
  RunGuard guard;
  /// Checkpoint manifest path; empty disables persistence. Each run's
  /// outcome is appended as soon as its attempts end, so a crash loses at
  /// most the runs in flight. A re-launched sweep pointing at the same
  /// manifest skips runs already completed ok and re-attempts failed or
  /// missing ones. The manifest is fingerprinted: changing the config,
  /// seeds, points, or job starts fresh.
  std::string manifest_path;
};

/// Typed failure of one sweep run, reported in canonical (point, arm, seed)
/// order instead of aborting the whole sweep.
struct SweepRunFailure {
  std::size_t run_index = 0;
  std::string point_label;
  std::string arm;  // scheduler name of the failing arm
  std::uint64_t seed = 0;
  RunFailureKind kind = RunFailureKind::kNone;
  std::size_t attempts = 0;
  std::string message;
};

/// One-line report of a failed run ("run 3 failed: point 1:10 arm Pythia
/// seed 2 — exception after 2 attempt(s): ...").
[[nodiscard]] std::string describe_failure(const SweepRunFailure& failure);

struct SweepResult {
  /// Aggregated rows over the runs that completed ok.
  std::vector<SpeedupRow> rows;
  /// Runs that exhausted their attempt budget, canonical order.
  std::vector<SweepRunFailure> failures;
  /// Runs served bit-exactly from the manifest instead of executed.
  std::size_t resumed_runs = 0;
};

/// Stable fingerprint of an entire sweep (base config + job + seeds +
/// points); keys the resume manifest.
[[nodiscard]] std::uint64_t sweep_fingerprint(
    const SweepConfig& sweep, const hadoop::JobSpec& job,
    const std::vector<OversubPoint>& points);

/// Fig. 3 / Fig. 4 style sweep: for every over-subscription point, run the
/// job under ECMP and Pythia across all seeds, on `sweep.threads` workers.
/// Crash-tolerant: per-run wall-clock timeout and bounded retry on the same
/// seed lane; a run that keeps failing becomes a typed entry in `failures`
/// and the sweep completes over the survivors. With a manifest it resumes
/// an interrupted sweep. Rows are bit-identical for any thread count and
/// across crash/resume recovery. Pass `counters` to receive progress and
/// timing (runs completed, wall seconds, worker utilization).
[[nodiscard]] SweepResult run_oversubscription_sweep(
    const SweepConfig& sweep, const hadoop::JobSpec& job,
    const std::vector<OversubPoint>& points,
    RunnerCounters* counters = nullptr);

/// Paper-style output table for a sweep.
[[nodiscard]] util::Table speedup_table(const std::vector<SpeedupRow>& rows,
                                        const std::string& baseline_name,
                                        const std::string& treatment_name);

/// Deterministic CSV serialization of sweep rows (shortest round-trip
/// precision). This is the byte-level artifact the determinism tests diff
/// across thread counts; timing counters are deliberately excluded.
[[nodiscard]] std::string speedup_rows_csv(const std::vector<SpeedupRow>& rows);

/// Progress/timing footer for bench table output ("N runs, X s wall on
/// T threads, U% utilization").
[[nodiscard]] std::string runner_counters_summary(const RunnerCounters& c);

/// Multi-scheduler comparison at one operating point (ablation A1).
struct LadderRow {
  std::string scheduler;
  double mean_s = 0.0;
  double stddev_s = 0.0;
};
[[nodiscard]] std::vector<LadderRow> run_scheduler_ladder(
    const ScenarioConfig& base, const hadoop::JobSpec& job,
    const std::vector<SchedulerKind>& schedulers,
    const std::vector<std::uint64_t>& seeds, std::size_t threads = 0,
    RunnerCounters* counters = nullptr);

}  // namespace pythia::exp

// Crash-tolerant sweep: injected crashes/timeouts recover to bit-identical
// results, exhausted attempt budgets become typed failures in canonical
// order, and a manifest-backed sweep resumes — serving completed runs
// bit-exactly — after an interruption or a hard process crash. Injection
// uses the sweep's env hooks (PYTHIA_INJECT_RUN_FAULT / PYTHIA_INJECT_RUN_TIMEOUT: run
// indices whose FIRST attempt fails), the same hooks the CI crash-drill job
// uses.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/manifest.hpp"
#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "workloads/hibench.hpp"

namespace pythia::exp {
namespace {

hadoop::JobSpec tiny_job() {
  // Big enough to cross the 1024-event cooperative abort poll (an 8 GB /
  // 32-reducer sort fires a few thousand events), small enough to stay
  // sub-second per run.
  return workloads::sort_job(util::Bytes{8'000'000'000LL}, 32);
}

SweepConfig tiny_sweep(std::size_t threads) {
  SweepConfig sweep;
  sweep.seeds = {1, 2};
  sweep.threads = threads;
  return sweep;
}

const std::vector<OversubPoint> kPoint = {{"1:10", 10.0}};
const std::vector<OversubPoint> kTwoPoints = {{"none", 1.0}, {"1:10", 10.0}};

/// Injection indices are honored at the first cooperative abort poll, which
/// fires every 1024 events — assert the job is big enough to reach it.
void assert_runs_reach_abort_poll() {
  Scenario scenario(tiny_sweep(1).base);
  (void)scenario.run_job(tiny_job());
  ASSERT_GE(scenario.simulation().queue().events_fired(), 1024u);
}

struct EnvGuard {
  ~EnvGuard() {
    ::unsetenv("PYTHIA_INJECT_RUN_FAULT");
    ::unsetenv("PYTHIA_INJECT_RUN_TIMEOUT");
  }
};

TEST(ResumableSweep, CleanSweepMatchesOneThreadRunAcrossThreadCounts) {
  const auto job = tiny_job();
  const auto clean = run_oversubscription_sweep(tiny_sweep(1), job, kPoint);
  ASSERT_TRUE(clean.failures.empty());
  const std::string clean_csv = speedup_rows_csv(clean.rows);

  for (const std::size_t threads : {2UL, 8UL}) {
    const auto result =
        run_oversubscription_sweep(tiny_sweep(threads), job, kPoint);
    EXPECT_TRUE(result.failures.empty());
    EXPECT_EQ(result.resumed_runs, 0u);
    EXPECT_EQ(speedup_rows_csv(result.rows), clean_csv)
        << "sweep diverged at " << threads << " threads";
  }
}

TEST(ResumableSweep, InjectedCrashesAndTimeoutsRecoverBitIdentically) {
  assert_runs_reach_abort_poll();
  const auto job = tiny_job();
  const auto clean =
      run_oversubscription_sweep(tiny_sweep(1), job, kPoint).rows;

  EnvGuard env;
  ::setenv("PYTHIA_INJECT_RUN_FAULT", "0,3", 1);
  ::setenv("PYTHIA_INJECT_RUN_TIMEOUT", "2", 1);
  SweepConfig cfg = tiny_sweep(4);
  // Default guard: 1 retry. Injection kills attempt 1 only, so every run
  // converges on its retry — on the same seed lane, hence bit-identically.
  const auto result = run_oversubscription_sweep(cfg, job, kPoint);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(speedup_rows_csv(result.rows), speedup_rows_csv(clean));
}

TEST(ResumableSweep, ExhaustedBudgetBecomesTypedFailureInCanonicalOrder) {
  const auto job = tiny_job();

  EnvGuard env;
  ::setenv("PYTHIA_INJECT_RUN_FAULT", "0,5", 1);
  SweepConfig cfg = tiny_sweep(4);
  cfg.guard.max_attempts = 1;  // no retry: injected faults become failures
  const auto result = run_oversubscription_sweep(cfg, job, kTwoPoints);

  // Canonical decomposition with 2 seeds: runs_per_point = 4;
  // run 0 = (point "none", baseline arm, seed 1),
  // run 5 = (point "1:10", baseline arm, seed 2).
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].run_index, 0u);
  EXPECT_EQ(result.failures[0].point_label, "none");
  EXPECT_EQ(result.failures[0].seed, 1u);
  EXPECT_EQ(result.failures[0].kind, RunFailureKind::kException);
  EXPECT_EQ(result.failures[0].attempts, 1u);
  EXPECT_EQ(result.failures[1].run_index, 5u);
  EXPECT_EQ(result.failures[1].point_label, "1:10");
  EXPECT_EQ(result.failures[1].seed, 2u);

  // Crash isolation: the sweep still completed and aggregated survivors.
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_GT(result.rows[0].treatment_mean_s, 0.0);
  EXPECT_GT(result.rows[1].treatment_mean_s, 0.0);
}

TEST(ResumableSweep, WallClockTimeoutProducesTimeoutKind) {
  assert_runs_reach_abort_poll();
  const auto job = tiny_job();

  SweepConfig cfg = tiny_sweep(2);
  cfg.guard.timeout_seconds = 1e-9;  // expires before the first poll
  cfg.guard.max_attempts = 1;
  const auto result = run_oversubscription_sweep(cfg, job, kPoint);
  ASSERT_EQ(result.failures.size(), 4u);
  for (const auto& failure : result.failures) {
    EXPECT_EQ(failure.kind, RunFailureKind::kTimeout);
    // Crash reporting names the abort point inside the simulation.
    EXPECT_NE(failure.message.find("timed out at sim t="), std::string::npos)
        << failure.message;
  }
}

TEST(ResumableSweep, ManifestResumeCompletesInterruptedSweepBitExactly) {
  const auto job = tiny_job();
  const auto clean =
      run_oversubscription_sweep(tiny_sweep(1), job, kPoint).rows;
  const std::string manifest =
      ::testing::TempDir() + "/resume_sweep.manifest";
  std::remove(manifest.c_str());

  {
    // "Crashing" first pass: run 2 dies permanently, the rest complete and
    // land in the manifest.
    EnvGuard env;
    ::setenv("PYTHIA_INJECT_RUN_FAULT", "2", 1);
    SweepConfig cfg = tiny_sweep(2);
    cfg.guard.max_attempts = 1;
    cfg.manifest_path = manifest;
    const auto first = run_oversubscription_sweep(cfg, job, kPoint);
    ASSERT_EQ(first.failures.size(), 1u);
    EXPECT_EQ(first.failures[0].run_index, 2u);
    EXPECT_EQ(first.resumed_runs, 0u);
  }

  // Relaunch against the same manifest, faults gone: completed runs are
  // served from disk, the failed one re-executes, and the sweep's output is
  // bit-identical to a never-interrupted sweep.
  SweepConfig cfg = tiny_sweep(2);
  cfg.manifest_path = manifest;
  const auto resumed = run_oversubscription_sweep(cfg, job, kPoint);
  EXPECT_EQ(resumed.resumed_runs, 3u);
  EXPECT_TRUE(resumed.failures.empty());
  EXPECT_EQ(speedup_rows_csv(resumed.rows), speedup_rows_csv(clean));

  // A third launch serves everything from the manifest.
  const auto warm = run_oversubscription_sweep(cfg, job, kPoint);
  EXPECT_EQ(warm.resumed_runs, 4u);
  EXPECT_EQ(speedup_rows_csv(warm.rows), speedup_rows_csv(clean));
  std::remove(manifest.c_str());
}

TEST(ResumableSweepDeathTest, ManifestKeepsRunsFinishedBeforeAProcessCrash) {
  const auto job = tiny_job();
  const auto clean =
      run_oversubscription_sweep(tiny_sweep(1), job, kPoint).rows;
  const std::string manifest =
      ::testing::TempDir() + "/process_crash_sweep.manifest";
  std::remove(manifest.c_str());

  // One worker runs the four runs in index order. The describe hook is
  // called as each attempt starts, so exiting there at run 3 kills the
  // process with runs 0-2 finished and run 3 in flight.
  SweepConfig cfg = tiny_sweep(1);
  cfg.manifest_path = manifest;
  cfg.guard.describe = [](std::size_t i) {
    if (i == 3) std::_Exit(9);
    return std::string();
  };
  EXPECT_EXIT((void)run_oversubscription_sweep(cfg, job, kPoint),
              ::testing::ExitedWithCode(9), "");

  {
    SweepManifest reopened;
    EXPECT_EQ(reopened.open(manifest, sweep_fingerprint(cfg, job, kPoint), 4),
              3u);
    EXPECT_FALSE(reopened.entry(3).has_value());
  }

  // The relaunch serves the three finished runs and executes only run 3.
  cfg.guard.describe = nullptr;
  const auto resumed = run_oversubscription_sweep(cfg, job, kPoint);
  EXPECT_EQ(resumed.resumed_runs, 3u);
  EXPECT_TRUE(resumed.failures.empty());
  EXPECT_EQ(speedup_rows_csv(resumed.rows), speedup_rows_csv(clean));
  std::remove(manifest.c_str());
}

TEST(ResumableSweep, ManifestFingerprintMismatchStartsFresh) {
  const auto job = tiny_job();
  const std::string manifest =
      ::testing::TempDir() + "/fingerprint_sweep.manifest";
  std::remove(manifest.c_str());

  SweepConfig cfg = tiny_sweep(2);
  cfg.manifest_path = manifest;
  (void)run_oversubscription_sweep(cfg, job, kPoint);

  // Different universe (extra seed) — the stale manifest must not leak its
  // cached values into it.
  SweepConfig other = cfg;
  other.seeds = {1, 3};
  const auto fresh = run_oversubscription_sweep(other, job, kPoint);
  EXPECT_EQ(fresh.resumed_runs, 0u);
  EXPECT_TRUE(fresh.failures.empty());

  // And the rewritten manifest now serves the new universe.
  const auto warm = run_oversubscription_sweep(other, job, kPoint);
  EXPECT_EQ(warm.resumed_runs, 4u);
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace pythia::exp

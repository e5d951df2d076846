// Determinism matrix for the parallel sweep engine — the core contract:
// running the same sweep at 1, 2, and 8 worker threads must produce
// byte-identical SpeedupRow vectors and CSV output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "experiments/parallel_runner.hpp"
#include "experiments/sweep.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::exp {
namespace {

hadoop::JobSpec tiny_job() {
  return workloads::sort_job(util::Bytes{2LL * 1000 * 1000 * 1000}, 4);
}

/// Bit-level double equality (EXPECT_DOUBLE_EQ tolerates 4 ULPs; the
/// determinism contract tolerates zero).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ at the bit level";
}

void expect_rows_identical(const std::vector<SpeedupRow>& a,
                           const std::vector<SpeedupRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_TRUE(bits_equal(a[i].baseline_mean_s, b[i].baseline_mean_s));
    EXPECT_TRUE(bits_equal(a[i].baseline_stddev_s, b[i].baseline_stddev_s));
    EXPECT_TRUE(bits_equal(a[i].treatment_mean_s, b[i].treatment_mean_s));
    EXPECT_TRUE(bits_equal(a[i].treatment_stddev_s, b[i].treatment_stddev_s));
  }
}

TEST(ParallelSweep, ByteIdenticalAcrossThreadCounts) {
  const auto job = tiny_job();
  const std::vector<OversubPoint> points = {{"none", 1.0}, {"1:10", 10.0}};

  std::vector<std::vector<SpeedupRow>> all_rows;
  std::vector<std::string> all_csv;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    SweepConfig sweep;
    sweep.seeds = {1, 2};
    sweep.threads = threads;
    RunnerCounters counters;
    const auto result =
        run_oversubscription_sweep(sweep, job, points, &counters);
    ASSERT_TRUE(result.failures.empty())
        << describe_failure(result.failures.front());
    all_rows.push_back(result.rows);
    all_csv.push_back(speedup_rows_csv(all_rows.back()));
    // 2 points x 2 arms x 2 seeds = 8 runs per sweep.
    EXPECT_EQ(counters.runs_completed, 8u);
    EXPECT_EQ(counters.threads, threads);
    EXPECT_GT(counters.wall_seconds, 0.0);
    EXPECT_GT(counters.busy_seconds, 0.0);
  }

  for (std::size_t i = 1; i < all_rows.size(); ++i) {
    expect_rows_identical(all_rows[0], all_rows[i]);
    EXPECT_EQ(all_csv[0], all_csv[i]) << "CSV diverged at thread count " << i;
  }
  // Sanity: the sweep produced real, positive results.
  for (const auto& row : all_rows[0]) {
    EXPECT_GT(row.baseline_mean_s, 0.0);
    EXPECT_GT(row.treatment_mean_s, 0.0);
  }
}

TEST(ParallelSweep, MatchesSerialReference) {
  // The parallel engine must reproduce the plain serial loop bit-for-bit.
  const auto job = tiny_job();
  const std::vector<OversubPoint> points = {{"1:5", 5.0}};
  SweepConfig sweep;
  sweep.seeds = {3, 4};
  sweep.threads = 8;
  const auto result = run_oversubscription_sweep(sweep, job, points);
  ASSERT_TRUE(result.failures.empty())
      << describe_failure(result.failures.front());
  const auto& rows = result.rows;

  // Serial reference, written out longhand.
  ScenarioConfig cfg = sweep.base;
  cfg.background.oversubscription = 5.0;
  double base_sum = 0.0;
  double treat_sum = 0.0;
  for (const std::uint64_t seed : sweep.seeds) {
    cfg.seed = seed;
    cfg.scheduler = SchedulerKind::kEcmp;
    base_sum += run_completion_seconds(cfg, job);
    cfg.scheduler = SchedulerKind::kPythia;
    treat_sum += run_completion_seconds(cfg, job);
  }
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(bits_equal(rows[0].baseline_mean_s, base_sum / 2.0));
  EXPECT_TRUE(bits_equal(rows[0].treatment_mean_s, treat_sum / 2.0));
}

TEST(ParallelSweep, LadderByteIdenticalAcrossThreadCounts) {
  const auto job = tiny_job();
  ScenarioConfig base;
  base.background.oversubscription = 10.0;
  const std::vector<SchedulerKind> ladder = {SchedulerKind::kEcmp,
                                             SchedulerKind::kPythia};

  std::vector<std::vector<LadderRow>> all;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    all.push_back(run_scheduler_ladder(base, job, ladder, {1, 2}, threads));
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_EQ(all[0].size(), all[i].size());
    for (std::size_t k = 0; k < all[0].size(); ++k) {
      EXPECT_EQ(all[0][k].scheduler, all[i][k].scheduler);
      EXPECT_TRUE(bits_equal(all[0][k].mean_s, all[i][k].mean_s));
      EXPECT_TRUE(bits_equal(all[0][k].stddev_s, all[i][k].stddev_s));
    }
  }
}

TEST(ParallelSweep, RunnerMapGathersInIndexOrder) {
  ParallelRunner runner(4);
  const auto out = runner.map<std::size_t>(
      257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelSweep, RunnerPropagatesExceptions) {
  ParallelRunner runner(2);
  EXPECT_THROW(
      runner.map<int>(8,
                      [](std::size_t i) {
                        if (i == 5) throw std::runtime_error("boom");
                        return static_cast<int>(i);
                      }),
      std::runtime_error);
}

TEST(ParallelSweep, SplitSeedIsLaneStableAndDistinct) {
  // Same (root, lane) -> same seed; different lanes/roots -> different seeds.
  EXPECT_EQ(util::split_seed(42, 7), util::split_seed(42, 7));
  EXPECT_NE(util::split_seed(42, 7), util::split_seed(42, 8));
  EXPECT_NE(util::split_seed(42, 7), util::split_seed(43, 7));
  // Distinct from the component-tag derivation key-space.
  EXPECT_NE(util::split_seed(42, 7), util::derive_seed(42, 7));
}

}  // namespace
}  // namespace pythia::exp

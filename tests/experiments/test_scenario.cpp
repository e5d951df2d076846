#include "experiments/scenario.hpp"

#include <gtest/gtest.h>

#include "experiments/sweep.hpp"
#include "workloads/hibench.hpp"

namespace pythia::exp {
namespace {

using util::Bytes;

hadoop::JobSpec tiny_job() {
  hadoop::JobSpec spec = workloads::sort_job(Bytes{2'000'000'000}, 4);
  return spec;
}

TEST(Scenario, BuildsForEverySchedulerKind) {
  for (const auto kind :
       {SchedulerKind::kEcmp, SchedulerKind::kPythia, SchedulerKind::kHedera,
        SchedulerKind::kFlowCombLike, SchedulerKind::kStaticOracle}) {
    ScenarioConfig cfg;
    cfg.seed = 2;
    cfg.scheduler = kind;
    cfg.background.oversubscription = 5.0;
    Scenario scenario(cfg);
    const auto result = scenario.run_job(tiny_job());
    EXPECT_GT(result.completion_time().seconds(), 0.0)
        << scheduler_name(kind);
    EXPECT_EQ(result.maps.size(), tiny_job().num_maps());
  }
}

TEST(Scenario, SchedulerNames) {
  EXPECT_EQ(scheduler_name(SchedulerKind::kEcmp), "ECMP");
  EXPECT_EQ(scheduler_name(SchedulerKind::kPythia), "Pythia");
  EXPECT_EQ(scheduler_name(SchedulerKind::kHedera), "Hedera");
  EXPECT_EQ(scheduler_name(SchedulerKind::kFlowCombLike), "FlowComb-like");
  EXPECT_EQ(scheduler_name(SchedulerKind::kStaticOracle), "StaticOracle");
}

TEST(Scenario, ComponentAccessorsMatchScheduler) {
  ScenarioConfig cfg;
  cfg.scheduler = SchedulerKind::kPythia;
  Scenario pythia_scn(cfg);
  EXPECT_NE(pythia_scn.pythia(), nullptr);
  EXPECT_EQ(pythia_scn.hedera(), nullptr);
  EXPECT_EQ(pythia_scn.netflow(), nullptr);

  cfg.scheduler = SchedulerKind::kHedera;
  cfg.enable_netflow = true;
  Scenario hedera_scn(cfg);
  EXPECT_EQ(hedera_scn.pythia(), nullptr);
  EXPECT_NE(hedera_scn.hedera(), nullptr);
  EXPECT_NE(hedera_scn.netflow(), nullptr);
}

TEST(Scenario, BackgroundMatchesOversubscription) {
  ScenarioConfig cfg;
  cfg.background.oversubscription = 10.0;
  cfg.background.path_intensity = {1.0, 0.1};
  Scenario scenario(cfg);
  // 2 paths x 2 directions installed.
  EXPECT_EQ(scenario.background().streams.size(), 4u);
  // No background at ratio 1.
  ScenarioConfig clean;
  Scenario clean_scn(clean);
  EXPECT_TRUE(clean_scn.background().streams.empty());
}

TEST(Scenario, StaticOracleInstallsCrossRackRules) {
  ScenarioConfig cfg;
  cfg.scheduler = SchedulerKind::kStaticOracle;
  cfg.background.oversubscription = 10.0;
  Scenario scenario(cfg);
  // 5 servers per rack, both directions: 2 * 5 * 5 = 50 pairs.
  EXPECT_EQ(scenario.controller().rules_installed(), 50u);
}

TEST(Scenario, DeterministicAcrossRebuilds) {
  auto once = [] {
    ScenarioConfig cfg;
    cfg.seed = 77;
    cfg.scheduler = SchedulerKind::kPythia;
    cfg.background.oversubscription = 10.0;
    Scenario scenario(cfg);
    return scenario.run_job(tiny_job()).completion_time().ns();
  };
  EXPECT_EQ(once(), once());
}

TEST(Scenario, SequentialJobsShareTheCluster) {
  ScenarioConfig cfg;
  cfg.scheduler = SchedulerKind::kPythia;
  Scenario scenario(cfg);
  const auto first = scenario.run_job(tiny_job());
  const auto second = scenario.run_job(tiny_job());
  EXPECT_GT(second.submitted, first.completed - util::Duration::seconds_i(1));
  EXPECT_EQ(scenario.engine().jobs_completed(), 2u);
}

TEST(Scenario, LeafSpineTopologyRuns) {
  ScenarioConfig cfg;
  cfg.topology_kind = TopologyKind::kLeafSpine;
  cfg.leaf_spine.spines = 4;
  cfg.controller.k_paths = 4;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = 5.0;
  Scenario scenario(cfg);
  const auto result = scenario.run_job(tiny_job());
  EXPECT_GT(result.completion_time().seconds(), 0.0);
}

TEST(Scenario, WeightedFlowsArmRuns) {
  ScenarioConfig cfg;
  cfg.seed = 6;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.pythia.weighted_flows = true;
  cfg.background.oversubscription = 10.0;
  Scenario scenario(cfg);
  hadoop::JobSpec job =
      workloads::sort_job(Bytes{8'000'000'000LL}, 6, 1.2);
  const auto result = scenario.run_job(job);
  EXPECT_GT(result.completion_time().seconds(), 0.0);
  // ECMP at the same seed must not be faster than the weighted arm here.
  cfg.scheduler = SchedulerKind::kEcmp;
  Scenario baseline(cfg);
  EXPECT_LE(result.completion_time().seconds(),
            baseline.run_job(job).completion_time().seconds() * 1.02);
}

TEST(Scenario, DfsWriteBackThroughConfig) {
  ScenarioConfig cfg;
  cfg.seed = 6;
  cfg.scheduler = SchedulerKind::kPythia;
  Scenario scenario(cfg);
  hadoop::JobSpec job = tiny_job();
  job.dfs_replication = 3;
  const auto result = scenario.run_job(job);
  // The fabric moved more than the shuffle: output replicas crossed it too.
  EXPECT_GT(scenario.fabric().bytes_delivered(),
            result.remote_shuffle_bytes());
}

TEST(Sweep, PaperPointsAndRows) {
  const auto points = paper_oversubscription_points();
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points.front().label, "none");
  EXPECT_DOUBLE_EQ(points.back().ratio, 20.0);

  SweepConfig sweep;
  sweep.seeds = {1};
  const auto result = run_oversubscription_sweep(
      sweep, tiny_job(), {{"none", 1.0}, {"1:10", 10.0}});
  ASSERT_TRUE(result.failures.empty())
      << describe_failure(result.failures.front());
  const auto& rows = result.rows;
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GT(row.baseline_mean_s, 0.0);
    EXPECT_GT(row.treatment_mean_s, 0.0);
  }
  // Speedup accessor consistency.
  EXPECT_NEAR(rows[0].speedup(),
              rows[0].baseline_mean_s / rows[0].treatment_mean_s - 1.0,
              1e-12);
  const auto table = speedup_table(rows, "ECMP", "Pythia");
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Sweep, SchedulerLadder) {
  ScenarioConfig base;
  base.background.oversubscription = 10.0;
  const auto rows = run_scheduler_ladder(
      base, tiny_job(),
      {SchedulerKind::kEcmp, SchedulerKind::kPythia}, {1, 2});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].scheduler, "ECMP");
  EXPECT_EQ(rows[1].scheduler, "Pythia");
  EXPECT_GT(rows[0].mean_s, 0.0);
}

}  // namespace
}  // namespace pythia::exp

// Integration tests asserting the *shapes* of the paper's headline results
// at reduced scale (full-scale reproductions live in bench/).
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "net/netflow.hpp"
#include "workloads/hibench.hpp"

namespace pythia::exp {
namespace {

using util::Bytes;

hadoop::JobSpec scaled_sort() {
  return workloads::sort_job(Bytes{12'000'000'000LL}, 8);
}

TEST(PaperShapes, PythiaBeatsEcmpUnderOversubscription) {
  SweepConfig sweep;
  sweep.seeds = {1, 2};
  const auto result = run_oversubscription_sweep(
      sweep, scaled_sort(), {{"1:5", 5.0}, {"1:20", 20.0}});
  ASSERT_TRUE(result.failures.empty())
      << describe_failure(result.failures.front());
  const auto& rows = result.rows;
  for (const auto& row : rows) {
    EXPECT_GT(row.speedup(), 0.0) << row.label;
  }
}

TEST(PaperShapes, SpeedupGrowsWithOversubscription) {
  // Fig. 3/4: the maximum speedup is at the highest oversubscription ratio.
  SweepConfig sweep;
  sweep.seeds = {1, 2};
  const auto result = run_oversubscription_sweep(
      sweep, scaled_sort(), {{"none", 1.0}, {"1:5", 5.0}, {"1:20", 20.0}});
  ASSERT_TRUE(result.failures.empty())
      << describe_failure(result.failures.front());
  const auto& rows = result.rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_LT(rows[0].speedup(), rows[2].speedup());
  EXPECT_LT(rows[1].speedup(), rows[2].speedup());
  // Without background there is barely anything to win.
  EXPECT_LT(rows[0].speedup(), 0.15);
}

TEST(PaperShapes, PythiaStaysNearCleanNetworkTime) {
  // Fig. 3's observation: Pythia's completion time barely grows with the
  // ratio (it keeps finding the lightly loaded path).
  SweepConfig sweep;
  sweep.seeds = {1, 2};
  const auto result = run_oversubscription_sweep(
      sweep, scaled_sort(), {{"none", 1.0}, {"1:20", 20.0}});
  ASSERT_TRUE(result.failures.empty())
      << describe_failure(result.failures.front());
  const auto& rows = result.rows;
  const double clean = rows[0].treatment_mean_s;
  const double loaded = rows[1].treatment_mean_s;
  EXPECT_LT(loaded, clean * 1.35);
  // ECMP, in contrast, degrades substantially.
  EXPECT_GT(rows[1].baseline_mean_s, clean * 1.35);
}

TEST(PaperShapes, SchedulerLadderOrdering) {
  // ECMP is worst; Hedera (reactive, load-aware) sits in between; Pythia and
  // the static oracle are best. We assert the coarse ordering only.
  ScenarioConfig base;
  base.background.oversubscription = 10.0;
  const auto rows = run_scheduler_ladder(
      base, scaled_sort(),
      {SchedulerKind::kEcmp, SchedulerKind::kHedera, SchedulerKind::kPythia},
      {1, 2});
  ASSERT_EQ(rows.size(), 3u);
  const double ecmp = rows[0].mean_s;
  const double hedera = rows[1].mean_s;
  const double pythia = rows[2].mean_s;
  EXPECT_LT(pythia, ecmp);
  EXPECT_LT(hedera, ecmp * 1.02);  // at least roughly no worse than ECMP
  EXPECT_LT(pythia, hedera * 1.02);
}

TEST(PaperShapes, PredictionTimelinessAndAccuracy) {
  // Fig. 5 shape: prediction leads the wire by seconds and over-estimates
  // total volume by a one-digit percentage.
  ScenarioConfig cfg;
  cfg.seed = 4;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = 5.0;
  cfg.enable_netflow = true;
  Scenario scenario(cfg);
  scenario.run_job(scaled_sort());

  int leads_measured = 0;
  for (net::NodeId server : scenario.netflow()->observed_sources()) {
    const auto& predicted =
        scenario.pythia()->collector().predicted_curve(server);
    const auto& measured = scenario.netflow()->curve(server);
    if (predicted.empty() || measured.empty()) continue;

    std::vector<net::VolumePoint> pred;
    pred.reserve(predicted.size());
    for (const auto& p : predicted) {
      pred.push_back(net::VolumePoint{p.at, p.cumulative});
    }
    const double half = measured.back().cumulative.as_double() * 0.5;
    const auto t_pred = net::curve_time_to_reach(pred, half);
    const auto t_meas = net::curve_time_to_reach(measured, half);
    ASSERT_NE(t_pred, util::SimTime::max());
    ASSERT_NE(t_meas, util::SimTime::max());
    EXPECT_GT((t_meas - t_pred).seconds(), 1.0) << "server "
                                                << server.value();

    const double over = pred.back().cumulative.as_double() /
                        measured.back().cumulative.as_double();
    EXPECT_GT(over, 1.0);
    EXPECT_LT(over, 1.10);
    ++leads_measured;
  }
  EXPECT_GE(leads_measured, 5);
}

TEST(PaperShapes, ControlOverheadIsModest) {
  // §V-C: the rule-install budget (3-5 ms/flow) is tiny next to the
  // prediction lead; intent traffic is kilobytes, not data-scale.
  ScenarioConfig cfg;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;
  Scenario scenario(cfg);
  const auto result = scenario.run_job(scaled_sort());

  const auto& pythia = *scenario.pythia();
  const double control_bytes =
      pythia.instrumentation().control_bytes_sent().as_double();
  const double data_bytes = result.total_shuffle_bytes().as_double();
  EXPECT_LT(control_bytes / data_bytes, 1e-4);
  EXPECT_GT(scenario.controller().rules_installed(), 0u);
  // Rules are a per-server-pair quantity, not a per-flow quantity.
  EXPECT_LE(scenario.controller().rules_installed(),
            10u * 9u * 2u);
}

}  // namespace
}  // namespace pythia::exp

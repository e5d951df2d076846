#include "experiments/sweep.hpp"

#include <charconv>
#include <cstdio>

#include "experiments/checkpoint.hpp"
#include "experiments/crash_handler.hpp"
#include "experiments/manifest.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace pythia::exp {

std::vector<OversubPoint> paper_oversubscription_points() {
  return {{"none", 1.0}, {"1:2", 2.0}, {"1:5", 5.0}, {"1:10", 10.0},
          {"1:20", 20.0}};
}

double run_completion_seconds(const ScenarioConfig& cfg,
                              const hadoop::JobSpec& job) {
  Scenario scenario(cfg);
  return scenario.run_job(job).completion_time().seconds();
}

namespace {

/// Shortest representation that round-trips the exact double — byte-stable
/// across runs and thread counts, locale-independent.
std::string exact_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

constexpr SchedulerKind kArms[2] = {SchedulerKind::kEcmp,
                                    SchedulerKind::kPythia};

/// The (point, arm, seed) cell of run `i`. Canonical run order: point-major,
/// then arm (ECMP first), then seed. Every run derives its whole universe
/// from its cell, so results are independent of worker scheduling.
struct Cell {
  const OversubPoint& point;
  SchedulerKind arm;
  std::uint64_t seed;
};

Cell cell_of(const SweepConfig& sweep, const std::vector<OversubPoint>& points,
             std::size_t i) {
  const std::size_t seeds = sweep.seeds.size();
  return Cell{points[i / (2 * seeds)], kArms[(i / seeds) % 2],
              sweep.seeds[i % seeds]};
}

ScenarioConfig cell_config(const SweepConfig& sweep,
                           const std::vector<OversubPoint>& points,
                           std::size_t i) {
  const Cell cell = cell_of(sweep, points, i);
  ScenarioConfig cfg = sweep.base;
  cfg.seed = cell.seed;
  cfg.background.oversubscription = cell.point.ratio;
  cfg.scheduler = cell.arm;
  return cfg;
}

}  // namespace

std::string describe_failure(const SweepRunFailure& f) {
  return "run " + std::to_string(f.run_index) + " failed: point " +
         f.point_label + " arm " + f.arm + " seed " + std::to_string(f.seed) +
         " — " + run_failure_name(f.kind) + " after " +
         std::to_string(f.attempts) + " attempt(s): " + f.message;
}

std::uint64_t sweep_fingerprint(const SweepConfig& sweep,
                                const hadoop::JobSpec& job,
                                const std::vector<OversubPoint>& points) {
  // Mix the per-cell scenario fingerprints: every (point, arm, seed) cell's
  // full universe contributes, so any knob that could change any run's
  // result changes the fingerprint.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(points.size());
  mix(sweep.seeds.size());
  const std::size_t total_runs = points.size() * 2 * sweep.seeds.size();
  for (std::size_t i = 0; i < total_runs; ++i) {
    mix(scenario_fingerprint(cell_config(sweep, points, i), job));
  }
  return h;
}

SweepResult run_oversubscription_sweep(const SweepConfig& sweep,
                                       const hadoop::JobSpec& job,
                                       const std::vector<OversubPoint>& points,
                                       RunnerCounters* counters) {
  const std::size_t seeds = sweep.seeds.size();
  const std::size_t runs_per_point = 2 * seeds;
  const std::size_t total_runs = points.size() * runs_per_point;

  SweepResult result;

  SweepManifest manifest;
  std::vector<bool> cached(total_runs, false);
  if (!sweep.manifest_path.empty()) {
    result.resumed_runs = manifest.open(
        sweep.manifest_path, sweep_fingerprint(sweep, job, points),
        total_runs);
    for (std::size_t i = 0; i < total_runs; ++i) cached[i] = manifest.has_ok(i);
  }

  RunGuard guard = sweep.guard;
  if (!guard.describe) {
    guard.describe = [&](std::size_t i) {
      const Cell cell = cell_of(sweep, points, i);
      return "point " + cell.point.label + " arm " + scheduler_name(cell.arm) +
             " seed " + std::to_string(cell.seed);
    };
  }

  install_crash_handler();
  ParallelRunner runner(sweep.threads);
  const auto outcomes = runner.map<RunOutcome>(total_runs, [&](std::size_t i) {
    if (cached[i]) {
      RunOutcome served;
      served.value = manifest.value(i);  // bit-exact resume
      return served;
    }
    RunOutcome out = run_guarded(i, guard, [&](const RunContext& ctx) {
      Scenario scenario(cell_config(sweep, points, i));
      ctx.bind(scenario.simulation());
      return scenario.run_job(job).completion_time().seconds();
    });
    // Record from the worker as soon as the attempts end, so a crash of the
    // process later in the sweep keeps this run.
    if (manifest.is_open()) {
      if (out.ok()) {
        manifest.record_ok(i, out.value);
      } else {
        manifest.record_failure(i, run_failure_name(out.failure),
                                static_cast<std::uint32_t>(out.attempts));
      }
    }
    return out;
  });
  if (counters != nullptr) *counters = runner.counters();

  // Typed failures in canonical index order.
  for (std::size_t i = 0; i < total_runs; ++i) {
    const RunOutcome& out = outcomes[i];
    if (out.ok()) continue;
    const Cell cell = cell_of(sweep, points, i);
    result.failures.push_back(SweepRunFailure{
        i, cell.point.label, scheduler_name(cell.arm), cell.seed, out.failure,
        out.attempts, out.message});
  }

  // Aggregate rows over surviving runs, per point in seed order.
  result.rows.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    util::RunningStats base_stats;
    util::RunningStats treat_stats;
    for (std::size_t s = 0; s < seeds; ++s) {
      const RunOutcome& base = outcomes[p * runs_per_point + s];
      const RunOutcome& treat = outcomes[p * runs_per_point + seeds + s];
      if (base.ok()) base_stats.add(base.value);
      if (treat.ok()) treat_stats.add(treat.value);
    }
    SpeedupRow row;
    row.label = points[p].label;
    row.baseline_mean_s = base_stats.mean();
    row.baseline_stddev_s = base_stats.stddev();
    row.treatment_mean_s = treat_stats.mean();
    row.treatment_stddev_s = treat_stats.stddev();
    result.rows.push_back(row);
  }
  return result;
}

util::Table speedup_table(const std::vector<SpeedupRow>& rows,
                          const std::string& baseline_name,
                          const std::string& treatment_name) {
  util::Table table({"oversubscription", baseline_name + " (s)",
                     treatment_name + " (s)", "speedup"});
  for (const auto& row : rows) {
    table.add_row({row.label, util::Table::num(row.baseline_mean_s, 1),
                   util::Table::num(row.treatment_mean_s, 1),
                   util::Table::percent(row.speedup())});
  }
  return table;
}

std::string speedup_rows_csv(const std::vector<SpeedupRow>& rows) {
  std::string out =
      "oversubscription,baseline_mean_s,baseline_stddev_s,"
      "treatment_mean_s,treatment_stddev_s,speedup\n";
  for (const auto& row : rows) {
    out += util::CsvWriter::escape(row.label);
    out += ',';
    out += exact_double(row.baseline_mean_s);
    out += ',';
    out += exact_double(row.baseline_stddev_s);
    out += ',';
    out += exact_double(row.treatment_mean_s);
    out += ',';
    out += exact_double(row.treatment_stddev_s);
    out += ',';
    out += exact_double(row.speedup());
    out += '\n';
  }
  return out;
}

std::string runner_counters_summary(const RunnerCounters& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%llu runs in %.2f s wall on %zu thread%s (worker "
                "utilization %.0f%%)",
                static_cast<unsigned long long>(c.runs_completed),
                c.wall_seconds, c.threads, c.threads == 1 ? "" : "s",
                c.utilization() * 100.0);
  return buf;
}

std::vector<LadderRow> run_scheduler_ladder(
    const ScenarioConfig& base, const hadoop::JobSpec& job,
    const std::vector<SchedulerKind>& schedulers,
    const std::vector<std::uint64_t>& seeds, std::size_t threads,
    RunnerCounters* counters) {
  ParallelRunner runner(threads);
  const std::size_t per_sched = seeds.size();
  const auto completions = runner.map<double>(
      schedulers.size() * per_sched, [&](std::size_t i) {
        ScenarioConfig cfg = base;
        cfg.seed = seeds[i % per_sched];
        cfg.scheduler = schedulers[i / per_sched];
        return run_completion_seconds(cfg, job);
      });

  std::vector<LadderRow> rows;
  rows.reserve(schedulers.size());
  for (std::size_t k = 0; k < schedulers.size(); ++k) {
    util::RunningStats stats;
    for (std::size_t s = 0; s < per_sched; ++s) {
      stats.add(completions[k * per_sched + s]);
    }
    rows.push_back(LadderRow{scheduler_name(schedulers[k]), stats.mean(),
                             stats.stddev()});
  }
  if (counters != nullptr) *counters = runner.counters();
  return rows;
}

}  // namespace pythia::exp

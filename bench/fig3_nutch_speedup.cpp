// Figure 3 — "Nutch job completion times using Pythia resp. ECMP and
// relative speedup".
//
// Paper setup: HiBench Nutch indexing (5M pages, ~8 GB input) on the 2-rack
// 10-server testbed, network over-subscription emulated with UDP background
// traffic at ratios {none, 1:2, 1:5, 1:10, 1:20}. Paper result: Pythia beats
// ECMP at every ratio, with the maximum speedup (46%) at 1:20, and Pythia's
// completion time stays close to the non-oversubscribed time because the
// allocator keeps finding the lightly loaded path.
#include <cstdio>

#include "bench_cli.hpp"
#include "experiments/sweep.hpp"
#include "workloads/hibench.hpp"

int main(int argc, char** argv) {
  using namespace pythia;
  const auto args = benchcli::parse(argc, argv);

  std::printf("=== Figure 3: Nutch indexing, Pythia vs ECMP ===\n");
  std::printf("(5M pages / 8 GB input, 2 racks x 5 servers, 2 inter-rack "
              "paths, asymmetric UDP background)\n\n");

  exp::SweepConfig sweep;
  sweep.seeds = {1, 2, 3};
  sweep.threads = args.threads;
  const auto job = workloads::paper_nutch();
  exp::RunnerCounters counters;
  const auto result = exp::run_oversubscription_sweep(
      sweep, job, exp::paper_oversubscription_points(), &counters);
  if (!result.failures.empty()) {
    for (const auto& f : result.failures) {
      std::fprintf(stderr, "%s\n", exp::describe_failure(f).c_str());
    }
    return 1;
  }
  const auto& rows = result.rows;

  auto table = exp::speedup_table(rows, "ECMP", "Pythia");
  std::printf("%s", table.to_string().c_str());
  std::printf("[sweep] %s\n", exp::runner_counters_summary(counters).c_str());

  double max_speedup = 0.0;
  for (const auto& row : rows) max_speedup = std::max(max_speedup, row.speedup());
  const double clean = rows.front().treatment_mean_s;
  const double worst_pythia = rows.back().treatment_mean_s;
  std::printf(
      "\npaper: speedup 3%%..46%%, max at 1:20; Pythia time ~flat across "
      "ratios.\nmeasured: max speedup %.0f%%; Pythia at 1:20 within %.0f%% "
      "of its clean-network time.\n",
      max_speedup * 100.0, (worst_pythia / clean - 1.0) * 100.0);
  return 0;
}

// Figure 4 — "Sort job completion times using Pythia resp. ECMP and
// relative speedup".
//
// Paper setup: HiBench Sort with 240 GB input on the same testbed and
// over-subscription sweep as Fig. 3. Paper result: Pythia wins at every
// ratio with improvement up to 43%, but — unlike Nutch — sort's completion
// time under Pythia does grow with the ratio (fewer, larger flows leave
// less packing opportunity).
#include <cstdio>

#include "bench_cli.hpp"
#include "experiments/sweep.hpp"
#include "workloads/hibench.hpp"

int main(int argc, char** argv) {
  using namespace pythia;
  const auto args = benchcli::parse(argc, argv);

  std::printf("=== Figure 4: Sort (240 GB), Pythia vs ECMP ===\n\n");

  exp::SweepConfig sweep;
  sweep.seeds = {1, 2, 3};
  sweep.threads = args.threads;
  const auto job = workloads::paper_sort();
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
  for (const auto& row : rows) {
    max_speedup = std::max(max_speedup, row.speedup());
  }
  std::printf(
      "\npaper: Pythia outperforms ECMP at every ratio, up to 43%%; sort's "
      "Pythia times grow with the ratio\n(unlike Nutch).\nmeasured: max "
      "speedup %.0f%%; Pythia 1:20 vs clean-network ratio %.2fx (ECMP "
      "%.2fx).\n",
      max_speedup * 100.0,
      rows.back().treatment_mean_s / rows.front().treatment_mean_s,
      rows.back().baseline_mean_s / rows.front().baseline_mean_s);
  return 0;
}

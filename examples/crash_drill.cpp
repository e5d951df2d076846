// Crash-drill harness for the CI checkpoint job (and for poking the
// crash-tolerant sweep by hand).
//
// Runs a small fixed oversubscription sweep and prints its deterministic CSV
// to stdout; failures go to stderr. CI runs it clean, then with
// PYTHIA_INJECT_RUN_FAULT / PYTHIA_INJECT_RUN_TIMEOUT set, and diffs the
// outputs — injected first-attempt crashes and timeouts must
// recover (retry on the same seed lane) to byte-identical results. With
// --manifest it also exercises sweep resume across process launches.
//
// Exit status: 0 when every run completed, 3 when any run exhausted its
// attempt budget (its typed failure is on stderr).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "experiments/crash_handler.hpp"
#include "experiments/sweep.hpp"
#include "workloads/hibench.hpp"

int main(int argc, char** argv) {
  using namespace pythia;
  exp::install_crash_handler();

  exp::SweepConfig cfg;
  cfg.seeds = {1, 2};
  cfg.threads = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      cfg.manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-attempts") == 0 && i + 1 < argc) {
      cfg.guard.max_attempts =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      cfg.guard.timeout_seconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: crash_drill [--manifest PATH] [--max-attempts N] "
                   "[--timeout SECONDS]\n");
      return 1;
    }
  }

  // Big enough that every run crosses the 1024-event cooperative abort poll
  // (injected timeouts are honored there), small enough to stay fast.
  const auto job =
      workloads::sort_job(util::Bytes{8'000'000'000LL}, 32);
  const std::vector<exp::OversubPoint> points = {{"none", 1.0},
                                                 {"1:10", 10.0}};
  const auto result = exp::run_oversubscription_sweep(cfg, job, points);

  if (result.resumed_runs > 0) {
    std::fprintf(stderr, "resumed %zu run(s) from manifest\n",
                 result.resumed_runs);
  }
  for (const auto& f : result.failures) {
    std::fprintf(stderr, "%s\n", exp::describe_failure(f).c_str());
  }

  // The deterministic artifact: byte-identical for any thread count and
  // across injected-crash/resume recovery.
  std::fputs(exp::speedup_rows_csv(result.rows).c_str(), stdout);
  return result.failures.empty() ? 0 : 3;
}

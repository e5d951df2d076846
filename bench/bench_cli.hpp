// Tiny shared flag parser for the bench binaries.
//
//   --threads N       worker threads for sweep fan-out (0 = all hardware cores)
#pragma once

#include <cstdlib>
#include <cstring>

#include "experiments/crash_handler.hpp"

namespace pythia::benchcli {

struct Args {
  std::size_t threads = 0;  // 0 = one worker per hardware core
};

inline Args parse(int argc, char** argv) {
  // Long sweeps should die loudly: on a crash/SIGTERM the handler flushes
  // logs and prints the active run's (point, arm, seed) and sim position.
  exp::install_crash_handler();
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  return args;
}

}  // namespace pythia::benchcli

// Fatal-signal crash reporter for bench/sweep processes.
//
// A simulation crash (SIGSEGV, SIGABRT, ...) in a multi-hour sweep is
// useless unless the process says *where* it was: which run (point, arm,
// seed), at what sim time, after how many events. The handler prints
// exactly that — from pre-registered per-thread stamps, using only
// write(2) — then flushes the log sink and re-raises the signal so the
// exit status stays honest.
//
// Stamps are plain atomics updated from the run loop (run_guarded stamps
// the run label at attempt start; the cooperative abort-check poll stamps
// sim progress every kAbortCheckStride events), so the handler never touches
// simulation state. Installation is idempotent; both the bench CLI and the
// oversubscription sweep install it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pythia::exp {

/// Installs handlers for fatal signals (SEGV, ABRT, BUS, FPE, ILL, TERM).
/// Idempotent — the second and later calls are no-ops.
void install_crash_handler();

/// Stamps the calling thread's "currently executing run" context shown by
/// the crash report. `label` is truncated to a fixed buffer (async-signal
/// safety: the handler only reads plain bytes).
void crash_stamp_run(std::size_t run_index, const std::string& label);

/// Stamps the calling thread's simulation progress (sim time + events
/// fired). Called from the abort-check poll, i.e. every few thousand
/// events — cheap, lock-free.
void crash_stamp_progress(std::int64_t sim_time_ns,
                          std::uint64_t events_fired);

/// Clears the calling thread's stamp (run finished or abandoned).
void crash_stamp_clear();

}  // namespace pythia::exp

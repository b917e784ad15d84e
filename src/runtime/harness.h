// Stress/measurement harness for the native instrumented locks.
#pragma once

#include <cstdint>

#include "cost/model.h"
#include "runtime/locks.h"

namespace tpa::runtime {

struct StressResult {
  std::uint64_t total_ops = 0;
  /// The wall-clock watchdog fired and the run was cut short: total_ops is
  /// the work actually performed, not threads * ops_per_thread. A stuck
  /// lock (a livelocked acquire, a lost handoff) surfaces as deadline_hit
  /// with exclusion still checked over the completed passages, instead of
  /// hanging the harness forever.
  bool deadline_hit = false;
  double seconds = 0;
  double ops_per_sec = 0;
  double fences_per_op = 0;
  double rmws_per_op = 0;
  double barriers_per_op = 0;
  /// Exclusion check: a plain (non-atomic) counter incremented inside the
  /// critical section must equal total_ops at the end.
  bool exclusion_ok = false;
  /// Maximum barriers any single thread spent per passage (average within
  /// that thread) — highlights registration spikes of adaptive locks.
  double max_thread_barriers_per_op = 0;
  /// Aggregate counters of all threads in the shared cross-world cost model
  /// (cost/model.h) — directly comparable with the simulator's per-passage
  /// PassageStats::to_cost_vector().
  cost::CostVector total_cost;
};

/// Runs `threads` threads, each performing `ops_per_thread` lock/unlock
/// passages around a shared plain counter increment. Collects the counted
/// fences/RMWs of the lock/unlock sections only. `time_budget_ms` is a
/// wall-clock watchdog (0 disables it, as does a budget too large for
/// steady_clock to represent): when it expires, threads stop at
/// their next passage boundary and the result reports deadline_hit — the
/// same contract as ExplorerConfig::time_budget_ms, so CI sweeps over
/// experimental locks are bounded even when a lock deadlocks.
StressResult run_stress(RtLock& lock, int threads,
                        std::uint64_t ops_per_thread,
                        std::uint64_t time_budget_ms = 0);

}  // namespace tpa::runtime

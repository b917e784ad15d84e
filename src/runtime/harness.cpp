#include "runtime/harness.h"

#include <chrono>
#include <thread>
#include <vector>

#include "util/deadline.h"

namespace tpa::runtime {

StressResult run_stress(RtLock& lock, int threads,
                        std::uint64_t ops_per_thread,
                        std::uint64_t time_budget_ms) {
  std::uint64_t shared_counter = 0;  // deliberately non-atomic: the lock
                                     // must make increments exclusive
  std::vector<OpCounters> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> ops_done(static_cast<std::size_t>(threads), 0);
  std::atomic<int> start_gate{0};
  // Watchdog: checked at passage boundaries (every few ops, to keep the
  // clock off the hot path). A thread stuck *inside* lock() cannot be
  // interrupted; the watchdog bounds livelock and starvation, which is
  // what experimental locks actually exhibit.
  const auto deadline = deadline_after(time_budget_ms);
  const bool has_deadline = deadline != kNoDeadline;
  std::atomic<bool> stop{false};

  auto worker = [&](int tid) {
    start_gate.fetch_add(1, std::memory_order_acq_rel);
    while (start_gate.load(std::memory_order_acquire) < threads) {
    }
    const OpCounters before = thread_counters();
    std::uint64_t done = 0;
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
      if (has_deadline && (i & 0xff) == 0 &&
          (stop.load(std::memory_order_relaxed) ||
           std::chrono::steady_clock::now() >= deadline)) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      lock.lock(tid);
      ++shared_counter;
      lock.unlock(tid);
      ++done;
    }
    ops_done[static_cast<std::size_t>(tid)] = done;
    per_thread[static_cast<std::size_t>(tid)] =
        thread_counters() - before;
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  StressResult r;
  r.deadline_hit = stop.load(std::memory_order_relaxed);
  for (const std::uint64_t d : ops_done) r.total_ops += d;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.ops_per_sec = r.seconds > 0 ? static_cast<double>(r.total_ops) / r.seconds
                                : 0;
  OpCounters total;
  for (int t = 0; t < threads; ++t) {
    const auto& c = per_thread[static_cast<std::size_t>(t)];
    total += c;
    const std::uint64_t done = ops_done[static_cast<std::size_t>(t)];
    if (done == 0) continue;
    const double per_op =
        static_cast<double>(c.barriers()) / static_cast<double>(done);
    r.max_thread_barriers_per_op =
        std::max(r.max_thread_barriers_per_op, per_op);
  }
  const auto ops = static_cast<double>(r.total_ops);
  if (r.total_ops > 0) {
    r.fences_per_op = static_cast<double>(total.fences) / ops;
    r.rmws_per_op = static_cast<double>(total.rmws) / ops;
    r.barriers_per_op = static_cast<double>(total.barriers()) / ops;
  }
  r.total_cost = total.to_cost_vector();
  r.exclusion_ok = shared_counter == r.total_ops;
  return r;
}

}  // namespace tpa::runtime

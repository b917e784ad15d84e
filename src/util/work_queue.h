// A minimal deterministic-partitioning work queue for CPU-bound fan-out.
//
// Work items live in a caller-owned vector; workers claim indices through a
// single atomic counter, so the *partitioning* of items onto threads is
// dynamic (load-balanced) while the item list itself — and therefore the
// result slot each item writes — is fixed up front. Combined with per-item
// result slots this gives parallel runs whose aggregate output is
// independent of thread scheduling, which the parallel schedule explorer
// (tso/explorer.cpp) relies on for reproducibility.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpa {

/// Claims indices 0..size-1 exactly once across any number of threads.
class WorkQueue {
 public:
  explicit WorkQueue(std::size_t size) : size_(size) {}

  /// Claims the next unclaimed index. Returns false when none remain.
  bool next(std::size_t* out) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= size_) return false;
    *out = i;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  std::size_t size_;
  std::atomic<std::size_t> next_{0};
};

/// Runs fn(index) for every index in [0, count) on `threads` threads (the
/// calling thread counts as one). fn must be safe to invoke concurrently
/// for distinct indices. Results travel through per-item slots (the
/// explorer's verdicts do); an exception thrown by fn is an error, not a
/// result: once one is thrown no worker claims another item, every thread
/// is joined, and the first exception is rethrown on the calling thread.
inline void parallel_for_index(std::size_t count, int threads,
                               const std::function<void(std::size_t)>& fn) {
  WorkQueue queue(count);
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  auto worker = [&] {
    std::size_t i;
    while (!failed.load(std::memory_order_relaxed) && queue.next(&i)) {
      try {
        fn(i);
      } catch (...) {
        const std::scoped_lock lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (threads <= 1 || count <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    const int extra = threads - 1;
    pool.reserve(static_cast<std::size_t>(extra));
    for (int t = 0; t < extra; ++t) pool.emplace_back(worker);
    worker();
    for (auto& th : pool) th.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tpa

// Allocation-count guard for the fuzz, shrink and explorer hot paths (ctest
// label `perf-smoke`). A fuzz pass and a ddmin shrink each run on one
// simulator restored in place to its root state, so a run or an oracle
// replay costs a few allocations (the builder's lock object and the
// coroutine frames), not a simulator's worth. The explorer restores each
// sibling branch in place and rebuilds only the coroutines that moved, so a
// step costs well under one allocation. The count is deterministic, so this
// is a gate on work done, not on a timer.
//
// The binary replaces the global operator new to count allocations, which is
// why it is a plain main() with no sanitized twin (ASan owns operator new).
//   ./alloc_count            # prints the counts, exits 1 over a bound
#include <cstdio>
#include <cstdlib>
#include <new>

#include "runtime/scenario.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"

namespace {

std::size_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// Bounds, per fuzz run and per shrink oracle call. A simulator built afresh
// for every run costs 88.5 allocations per bakery-tso-3p run and 70 per
// bakery-none-3p replay; the recycled paths take 15.1 and 13.2.
constexpr double kMaxAllocsPerRun = 20.0;
constexpr double kMaxAllocsPerReplay = 18.0;
// Per executed event of a bakery-tso-3p p2 s80 dedup exploration. Rebuilding
// every coroutine on every restore costs 0.725; keeping the ones that did not
// move, respawning from spare frames and feeding op results lazily, 0.421.
// Declared spin locations (Proc::at) then cut the tree from 394,126 to
// 297,883 steps but its restores only by 2%, so the ratio reads 0.53.
constexpr double kMaxAllocsPerStep = 0.55;
// That scope's exact counts: the allocation ratio is only comparable while
// the explored tree is the same.
constexpr std::uint64_t kScopeSchedules = 169;
constexpr std::uint64_t kScopeTruncated = 7132;
constexpr std::uint64_t kScopeSteps = 297883;
constexpr std::uint64_t kScopeSnapshots = 14169;
constexpr std::uint64_t kScopeRestores = 22111;

bool check(const char* what, double per, double bound) {
  const bool ok = per <= bound;
  std::printf("%-48s %7.2f allocations (bound %g) %s\n", what, per, bound,
              ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  using tpa::runtime::find_scenario;
  bool ok = true;

  const auto* safe = find_scenario("bakery-tso-3p");
  tpa::tso::FuzzConfig cfg;
  cfg.seed = 1;
  cfg.runs = 2'000;
  std::size_t before = g_allocs;
  const tpa::tso::FuzzResult pass = safe->fuzz(cfg);
  if (pass.verdict.found() || pass.schedules != cfg.runs) {
    std::printf("bakery-tso-3p fuzz pass: unexpected result %s\n",
                pass.to_json().c_str());
    return 1;
  }
  ok &= check("fuzz bakery-tso-3p, per run",
              static_cast<double>(g_allocs - before) /
                  static_cast<double>(pass.schedules),
              kMaxAllocsPerRun);

  const auto* broken = find_scenario("bakery-none-3p");
  cfg.shrink = false;
  const tpa::tso::FuzzResult hit = broken->fuzz(cfg);
  if (!hit.verdict.found()) {
    std::printf("bakery-none-3p fuzz pass found no violation\n");
    return 1;
  }
  // The configuration fuzz() shrinks under when no hook is set: the bare
  // core plus the exclusion checker.
  tpa::tso::SimConfig oracle = broken->sim;
  oracle.track_awareness = false;
  oracle.record_trace = false;
  oracle.track_costs = false;
  before = g_allocs;
  const tpa::tso::ShrinkOutcome shrunk = tpa::tso::shrink_witness(
      broken->n_procs, oracle, broken->build, hit.verdict.raw_witness);
  ok &= check("shrink_witness bakery-none-3p, per replay",
              static_cast<double>(g_allocs - before) /
                  static_cast<double>(shrunk.replays),
              kMaxAllocsPerReplay);

  tpa::tso::ExplorerConfig ecfg;
  ecfg.preemptions = 2;
  ecfg.max_steps = 80;
  ecfg.dedup = tpa::tso::DedupMode::kState;
  before = g_allocs;
  const tpa::tso::ExplorerResult proof = safe->explore(ecfg);
  const std::size_t explore_allocs = g_allocs - before;
  std::printf("explore bakery-tso-3p p2 s80: %llu schedules, %llu truncated, "
              "%llu steps, %llu snapshots, %llu restores\n",
              static_cast<unsigned long long>(proof.schedules),
              static_cast<unsigned long long>(proof.truncated),
              static_cast<unsigned long long>(proof.steps),
              static_cast<unsigned long long>(proof.snapshots),
              static_cast<unsigned long long>(proof.restores));
  if (proof.verdict.found() || !proof.exhausted ||
      proof.schedules != kScopeSchedules || proof.truncated != kScopeTruncated ||
      proof.steps != kScopeSteps || proof.snapshots != kScopeSnapshots ||
      proof.restores != kScopeRestores) {
    std::printf("explore bakery-tso-3p p2 s80: the scope's counts changed\n");
    return 1;
  }
  ok &= check("explore bakery-tso-3p p2 s80 dedup, per step",
              static_cast<double>(explore_allocs) /
                  static_cast<double>(proof.steps),
              kMaxAllocsPerStep);
  return ok ? 0 : 1;
}

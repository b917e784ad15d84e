// Allocation-count guard for the fuzz and shrink hot paths (ctest label
// `perf-smoke`). A fuzz pass and a ddmin shrink each run on one simulator
// restored in place to its root state, so a run or an oracle replay costs a
// few allocations (the builder's lock object and the coroutine frames), not
// a simulator's worth. The count is deterministic, so this is a gate on
// work done, not on a timer.
//
// The binary replaces the global operator new to count allocations, which is
// why it is a plain main() with no sanitized twin (ASan owns operator new).
//   ./alloc_count            # prints the counts, exits 1 over a bound
#include <cstdio>
#include <cstdlib>
#include <new>

#include "runtime/scenario.h"
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

bool check(const char* what, double per, double bound) {
  const bool ok = per <= bound;
  std::printf("%-48s %7.2f allocations (bound %.0f) %s\n", what, per, bound,
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
  return ok ? 0 : 1;
}

// Parallel schedule exploration: the frontier partitioning must explore
// exactly the sequential DFS' schedule space — identical `schedules` and
// `truncated` counts for any worker count — report violations
// deterministically (first-in-frontier-order wins, so the raw witness is
// the sequential run's at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scenario.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/schedule.h"
#include "tso/sim.h"
#include "util/check.h"
#include "util/work_queue.h"

namespace tpa {
namespace {

using runtime::find_scenario;
using tso::ExplorerConfig;
using tso::ExplorerResult;
using tso::explore;

struct Case {
  const char* scenario;
  int preemptions;
};

// An exception from one work item stops the others from claiming more,
// every thread is joined, and the caller gets the exception — also when it
// was thrown on a pool thread rather than the calling one.
TEST(ExplorerParallel, WorkQueueHandsAnItemsExceptionToTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for_index(
                     200, threads,
                     [&](std::size_t i) {
                       ++ran;
                       const bool pool_thread =
                           std::this_thread::get_id() != caller;
                       if (threads == 1 ? i == 3 : pool_thread)
                         throw std::runtime_error("item failed");
                       std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     }),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_LT(ran.load(), 200) << threads << " threads";
  }
}

TEST(ExplorerParallel, CountsMatchSequentialOnSafeScenarios) {
  const Case cases[] = {
      {"bakery-tso-2p", 2},
      {"mcs-2p", 2},
      {"bakery-tso-2p", 1},
  };
  for (const Case& c : cases) {
    const auto* s = find_scenario(c.scenario);
    ASSERT_NE(s, nullptr);
    ExplorerConfig cfg;
    cfg.preemptions = c.preemptions;
    const ExplorerResult seq = explore(s->n_procs, s->sim, s->build, cfg);
    ASSERT_FALSE(seq.verdict.found()) << seq.verdict.message;
    ASSERT_TRUE(seq.exhausted);
    for (int threads : {1, 2, 4}) {
      ExplorerConfig pcfg = cfg;
      pcfg.threads = threads;
      const ExplorerResult par =
          explore(s->n_procs, s->sim, s->build, pcfg);
      EXPECT_EQ(par.verdict.found(), seq.verdict.found())
          << c.scenario << " threads=" << threads;
      EXPECT_EQ(par.schedules, seq.schedules)
          << c.scenario << " threads=" << threads
          << ": the frontier partition must be exact";
      EXPECT_EQ(par.truncated, seq.truncated)
          << c.scenario << " threads=" << threads;
      EXPECT_TRUE(par.exhausted) << c.scenario << " threads=" << threads;
    }
  }
}

TEST(ExplorerParallel, ThreeProcessCountsMatchSequential) {
  const auto* s = find_scenario("bakery-none-3p");
  ASSERT_NE(s, nullptr);
  // Use the *safe* TSO bakery at 3 procs for count parity.
  const auto build = runtime::bakery_scenario(3, algos::BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  const ExplorerResult seq = explore(3, {}, build, cfg);
  ASSERT_FALSE(seq.verdict.found()) << seq.verdict.message;
  for (int threads : {2, 4}) {
    ExplorerConfig pcfg = cfg;
    pcfg.threads = threads;
    const ExplorerResult par = explore(3, {}, build, pcfg);
    EXPECT_EQ(par.schedules, seq.schedules) << "threads=" << threads;
    EXPECT_EQ(par.truncated, seq.truncated) << "threads=" << threads;
    EXPECT_TRUE(par.exhausted);
  }
}

TEST(ExplorerParallel, ViolationIsFoundAndDeterministicAcrossThreadCounts) {
  const auto* s = find_scenario("bakery-none-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  std::vector<tso::Directive> first_witness;
  for (int threads : {1, 2, 4}) {
    ExplorerConfig pcfg = cfg;
    pcfg.threads = threads;
    const ExplorerResult r = explore(s->n_procs, s->sim, s->build, pcfg);
    ASSERT_TRUE(r.verdict.found()) << "threads=" << threads;
    EXPECT_NE(r.verdict.message.find("mutual exclusion violated"),
              std::string::npos)
        << r.verdict.message;
    ASSERT_FALSE(r.verdict.witness.empty());
    // Every reported witness replays deterministically.
    EXPECT_THROW(tso::replay(s->n_procs, s->sim, s->build, r.verdict.witness),
                 CheckFailure)
        << "threads=" << threads;
    // And the parallel run is reproducible: same config, same witness.
    const ExplorerResult again =
        explore(s->n_procs, s->sim, s->build, pcfg);
    ASSERT_TRUE(again.verdict.found());
    ASSERT_EQ(again.verdict.witness.size(), r.verdict.witness.size())
        << "threads=" << threads << " must be reproducible";
    for (std::size_t i = 0; i < r.verdict.witness.size(); ++i) {
      EXPECT_EQ(again.verdict.witness[i].kind, r.verdict.witness[i].kind) << i;
      EXPECT_EQ(again.verdict.witness[i].proc, r.verdict.witness[i].proc) << i;
      EXPECT_EQ(again.verdict.witness[i].var, r.verdict.witness[i].var) << i;
    }
  }
}

tso::Task<> read_n(tso::Proc& p, tso::VarId x, int n) {
  for (int i = 0; i < n; ++i) co_await p.read(x);
}

tso::Task<> read_twice_then_fail(tso::Proc& p, tso::VarId x) {
  co_await p.read(x);
  co_await p.read(x);
  TPA_FAIL("p1 read x twice");
}

TEST(ExplorerParallel, RawWitnessIsTheSequentialOneAtEveryThreadCount) {
  // p0 reads x three times; p1 reads it twice and then fails. The first
  // violation in DFS order runs p0 to completion first, but a shallower
  // violating prefix ([p1 p1]) exists: a frontier pre-pass that validated
  // child steps shallowest-first used to report that one at threads > 1.
  const tso::ScenarioBuilder build = [](tso::Simulator& sim) {
    const tso::VarId x = sim.alloc_var(0);
    sim.spawn(0, read_n(sim.proc(0), x, 3));
    sim.spawn(1, read_twice_then_fail(sim.proc(1), x));
  };
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.shrink = false;
  const ExplorerResult seq = explore(2, {}, build, cfg);
  ASSERT_TRUE(seq.verdict.found());
  const std::vector<tso::ProcId> expect = {0, 0, 0, 1, 1};
  ASSERT_EQ(seq.verdict.witness.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(seq.verdict.witness[i].proc, expect[i]) << i;
  for (int threads : {2, 4, 8}) {
    ExplorerConfig pcfg = cfg;
    pcfg.threads = threads;
    const ExplorerResult par = explore(2, {}, build, pcfg);
    ASSERT_TRUE(par.verdict.found()) << "threads=" << threads;
    EXPECT_EQ(par.verdict.message, seq.verdict.message);
    ASSERT_EQ(par.verdict.witness.size(), seq.verdict.witness.size())
        << "threads=" << threads;
    for (std::size_t i = 0; i < seq.verdict.witness.size(); ++i) {
      EXPECT_EQ(par.verdict.witness[i].kind, seq.verdict.witness[i].kind)
          << "threads=" << threads << " dir " << i;
      EXPECT_EQ(par.verdict.witness[i].proc, seq.verdict.witness[i].proc)
          << "threads=" << threads << " dir " << i;
    }
  }
}

TEST(ExplorerParallel, ThreeProcessViolationFoundAtAllThreadCounts) {
  const auto* s = find_scenario("bakery-none-3p");
  ASSERT_NE(s, nullptr);
  for (int threads : {1, 2, 4}) {
    ExplorerConfig cfg;
    cfg.preemptions = 1;
    cfg.threads = threads;
    const ExplorerResult r = explore(s->n_procs, s->sim, s->build, cfg);
    EXPECT_TRUE(r.verdict.found()) << "threads=" << threads;
  }
}

TEST(ExplorerParallel, RespectsScheduleBudget) {
  const auto* s = find_scenario("bakery-tso-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  cfg.threads = 4;
  cfg.max_schedules = 50;
  const ExplorerResult r = explore(s->n_procs, s->sim, s->build, cfg);
  EXPECT_FALSE(r.exhausted);
}

TEST(ExplorerParallel, TimeBudgetStopsParallelExploration) {
  // A scope far too big to finish in the budget: the watchdog must stop the
  // worker pool and report deadline_hit instead of an exhaustive proof.
  const auto* s = find_scenario("bakery-tso-3p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 3;
  cfg.threads = 2;
  cfg.time_budget_ms = 50;
  const ExplorerResult r = explore(s->n_procs, s->sim, s->build, cfg);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_FALSE(r.exhausted)
      << "a deadline-stopped run must not claim an exhaustive proof";
  EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
}

}  // namespace
}  // namespace tpa

// Context-bounded exhaustive exploration: proves small-scope mutual
// exclusion for correctly-fenced locks and automatically finds the
// violating schedule for the fence-free bakery — the "fences are
// unavoidable" premise ([5] in the paper), demonstrated.
#include <gtest/gtest.h>

#include <memory>

#include "algos/bakery.h"
#include "algos/zoo.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/schedule.h"

namespace tpa {
namespace {

using algos::BakeryFencing;
using algos::BakeryLock;
using algos::run_passages;
using tso::ExplorerConfig;
using tso::explore;
using tso::ScenarioBuilder;
using tso::Simulator;
using tso::Task;
using tso::VarId;

ScenarioBuilder bakery_builder(int n, BakeryFencing fencing) {
  return [n, fencing](Simulator& sim) {
    auto lock = std::make_shared<BakeryLock>(sim, n, fencing);
    for (int p = 0; p < n; ++p)
      sim.spawn(p, run_passages(sim.proc(p), lock, 1));
  };
}

TEST(Explorer, FenceFreeBakeryViolationFoundAutomatically) {
  const auto build = bakery_builder(2, BakeryFencing::kNone);
  ExplorerConfig cfg;
  cfg.preemptions = 1;  // a single preemption already suffices
  const auto r = explore(2, {}, build, cfg);
  ASSERT_TRUE(r.verdict.found())
      << "a fence-free read/write lock cannot be correct under TSO";
  EXPECT_NE(r.verdict.message.find("mutual exclusion violated"), std::string::npos)
      << r.verdict.message;
  ASSERT_FALSE(r.verdict.witness.empty());

  // The witness schedule must reproduce the violation deterministically.
  EXPECT_THROW(
      tso::replay(2, {}, build, r.verdict.witness),
      CheckFailure);
}

TEST(Explorer, ProperlyFencedBakeryIsExhaustivelySafe) {
  const auto build = bakery_builder(2, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  const auto r = explore(2, {}, build, cfg);
  EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.schedules, 100u)
      << "two processes with two preemptions yield many schedules";
}

TEST(Explorer, ZooLocksSafeAtSmallScope) {
  for (const char* name : {"tas", "ticket", "mcs", "tournament",
                           "yang-anderson", "adaptive-bakery",
                           "adaptive-splitter"}) {
    const auto& f = algos::lock_factory(name);
    const int n = 2;
    ScenarioBuilder build = [&f, n](Simulator& sim) {
      auto lock = f.make(sim, n);
      for (int p = 0; p < n; ++p)
        sim.spawn(p, run_passages(sim.proc(p), lock, 1));
    };
    ExplorerConfig cfg;
    cfg.preemptions = 2;
    cfg.max_schedules = 200'000;
    const auto r = explore(n, {}, build, cfg);
    EXPECT_FALSE(r.verdict.found()) << name << ": " << r.verdict.message;
  }
}

TEST(Explorer, ThreeProcessesOnePreemption) {
  const auto build = bakery_builder(3, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  const auto r = explore(3, {}, build, cfg);
  EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
  EXPECT_TRUE(r.exhausted);
}

TEST(Explorer, FenceFreeViolationAlsoAtThreeProcesses) {
  const auto build = bakery_builder(3, BakeryFencing::kNone);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  const auto r = explore(3, {}, build, cfg);
  EXPECT_TRUE(r.verdict.found());
}

TEST(Explorer, AdaptiveLocksSafeAtThreeProcs) {
  // The adaptive locks at n=3 with one preemption: the registration races
  // (splitter walk / slot CAS) must never compromise exclusion.
  for (const char* name : {"adaptive-bakery", "adaptive-splitter"}) {
    const auto& f = algos::lock_factory(name);
    const int n = 3;
    ScenarioBuilder build = [&f, n](Simulator& sim) {
      auto lock = f.make(sim, n);
      for (int p = 0; p < n; ++p)
        sim.spawn(p, run_passages(sim.proc(p), lock, 1));
    };
    ExplorerConfig cfg;
    cfg.preemptions = 1;
    cfg.max_schedules = 500'000;
    const auto r = explore(n, {}, build, cfg);
    EXPECT_FALSE(r.verdict.found()) << name << ": " << r.verdict.message;
    EXPECT_TRUE(r.exhausted) << name;
  }
}

TEST(Explorer, RespectsScheduleBudget) {
  const auto build = bakery_builder(2, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  cfg.max_schedules = 5;
  const auto r = explore(2, {}, build, cfg);
  EXPECT_FALSE(r.exhausted);
  EXPECT_LE(r.schedules + r.truncated, 6u);
}

TEST(Explorer, ZeroPreemptionsIsSequential) {
  // With no preemptions each process runs to completion in turn: exactly
  // n! schedule skeletons for n processes (2 here, since drains interleave
  // deterministically).
  const auto build = bakery_builder(2, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 0;
  const auto r = explore(2, {}, build, cfg);
  EXPECT_FALSE(r.verdict.found());
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, 2u);
}

// p0: x = 1; r0 = y; out = r0 + 1.
Task<> store_then_load(tso::Proc& p, VarId x, VarId y, VarId out) {
  co_await p.write(x, 1);
  const tso::Value r0 = co_await p.read(y);
  co_await p.write(out, r0 + 1);
}

// p1: if (x == 1) y = 1.
Task<> forward_flag(tso::Proc& p, VarId x, VarId y) {
  const tso::Value seen = co_await p.read(x);
  if (seen == 1) co_await p.write(y, 1);
}

// A known limit of the explorer, pinned until it is closed. It explores
// only maximal-delay schedules: a buffered write reaches memory in a fence
// or after its program ends, never earlier. Here p1 can set y only after
// seeing p0's x = 1, so the outcome r0 == 1 (out == 2) needs x to commit
// before p0's read of y. That is reachable even under SC, yet no
// maximal-delay schedule reaches it: the explorer reports clean and
// exhausted at every preemption bound, while the seeded fuzzer, which
// commits buffered writes early at random, finds it. Adding early commits
// as explorer moves (ROADMAP, the commit-budget item) flips the explore
// half of this test to a found violation.
TEST(Explorer, MaximalDelayMissesAnEarlyCommitOutcome) {
  VarId out = 0;
  const ScenarioBuilder build = [&out](Simulator& sim) {
    const VarId x = sim.alloc_var(0);
    const VarId y = sim.alloc_var(0);
    out = sim.alloc_var(0);
    sim.spawn(0, store_then_load(sim.proc(0), x, y, out));
    sim.spawn(1, forward_flag(sim.proc(1), x, y));
  };
  const tso::ScheduleHook r0_is_one = [&out](const Simulator& sim) {
    TPA_CHECK(sim.value(out) != 2, "p0 read y == 1 after an early commit");
  };

  const std::uint64_t schedules[] = {2, 6, 8, 8, 8, 8, 8};
  for (int preemptions = 0; preemptions <= 6; ++preemptions) {
    ExplorerConfig cfg;
    cfg.preemptions = preemptions;
    cfg.on_complete = r0_is_one;
    const auto r = explore(2, {}, build, cfg);
    EXPECT_FALSE(r.verdict.found()) << "p" << preemptions;
    EXPECT_TRUE(r.exhausted) << "p" << preemptions;
    EXPECT_EQ(r.schedules, schedules[preemptions]) << "p" << preemptions;
  }

  tso::FuzzConfig fcfg;
  fcfg.seed = 1;
  fcfg.runs = 2'000;
  fcfg.on_complete = r0_is_one;
  const auto f = tso::fuzz(2, {}, build, fcfg);
  ASSERT_TRUE(f.verdict.found()) << "the fuzzer commits early and reaches it";
  EXPECT_EQ(f.violating_run, 926u);
}

}  // namespace
}  // namespace tpa

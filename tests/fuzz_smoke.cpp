// fuzz-smoke: a ~2-second seeded fuzz pass that runs in tier-1 CI (ctest
// label "fuzz-smoke", its own binary so the label applies cleanly). One
// violating scenario proves the find→shrink→replay pipeline end to end; one
// safe scenario guards against false positives. Seeded, so any hit is
// immediately reproducible.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algos/zoo.h"
#include "runtime/harness.h"
#include "runtime/locks.h"
#include "runtime/scenario.h"
#include "tso/fuzz.h"
#include "tso/schedule.h"
#include "tso/visited.h"
#include "util/check.h"
#include "util/rng.h"

namespace tpa {
namespace {

TEST(FuzzSmoke, SeededPassFindsKnownViolationAndStaysQuietOnSafeLock) {
  const auto* broken = runtime::find_scenario("bakery-none-2p");
  ASSERT_NE(broken, nullptr);
  tso::FuzzConfig cfg;
  cfg.seed = 0xC0FFEEULL;
  cfg.runs = ~0ULL;
  cfg.time_budget_ms = 1'500;
  const tso::FuzzResult hit =
      tso::fuzz(broken->n_procs, broken->sim, broken->build, cfg);
  ASSERT_TRUE(hit.verdict.found())
      << "the fence-free bakery must fall within the smoke budget";
  ASSERT_FALSE(hit.verdict.witness.empty());
  EXPECT_TRUE(tso::replay_lenient(broken->n_procs, broken->sim, broken->build,
                                  hit.verdict.witness)
                  .violated)
      << "smoke witness must replay";

  const auto* safe = runtime::find_scenario("bakery-tso-2p");
  ASSERT_NE(safe, nullptr);
  tso::FuzzConfig quiet;
  quiet.seed = 0xC0FFEEULL;
  quiet.runs = ~0ULL;
  quiet.time_budget_ms = 500;
  const tso::FuzzResult ok =
      tso::fuzz(safe->n_procs, safe->sim, safe->build, quiet);
  EXPECT_FALSE(ok.verdict.found()) << ok.verdict.message;
  EXPECT_GT(ok.schedules, 0u);
}

// Crash-injection smoke: the seeded fuzzer with crash_prob > 0 must take
// down the fence-free recoverable lock (buffer-lost crashes leave a stale
// owner announcement), and the same fault load must stay quiet on the
// fenced variant. Runs under both the fuzz-smoke and sanitize labels, so
// the crash/recover machinery gets an ASan+UBSan pass in tier-1 CI.
TEST(FuzzSmoke, CrashInjectionBreaksFenceFreeRecoverableLockOnly) {
  const auto* broken = runtime::find_scenario("recoverable-nofence-2p");
  ASSERT_NE(broken, nullptr);
  tso::FuzzConfig cfg;
  cfg.seed = 0xC0FFEEULL;
  cfg.runs = ~0ULL;
  cfg.time_budget_ms = 1'500;
  cfg.crash_prob = 0.1;
  cfg.max_crashes = 1;
  const tso::FuzzResult hit =
      tso::fuzz(broken->n_procs, broken->sim, broken->build, cfg);
  ASSERT_TRUE(hit.verdict.found())
      << "the fence-free recoverable lock must fall under crash injection";
  ASSERT_FALSE(hit.verdict.witness.empty());
  EXPECT_TRUE(std::any_of(hit.verdict.witness.begin(), hit.verdict.witness.end(),
                          [](const tso::Directive& d) {
                            return d.kind == tso::ActionKind::kCrash;
                          }))
      << "the shrunk witness must retain a crash directive";
  EXPECT_TRUE(tso::replay_lenient(broken->n_procs, broken->sim, broken->build,
                                  hit.verdict.witness)
                  .violated)
      << "crash smoke witness must replay";

  const auto* safe = runtime::find_scenario("recoverable-2p");
  ASSERT_NE(safe, nullptr);
  tso::FuzzConfig quiet = cfg;
  quiet.time_budget_ms = 500;
  const tso::FuzzResult ok =
      tso::fuzz(safe->n_procs, safe->sim, safe->build, quiet);
  EXPECT_FALSE(ok.verdict.found()) << ok.verdict.message;
  EXPECT_GT(ok.schedules, 0u);
}

// Recycled-simulator smoke: a fuzz pass runs on one simulator restored in
// place to its root state before every run, and a shrink runs every oracle
// replay on one simulator the same way. Under the sanitize label this is the
// ASan+UBSan pass over restores that follow a replay which raised mid-step
// (bakery-none-3p), that tear down processes in later recovery incarnations
// (the crash-bearing passes), and that rewind the cost, awareness and trace
// observers a hook keeps attached. The values were recorded with a
// simulator built afresh for every run and every replay.
TEST(FuzzSmoke, RecycledSimulatorPassesMatchGoldenValues) {
  struct Case {
    const char* scenario;
    std::uint64_t seed;
    double crash_prob;
    bool hooked;
    std::uint64_t schedule_digest;
    std::uint64_t schedules;
    std::uint64_t steps;
    std::uint64_t violating_run;
    std::size_t raw_len;
    std::size_t witness_len;
    std::uint64_t shrink_replays;
  };
  const Case cases[] = {
      {"bakery-tso-3p", 1, 0.0, false, 0x8de809bcfcb3ee85ULL, 3000, 299195, 0,
       0, 0, 0},
      {"bakery-tso-3p", 1, 0.0, true, 0x8de809bcfcb3ee85ULL, 3000, 299195, 0,
       0, 0, 0},
      {"bakery-none-3p", 1, 0.0, false, 0xe6b857176a1152a6ULL, 5, 316, 4, 32,
       22, 83},
      {"bakery-none-3p", 1, 0.0, true, 0xe6b857176a1152a6ULL, 5, 316, 4, 32,
       22, 83},
      {"recoverable-nofence-2p", 3, 0.02, false, 0xceac22d64937c6e8ULL, 64,
       6028, 63, 13, 12, 34},
      {"recoverable-nofence-2p", 3, 0.02, true, 0xceac22d64937c6e8ULL, 64,
       6028, 63, 13, 12, 34},
      {"recoverable-2p", 1, 0.05, false, 0x4c2ec6fcac0c3561ULL, 3000, 149309,
       0, 0, 0, 0},
  };
  for (const Case& c : cases) {
    const auto* s = runtime::find_scenario(c.scenario);
    ASSERT_NE(s, nullptr) << c.scenario;
    tso::FuzzConfig cfg;
    cfg.seed = c.seed;
    cfg.runs = 3'000;
    cfg.crash_prob = c.crash_prob;
    if (c.hooked) cfg.on_complete = [](const tso::Simulator&) {};
    const std::string what = std::string(c.scenario) + " seed " +
                             std::to_string(c.seed) +
                             (c.hooked ? " hooked" : "");
    const tso::FuzzResult r = s->fuzz(cfg);
    EXPECT_EQ(r.schedule_digest, c.schedule_digest) << what;
    EXPECT_EQ(r.schedules, c.schedules) << what;
    EXPECT_EQ(r.steps, c.steps) << what;
    EXPECT_EQ(r.violating_run, c.violating_run) << what;
    EXPECT_EQ(r.verdict.raw_witness.size(), c.raw_len) << what;
    EXPECT_EQ(r.verdict.witness.size(), c.witness_len) << what;
    if (c.raw_len == 0) {
      EXPECT_FALSE(r.verdict.found()) << what << ": " << r.verdict.message;
      continue;
    }
    const tso::ShrinkOutcome shrunk = tso::shrink_witness(
        s->n_procs, s->sim, s->build, r.verdict.raw_witness, cfg.on_complete);
    EXPECT_EQ(shrunk.replays, c.shrink_replays) << what;
    ASSERT_EQ(shrunk.witness.size(), r.verdict.witness.size()) << what;
    for (std::size_t i = 0; i < shrunk.witness.size(); ++i) {
      EXPECT_EQ(shrunk.witness[i].kind, r.verdict.witness[i].kind) << what;
      EXPECT_EQ(shrunk.witness[i].proc, r.verdict.witness[i].proc) << what;
      EXPECT_EQ(shrunk.witness[i].var, r.verdict.witness[i].var) << what;
    }
    EXPECT_EQ(c.crash_prob > 0,
              std::any_of(shrunk.witness.begin(), shrunk.witness.end(),
                          [](const tso::Directive& d) {
                            return d.kind == tso::ActionKind::kCrash;
                          }))
        << what << ": the crash-injected witness keeps its crash";
    EXPECT_THROW((void)s->replay(r.verdict.witness), CheckFailure) << what;
  }
}

// Dedup ablation smoke: stateful exploration (visited-set pruning) must
// find the very same violation, with the very same witness, as the raw
// enumeration — on a violating scope and on a safe one. Runs under both the
// fuzz-smoke and sanitize labels, so the fingerprint/visited-set machinery
// gets an ASan+UBSan pass in tier-1 CI.
TEST(FuzzSmoke, StateDedupKeepsVerdictsAndWitnessesBitIdentical) {
  const auto* broken = runtime::find_scenario("bakery-none-2p");
  ASSERT_NE(broken, nullptr);
  tso::ExplorerConfig off;
  off.preemptions = 2;
  tso::ExplorerConfig on = off;
  on.dedup = tso::DedupMode::kState;
  const tso::ExplorerResult a = broken->explore(off);
  const tso::ExplorerResult b = broken->explore(on);
  ASSERT_TRUE(a.verdict.found() && b.verdict.found());
  EXPECT_EQ(a.verdict.message, b.verdict.message);
  ASSERT_EQ(a.verdict.witness.size(), b.verdict.witness.size());
  for (std::size_t i = 0; i < a.verdict.witness.size(); ++i) {
    EXPECT_EQ(a.verdict.witness[i].kind, b.verdict.witness[i].kind) << i;
    EXPECT_EQ(a.verdict.witness[i].proc, b.verdict.witness[i].proc) << i;
    EXPECT_EQ(a.verdict.witness[i].var, b.verdict.witness[i].var) << i;
  }
  EXPECT_THROW((void)broken->replay(b.verdict.witness), CheckFailure)
      << "the dedup run's witness must still replay to the violation";

  const auto* safe = runtime::find_scenario("bakery-tso-2p");
  ASSERT_NE(safe, nullptr);
  const tso::ExplorerResult sa = safe->explore(off);
  const tso::ExplorerResult sb = safe->explore(on);
  EXPECT_FALSE(sa.verdict.found()) << sa.verdict.message;
  EXPECT_FALSE(sb.verdict.found()) << sb.verdict.message;
  EXPECT_TRUE(sa.exhausted && sb.exhausted);
  EXPECT_GT(sb.dedup_hits, 0u) << "pruning must fire on the safe scope";
  EXPECT_LT(sb.steps, sa.steps)
      << "pruning must reduce executed machine events";
}

// Crash-budget exploration smoke: the recoverable lock at one preemption
// and one crash, raw and with state dedup, sequential and on two workers.
// Every sibling branch is restored in place on its explorer's one simulator,
// so under the sanitize label this is the ASan+UBSan pass over restores that
// tear down live coroutine frames and re-run recovery incarnations.
TEST(FuzzSmoke, CrashBudgetExplorationRestoresInPlaceAcrossIncarnations) {
  const auto* s = runtime::find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  tso::ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.max_crashes = 1;
  cfg.max_steps = 150;
  for (const tso::DedupMode dedup :
       {tso::DedupMode::kOff, tso::DedupMode::kState}) {
    cfg.dedup = dedup;
    cfg.threads = 1;
    const tso::ExplorerResult seq = s->explore(cfg);
    cfg.threads = 2;
    const tso::ExplorerResult par = s->explore(cfg);
    const std::string what = std::string("dedup=") + tso::to_string(dedup);
    for (const tso::ExplorerResult* r : {&seq, &par}) {
      EXPECT_FALSE(r->verdict.found()) << what << ": " << r->verdict.message;
      EXPECT_TRUE(r->exhausted) << what;
      EXPECT_GT(r->restores, 0u) << what;
    }
    if (dedup == tso::DedupMode::kOff) {
      // The raw tree is partitioned exactly across workers.
      EXPECT_EQ(seq.schedules, par.schedules) << what;
      EXPECT_EQ(seq.truncated, par.truncated) << what;
      EXPECT_EQ(seq.steps, par.steps) << what;
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

// Parallel raw-witness parity: the frontier pre-pass leaves leaves and
// nodes whose own step raises whole for the workers, and sibling workers
// restore from one shared parent snapshot. At two threads the raw witness
// must be the sequential one — on a scenario with a shallower violating
// prefix than the first in DFS order, on the fence-free bakery, and across
// crash/recover incarnations. Under the sanitize label this is the
// ASan+UBSan pass over the shared snapshots and over pre-pass restores
// after a raising step.
TEST(FuzzSmoke, ParallelRawWitnessMatchesSequential) {
  struct Case {
    std::string name;
    std::size_t n_procs;
    tso::SimConfig sim;
    tso::ScenarioBuilder build;
    int preemptions;
    int max_crashes;
  };
  std::vector<Case> cases;
  cases.push_back({"read-twice-then-fail", 2, {},
                   [](tso::Simulator& sim) {
                     const tso::VarId x = sim.alloc_var(0);
                     sim.spawn(0, read_n(sim.proc(0), x, 3));
                     sim.spawn(1, read_twice_then_fail(sim.proc(1), x));
                   },
                   1, 0});
  for (const auto& [name, preemptions, max_crashes] :
       {std::tuple{"bakery-none-2p", 2, 0},
        std::tuple{"recoverable-nofence-2p", 1, 1}}) {
    const auto* s = runtime::find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    cases.push_back(
        {name, s->n_procs, s->sim, s->build, preemptions, max_crashes});
  }
  for (const Case& c : cases) {
    tso::ExplorerConfig cfg;
    cfg.preemptions = c.preemptions;
    cfg.max_crashes = c.max_crashes;
    cfg.shrink = false;
    const tso::ExplorerResult seq =
        tso::explore(c.n_procs, c.sim, c.build, cfg);
    cfg.threads = 2;
    const tso::ExplorerResult par =
        tso::explore(c.n_procs, c.sim, c.build, cfg);
    ASSERT_TRUE(seq.verdict.found()) << c.name;
    ASSERT_TRUE(par.verdict.found()) << c.name;
    EXPECT_EQ(par.verdict.message, seq.verdict.message) << c.name;
    ASSERT_EQ(par.verdict.witness.size(), seq.verdict.witness.size())
        << c.name;
    for (std::size_t i = 0; i < seq.verdict.witness.size(); ++i) {
      EXPECT_EQ(par.verdict.witness[i].kind, seq.verdict.witness[i].kind)
          << c.name << " dir " << i;
      EXPECT_EQ(par.verdict.witness[i].proc, seq.verdict.witness[i].proc)
          << c.name << " dir " << i;
      EXPECT_EQ(par.verdict.witness[i].var, seq.verdict.witness[i].var)
          << c.name << " dir " << i;
    }
  }
}

// The explorer's configuration matrix: every combination of six axes —
// dedup, symmetry, liveness, two threads, a campaign file and an
// on_complete hook — on a symmetric two-process lock. explore() must
// reject exactly the six combinations it cannot serve soundly and run
// every other one to the clean, exhausted verdict; wherever dedup is off,
// nothing prunes, so the counts must be the raw run's. Under the sanitize
// label this is the ASan+UBSan pass over every accepted pairing of modes.
TEST(FuzzSmoke, ExplorerConfigMatrixRejectsExactlySixRules) {
  const auto* s = runtime::find_scenario("tas-2p");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->symmetric);
  // Per process, so the plain and the sanitized binary never share a file.
  const std::string campaign = ::testing::TempDir() + "tpa_config_matrix_" +
                               std::to_string(::getpid()) + ".tpc";
  tso::ExplorerConfig base;
  base.preemptions = 1;
  const tso::ExplorerResult raw = s->explore(base);
  ASSERT_FALSE(raw.verdict.found()) << raw.verdict.message;
  ASSERT_TRUE(raw.exhausted);

  int accepted = 0;
  for (unsigned mask = 0; mask < 64; ++mask) {
    const bool dedup = mask & 1, symmetry = mask & 2, liveness = mask & 4,
               threads = mask & 8, camp = mask & 16, hook = mask & 32;
    tso::ExplorerConfig cfg = base;
    if (dedup) cfg.dedup = tso::DedupMode::kState;
    if (symmetry) cfg.symmetric_processes = tso::SymmetryMode::kCanonical;
    if (liveness) cfg.liveness = tso::LivenessMode::kCheck;
    if (threads) cfg.threads = 2;
    if (camp) cfg.campaign_path = campaign;
    if (hook) cfg.on_complete = [](const tso::Simulator&) {};
    const bool rejected = (dedup && hook) || (symmetry && !dedup) ||
                          (liveness && !dedup) || (liveness && threads) ||
                          (camp && threads) || (camp && hook);
    SCOPED_TRACE(::testing::Message()
                 << "dedup=" << dedup << " symmetry=" << symmetry
                 << " liveness=" << liveness << " threads=" << cfg.threads
                 << " campaign=" << camp << " hook=" << hook);
    if (rejected) {
      EXPECT_THROW((void)s->explore(cfg), CheckFailure);
      continue;
    }
    ++accepted;
    const tso::ExplorerResult r = s->explore(cfg);
    EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
    EXPECT_TRUE(r.exhausted);
    if (!dedup) {
      EXPECT_EQ(r.schedules, raw.schedules);
      EXPECT_EQ(r.truncated, raw.truncated);
    }
  }
  EXPECT_EQ(accepted, 15);
  std::remove(campaign.c_str());
}

// A watchdog budget too large for steady_clock to represent means no
// watchdog at all: UINT64_MAX (which a signed conversion wraps to -1 ms)
// and 1e13 ms (which overflows a nanosecond time_point) must both run
// exactly like a budget of 0 — never stop at once with deadline_hit. Under
// the sanitize label UBSan also checks the deadline arithmetic for signed
// overflow.
TEST(FuzzSmoke, UnrepresentableTimeBudgetMeansNoDeadline) {
  const std::uint64_t huge[] = {~0ULL, 10'000'000'000'000ULL};
  const auto* s = runtime::find_scenario("bakery-tso-2p");
  ASSERT_NE(s, nullptr);
  for (const int threads : {1, 2}) {
    tso::ExplorerConfig cfg;
    cfg.preemptions = 1;
    cfg.threads = threads;
    const tso::ExplorerResult none = s->explore(cfg);
    ASSERT_TRUE(none.exhausted);
    ASSERT_GT(none.schedules, 0u);
    for (const std::uint64_t budget : huge) {
      cfg.time_budget_ms = budget;
      const tso::ExplorerResult r = s->explore(cfg);
      const std::string what = "explore threads=" + std::to_string(threads) +
                               " budget=" + std::to_string(budget);
      EXPECT_FALSE(r.deadline_hit) << what;
      EXPECT_TRUE(r.exhausted) << what;
      EXPECT_EQ(r.schedules, none.schedules) << what;
      EXPECT_EQ(r.truncated, none.truncated) << what;
    }
  }

  tso::FuzzConfig fcfg;
  fcfg.seed = 0xC0FFEEULL;
  fcfg.runs = 200;
  const tso::FuzzResult fnone = s->fuzz(fcfg);
  ASSERT_EQ(fnone.schedules, fcfg.runs);
  for (const std::uint64_t budget : huge) {
    fcfg.time_budget_ms = budget;
    const tso::FuzzResult r = s->fuzz(fcfg);
    const std::string what = "fuzz budget=" + std::to_string(budget);
    EXPECT_FALSE(r.deadline_hit) << what;
    EXPECT_EQ(r.schedules, fnone.schedules) << what;
    EXPECT_EQ(r.schedule_digest, fnone.schedule_digest) << what;
  }

  for (const std::uint64_t budget : huge) {
    auto lock = runtime::rt_lock_zoo()[2].make(2);  // ticket
    const runtime::StressResult r = runtime::run_stress(*lock, 2, 2000, budget);
    const std::string what = "run_stress budget=" + std::to_string(budget);
    EXPECT_FALSE(r.deadline_hit) << what;
    EXPECT_EQ(r.total_ops, 4000u) << what;
    EXPECT_TRUE(r.exclusion_ok) << what;
  }
}

// Visited-set semantics under forced shard collisions: every fingerprint
// shares the same `hi` word, so all entries land in one shard and the probe
// chains + in-place growth get exercised far past the initial table size.
// Runs under the sanitize label so the open-addressing code gets an
// ASan+UBSan pass in tier-1 CI.
TEST(FuzzSmoke, VisitedSetDominanceSurvivesForcedCollisionsAndGrowth) {
  using tso::VisitedSet;
  VisitedSet set(/*concurrent=*/false);
  const std::uint64_t hi = 0xABCDEF0123456789ULL;

  // Dominance ordering on a single key: weaker budgets are subsumed, a
  // strictly stronger claim overwrites in place (size must not grow).
  const tso::Fingerprint fp{/*lo=*/42, hi};
  EXPECT_FALSE(set.subsumed(fp, {1, 0, 50}));
  EXPECT_TRUE(set.insert(fp, {1, 0, 50}));
  EXPECT_TRUE(set.subsumed(fp, {1, 0, 50}));
  EXPECT_TRUE(set.subsumed(fp, {0, 0, 10}));
  EXPECT_FALSE(set.subsumed(fp, {2, 0, 50})) << "more preemptions left";
  EXPECT_FALSE(set.subsumed(fp, {1, 1, 50})) << "more crashes left";
  EXPECT_FALSE(set.subsumed(fp, {1, 0, 51})) << "more steps left";
  const std::size_t before = set.size();
  EXPECT_TRUE(set.insert(fp, {3, 1, 99})) << "stronger claim must land";
  EXPECT_EQ(set.size(), before) << "stronger claim overwrites in place";
  EXPECT_TRUE(set.subsumed(fp, {2, 1, 70}));
  EXPECT_FALSE(set.insert(fp, {2, 0, 40}))
      << "a dominated claim adds nothing";

  // Incomparable budgets must coexist: neither dominates the other.
  const tso::Fingerprint fp2{/*lo=*/43, hi};
  EXPECT_TRUE(set.insert(fp2, {2, 0, 10}));
  EXPECT_TRUE(set.insert(fp2, {0, 0, 99})) << "incomparable claim must land";
  EXPECT_TRUE(set.subsumed(fp2, {1, 0, 5}));
  EXPECT_TRUE(set.subsumed(fp2, {0, 0, 80}));

  // Growth: push one shard far past its initial capacity (1024 slots,
  // grows at ~70% load) and verify every claim is still retrievable.
  for (std::uint64_t lo = 0; lo < 4'000; ++lo)
    EXPECT_TRUE(set.insert({lo + 100, hi},
                           {static_cast<int>(lo % 3), 0, lo}));
  for (std::uint64_t lo = 0; lo < 4'000; ++lo) {
    EXPECT_TRUE(set.subsumed({lo + 100, hi},
                             {static_cast<int>(lo % 3), 0, lo}))
        << lo;
    EXPECT_FALSE(set.subsumed({lo + 100, hi},
                              {static_cast<int>(lo % 3), 1, lo}))
        << lo;
  }
  EXPECT_GE(set.size(), 4'000u);
}

// Concurrent stress: many threads hammer the same shard (shared `hi`) with
// overlapping keys and mixed budgets, forcing lock contention, probe-chain
// races, and under-lock growth. Sound outcome: after the dust settles every
// key holds a claim at least as strong as the strongest inserted one. The
// sanitize twin runs this under ASan+UBSan (and the spinlocks keep TSan-like
// interleavings honest on a single core via yielding contention).
TEST(FuzzSmoke, VisitedSetConcurrentInsertsKeepStrongestClaim) {
  using tso::VisitedSet;
  VisitedSet set(/*concurrent=*/true);
  const std::uint64_t hi = 0x5115511551155115ULL;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 1'500;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&set, hi, t] {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        // Thread t claims key k with budget strength t (totally ordered so
        // the strongest surviving claim is well-defined: kThreads - 1).
        set.insert({k, hi}, {t, t, static_cast<std::uint64_t>(t)});
        // Interleave reads; any answer is fine, it must just not crash.
        (void)set.subsumed({(k * 7) % kKeys, hi}, {0, 0, 0});
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(set.subsumed(
        {k, hi}, {kThreads - 1, kThreads - 1, kThreads - 1}))
        << "key " << k << " lost the strongest inserted claim";
    EXPECT_FALSE(set.subsumed({k, hi}, {kThreads, 0, 0}))
        << "key " << k << " reports a claim nobody inserted";
  }
}

// ---- differential restore --------------------------------------------------

// restore() keeps the coroutines that did not move since the snapshot,
// respawns the rest from spare frames, and feeds a respawned frame its op
// results only at its first resume. A fresh simulator holds no frame to
// keep, so restoring the same snapshot onto one is the reference: after
// every step of the same random suffix both must agree on everything a
// coroutine's position shows up in.

struct RestoreSubject {
  std::string name;
  std::size_t n_procs;
  tso::SimConfig sim;
  tso::ScenarioBuilder build;
};

/// Every registry scenario, plus every zoo lock at 2 and 3 processes with
/// two passages each (so per-process host state such as adaptive-bakery's
/// slot cache is read again after it was written).
std::vector<RestoreSubject> restore_subjects() {
  std::vector<RestoreSubject> out;
  for (const auto& s : runtime::scenario_registry())
    out.push_back({s.name, s.n_procs, s.sim, s.build});
  for (const auto& lock : algos::lock_zoo())
    for (const int n : {2, 3})
      out.push_back({lock.name + "-" + std::to_string(n) + "p",
                     static_cast<std::size_t>(n),
                     {},
                     runtime::zoo_scenario(lock.name.c_str(), n, 2)});
  return out;
}

/// Everything observable about the machine and each process' coroutine
/// position, as one comparable line.
std::string restore_view(const tso::Simulator& sim) {
  std::ostringstream os;
  const tso::Fingerprint fp = sim.fingerprint();
  const tso::Fingerprint oracle = sim.fingerprint_oracle();
  os << std::hex << fp.lo << ':' << fp.hi << " oracle " << oracle.lo << ':'
     << oracle.hi << std::dec;
  for (std::size_t i = 0; i < sim.num_procs(); ++i) {
    const tso::Proc& p = sim.proc(static_cast<tso::ProcId>(i));
    os << " | p" << i << ' ' << std::hex << p.op_history_hash() << std::dec
       << ' ' << tso::to_string(p.status()) << ' ' << tso::to_string(p.mode())
       << (p.done() ? " done" : "") << (p.crashed() ? " crashed" : "")
       << " inc" << p.incarnations();
    if (p.has_pending())
      os << " pending " << tso::to_string(p.pending().kind) << " v"
         << p.pending().var << '=' << p.pending().value << '/'
         << p.pending().expected;
  }
  return os.str();
}

/// A random move the simulator accepts: deliver, commit (any buffered
/// variable under PSO), recover, or — one time in `crash_one_in` — crash.
/// kNoProc in `proc` when no process can act.
tso::Directive random_move(const tso::Simulator& sim, Rng& rng,
                           std::uint64_t crash_one_in) {
  const auto n = static_cast<tso::ProcId>(sim.num_procs());
  if (crash_one_in != 0 && rng.below(crash_one_in) == 0) {
    const auto p = static_cast<tso::ProcId>(rng.below(sim.num_procs()));
    if (sim.can_crash(p)) return {tso::ActionKind::kCrash, p};
  }
  std::vector<tso::Directive> moves;
  for (tso::ProcId p = 0; p < n; ++p) {
    const tso::Proc& proc = sim.proc(p);
    if (proc.crashed()) {
      if (sim.has_recovery(p)) moves.push_back({tso::ActionKind::kRecover, p});
      continue;
    }
    if (!proc.done() && proc.has_pending())
      moves.push_back({tso::ActionKind::kDeliver, p});
    if (!proc.buffer().empty()) {
      const auto k = sim.config().pso ? rng.below(proc.buffer().size()) : 0;
      moves.push_back({tso::ActionKind::kCommit, p, proc.buffer()[k].var});
    }
  }
  if (moves.empty()) return {tso::ActionKind::kDeliver, tso::kNoProc};
  return moves[rng.below(moves.size())];
}

/// Applies d; "" on success, the raised message otherwise.
std::string apply_caught(tso::Simulator& sim, const tso::Directive& d) {
  try {
    return sim.apply(d) ? "" : "refused";
  } catch (const CheckFailure& e) {
    return e.what();
  }
}

/// Runs up to `steps` random moves on both simulators (chosen on `a`),
/// comparing them after each. Stops at the first raise, which must be the
/// same on both. Every step may add a's state to `pool`.
void run_both(tso::Simulator& a, tso::Simulator& b, Rng& rng, int steps,
              std::vector<std::shared_ptr<const tso::SimSnapshot>>* pool,
              const std::string& what) {
  for (int k = 0; k < steps; ++k) {
    const tso::Directive d = random_move(a, rng, 24);
    if (d.proc == tso::kNoProc) return;
    const std::string ra = apply_caught(a, d);
    const std::string rb = apply_caught(b, d);
    ASSERT_EQ(ra, rb) << what << " step " << k;
    if (!ra.empty()) return;  // a raise leaves the step half applied
    ASSERT_EQ(restore_view(a), restore_view(b)) << what << " step " << k;
    if (pool != nullptr && rng.below(6) == 0) {
      if (pool->size() < 48)
        pool->push_back(std::make_shared<const tso::SimSnapshot>(a.snapshot()));
      else
        (*pool)[rng.below(pool->size())] =
            std::make_shared<const tso::SimSnapshot>(a.snapshot());
    }
  }
}

// Seeded walks with crash and recovery over every registry scenario and the
// zoo locks. Snapshots are pooled from every walk, so a restore in place
// often lands on a state that is not an ancestor of the current one.
TEST(FuzzSmoke, InPlaceRestoreMatchesFreshRestoreOnEveryScenario) {
  for (const RestoreSubject& s : restore_subjects()) {
    Rng rng(0x7e57ULL + std::hash<std::string>{}(s.name) % 1000);
    tso::Simulator live(s.n_procs, s.sim);
    s.build(live);
    std::vector<std::shared_ptr<const tso::SimSnapshot>> pool{
        std::make_shared<const tso::SimSnapshot>(live.snapshot())};
    for (int trial = 0; trial < 40; ++trial) {
      const std::string what = s.name + " trial " + std::to_string(trial);
      const tso::SimSnapshot& snap = *pool[rng.below(pool.size())];
      live.restore(snap, s.build);
      tso::Simulator fresh(s.n_procs, s.sim);
      fresh.restore(snap, s.build);
      ASSERT_EQ(restore_view(live), restore_view(fresh)) << what;
      run_both(live, fresh, rng, 1 + static_cast<int>(rng.below(40)), &pool,
               what);
      if (HasFatalFailure()) return;
    }
  }
}

// The corner cases of the lazy fast-forward, each taken on purpose: a
// process that owes its op results crashes before its first resume; a
// snapshot is taken while a process owes them; and a snapshot in which no
// process has a live coroutine is restored onto a fresh simulator, where
// the builder must still run for the variables and recovery sections.
TEST(FuzzSmoke, RestoreCornerCasesMatchFreshRestore) {
  for (const char* name : {"recoverable-2p", "bakery-tso-3p"}) {
    const auto* s = runtime::find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    Rng rng(11);
    tso::Simulator live(s->n_procs, s->sim);
    s->build(live);
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(live.deliver(0));
    const tso::SimSnapshot mid = live.snapshot();
    ASSERT_TRUE(live.deliver(0));  // p0 moves past the snapshot

    // p0 is respawned and owes its results; it crashes before it resumes.
    live.restore(mid, s->build);
    tso::Simulator fresh(s->n_procs, s->sim);
    fresh.restore(mid, s->build);
    ASSERT_TRUE(live.crash(0) && fresh.crash(0)) << name;
    ASSERT_EQ(restore_view(live), restore_view(fresh)) << name;
    run_both(live, fresh, rng, 60, nullptr,
             std::string(name) + " after an owed crash");

    // A snapshot taken while p0 owes its results, restored after only p1
    // moved (p0 kept, still owing) and after p0 moved too.
    for (const bool move_p0 : {false, true}) {
      live.restore(mid, s->build);
      const tso::SimSnapshot owed = live.snapshot();
      ASSERT_TRUE(live.deliver(1)) << name;
      if (move_p0) {
        ASSERT_TRUE(live.deliver(0));
      }
      live.restore(owed, s->build);
      tso::Simulator ref(s->n_procs, s->sim);
      ref.restore(owed, s->build);
      ASSERT_EQ(restore_view(live), restore_view(ref)) << name;
      run_both(live, ref, rng, 60, nullptr,
               std::string(name) + " from a snapshot taken while owed");
    }
  }

  // Every process crashed (recoverable-2p) or never spawned.
  auto spawn_p0_only = [](tso::Simulator& sim) {
    const tso::VarId x = sim.alloc_var(0);
    sim.spawn(0, read_n(sim.proc(0), x, 3));
    sim.set_recovery(0, [x](tso::Proc& p) { return read_n(p, x, 2); });
  };
  const auto* rec = runtime::find_scenario("recoverable-2p");
  ASSERT_NE(rec, nullptr);
  const RestoreSubject idle[] = {
      {"recoverable-2p", rec->n_procs, rec->sim, rec->build},
      {"p1 never spawned", 2, {}, spawn_p0_only},
  };
  for (const RestoreSubject& s : idle) {
    Rng rng(12);
    tso::Simulator live(s.n_procs, s.sim);
    s.build(live);
    ASSERT_TRUE(live.deliver(0));
    for (std::size_t i = 0; i < s.n_procs; ++i)
      if (live.can_crash(static_cast<tso::ProcId>(i))) {
        ASSERT_TRUE(live.crash(static_cast<tso::ProcId>(i)));
      }
    const tso::SimSnapshot none_live = live.snapshot();
    tso::Simulator fresh(s.n_procs, s.sim);
    fresh.restore(none_live, s.build);
    EXPECT_EQ(fresh.num_vars(), live.num_vars()) << s.name;
    ASSERT_EQ(restore_view(live), restore_view(fresh)) << s.name;
    ASSERT_TRUE(fresh.has_recovery(0)) << s.name;
    run_both(live, fresh, rng, 80, nullptr, s.name + ", nothing live");
  }
}

}  // namespace
}  // namespace tpa

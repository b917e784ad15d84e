// Crash–recovery fault model, end to end: simulator crash/recover
// semantics under both buffer models, the explorer's crash-point
// enumeration (proof for the fenced recoverable lock, refutation with a
// shrunk replayable witness for the fence-free one), witness v2
// serialization, the exploration watchdog, atomic witness files, and the
// structured-check plumbing the harness hardening added.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "algos/recoverable.h"
#include "runtime/scenario.h"
#include "trace/analyzer.h"
#include "trace/format.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/observers.h"
#include "tso/schedule.h"
#include "tso/schedulers.h"
#include "tso/sim.h"
#include "util/check.h"

namespace tpa {
namespace {

namespace fs = std::filesystem;
using runtime::find_scenario;
using tso::ActionKind;
using tso::CrashModel;
using tso::Directive;
using tso::EventKind;
using tso::Proc;
using tso::Simulator;
using tso::Task;
using tso::Value;
using tso::VarId;

Task<> write_two(Proc& p, VarId a, VarId b) {
  co_await p.write(a, 1);
  co_await p.write(b, 2);
  co_await p.fence();
}

// ---- simulator semantics -------------------------------------------------

TEST(CrashSim, FailStopCrashLosesBufferAndCountsAsDone) {
  Simulator sim(2);
  const VarId a = sim.alloc_var(0);
  const VarId b = sim.alloc_var(0);
  sim.spawn(0, write_two(sim.proc(0), a, b));
  EXPECT_FALSE(sim.can_crash(1)) << "never spawned: nothing to crash";
  sim.deliver(0);  // issue a=1
  sim.deliver(0);  // issue b=2
  ASSERT_TRUE(sim.can_crash(0));
  ASSERT_TRUE(sim.crash(0));
  EXPECT_TRUE(sim.proc(0).crashed());
  EXPECT_TRUE(sim.proc(0).done()) << "no recovery section: fail-stop";
  EXPECT_TRUE(sim.proc(0).buffer().empty());
  EXPECT_EQ(sim.value(a), 0) << "buffer-lost: issued writes vanish";
  EXPECT_EQ(sim.value(b), 0);
  EXPECT_FALSE(sim.can_crash(0)) << "already crashed";
  EXPECT_FALSE(sim.crash(0));
  EXPECT_FALSE(sim.recover(0)) << "no recovery section registered";
  // The Crash event records how many buffered writes were lost.
  const auto& events = sim.execution().events;
  ASSERT_FALSE(events.empty());
  const tso::Event& crash = events.back();
  EXPECT_EQ(crash.kind, EventKind::kCrash);
  EXPECT_EQ(crash.proc, 0);
  EXPECT_EQ(crash.value, 2) << "two uncommitted writes were lost";
}

TEST(CrashSim, BufferLostAndBufferFlushedDiverge) {
  // The same program, the same crash point — opposite memory outcomes.
  tso::SimConfig lost;
  lost.crash_model = CrashModel::kBufferLost;
  Simulator sl(1, lost);
  const VarId la = sl.alloc_var(0);
  const VarId lb = sl.alloc_var(0);
  sl.spawn(0, write_two(sl.proc(0), la, lb));
  sl.deliver(0);
  sl.deliver(0);
  ASSERT_TRUE(sl.crash(0));
  EXPECT_EQ(sl.value(la), 0);
  EXPECT_EQ(sl.value(lb), 0);
  EXPECT_EQ(sl.execution().events.back().value, 2);

  tso::SimConfig flushed;
  flushed.crash_model = CrashModel::kBufferFlushed;
  Simulator sf(1, flushed);
  const VarId fa = sf.alloc_var(0);
  const VarId fb = sf.alloc_var(0);
  sf.spawn(0, write_two(sf.proc(0), fa, fb));
  sf.deliver(0);
  sf.deliver(0);
  ASSERT_TRUE(sf.crash(0));
  EXPECT_EQ(sf.value(fa), 1) << "flushed: the buffer drains at the crash";
  EXPECT_EQ(sf.value(fb), 2);
  // The flush shows up as ordinary WriteCommits *before* the Crash event,
  // which then has nothing left to lose.
  const auto& events = sf.execution().events;
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[events.size() - 3].kind, EventKind::kWriteCommit);
  EXPECT_EQ(events[events.size() - 2].kind, EventKind::kWriteCommit);
  EXPECT_EQ(events.back().kind, EventKind::kCrash);
  EXPECT_EQ(events.back().value, 0) << "nothing was lost";
}

Task<> read_into(Proc& p, VarId v, Value* out) {
  const Value got = co_await p.read(v);
  *out = got;
}

TEST(CrashSim, RecoverRunsAFreshIncarnation) {
  Simulator sim(1);
  const VarId a = sim.alloc_var(0);
  Value seen = -1;
  sim.spawn(0, write_two(sim.proc(0), a, a));
  sim.set_recovery(0, [a, &seen](Proc& p) { return read_into(p, a, &seen); });
  sim.deliver(0);  // issue a=1 (coalesces with a=2 next)
  ASSERT_TRUE(sim.crash(0));
  EXPECT_TRUE(sim.proc(0).crashed());
  EXPECT_FALSE(sim.proc(0).done())
      << "a crashed process with a recovery section is not done";
  ASSERT_TRUE(sim.recover(0));
  EXPECT_FALSE(sim.proc(0).crashed());
  EXPECT_EQ(sim.proc(0).incarnations(), 1u);
  sim.deliver(0);  // the recovery section's read
  EXPECT_EQ(seen, 0) << "the lost write must not be visible post-recovery";
  EXPECT_TRUE(sim.proc(0).done());
  EXPECT_FALSE(sim.recover(0)) << "recover is only legal while crashed";
}

TEST(CrashSim, StrictReplayAppliesCrashAndRecoverDirectives) {
  // tso::replay drives the same machine through recorded x/r directives.
  const auto sink = std::make_shared<Value>(-1);
  const auto build = [sink](Simulator& sim) {
    const VarId a = sim.alloc_var(0);
    sim.spawn(0, write_two(sim.proc(0), a, sim.alloc_var(0)));
    sim.set_recovery(
        0, [a, sink](Proc& p) { return read_into(p, a, sink.get()); });
  };
  const std::vector<Directive> directives = {
      {ActionKind::kDeliver, 0}, {ActionKind::kDeliver, 0},
      {ActionKind::kCrash, 0},   {ActionKind::kRecover, 0},
      {ActionKind::kDeliver, 0},
  };
  const auto sim = tso::replay(1, {}, build, directives);
  ASSERT_NE(sim, nullptr);
  EXPECT_TRUE(sim->proc(0).done());
  EXPECT_EQ(sim->proc(0).incarnations(), 1u);
  // The directive log round-trips through the recorder too.
  ASSERT_EQ(sim->execution().directives.size(), directives.size());
  EXPECT_EQ(sim->execution().directives[2].kind, ActionKind::kCrash);
  EXPECT_EQ(sim->execution().directives[3].kind, ActionKind::kRecover);
}

// ---- observers over crash schedules --------------------------------------

const tso::CostObserver* cost_observer(const Simulator& sim) {
  for (const auto& o : sim.observers())
    if (const auto* c = dynamic_cast<const tso::CostObserver*>(o.get()))
      return c;
  return nullptr;
}

TEST(CrashObservers, PostRecoveryCriticalEventsAreChargedSeparately) {
  const auto* s = find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  Simulator sim(s->n_procs, s->sim);
  s->build(sim);
  sim.deliver(0);  // p0 issues its owner announcement
  ASSERT_TRUE(sim.crash(0));
  ASSERT_TRUE(sim.recover(0));
  tso::run_round_robin(sim, 10'000);
  ASSERT_TRUE(tso::all_done(sim));
  const tso::CostObserver* cost = cost_observer(sim);
  ASSERT_NE(cost, nullptr);
  EXPECT_GT(cost->recovery_critical(0), 0u)
      << "the recovered process pays critical events again";
  EXPECT_EQ(cost->recovery_critical(1), 0u)
      << "a process that never crashed has no recovery charge";
}

TEST(CrashObservers, OfflineAnalyzerIsConsistentOnCrashTraces) {
  const auto* s = find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  Simulator sim(s->n_procs, s->sim);
  s->build(sim);
  sim.deliver(0);
  sim.deliver(0);
  ASSERT_TRUE(sim.crash(0));
  ASSERT_TRUE(sim.recover(0));
  tso::run_round_robin(sim, 10'000);
  ASSERT_TRUE(tso::all_done(sim));
  const trace::VarLayout layout{sim.var_owners()};
  const auto analysis =
      trace::analyze(sim.execution(), sim.num_procs(), layout);
  const auto report = trace::check_consistency(sim.execution(), analysis);
  EXPECT_TRUE(report.ok) << report.detail;
  for (std::size_t p = 0; p < sim.num_procs(); ++p) {
    EXPECT_TRUE(analysis.awareness[p] ==
                sim.proc(static_cast<tso::ProcId>(p)).awareness())
        << "p" << p;
  }
}

// ---- explorer: proof, refutation, parity, watchdog -----------------------

TEST(CrashExplorer, ProvesRecoverableLockCrashSafeForSmallScope) {
  const auto* s = find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  for (const CrashModel model :
       {CrashModel::kBufferLost, CrashModel::kBufferFlushed}) {
    SCOPED_TRACE(tso::to_string(model));
    tso::SimConfig sim = s->sim;
    sim.crash_model = model;
    tso::ExplorerConfig cfg;
    cfg.preemptions = 1;
    cfg.max_crashes = 1;
    const auto r = tso::explore(s->n_procs, sim, s->build, cfg);
    EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
    EXPECT_TRUE(r.exhausted) << "the scope must be fully explored (a proof)";
    EXPECT_FALSE(r.deadline_hit);
    if (model == CrashModel::kBufferLost) {
      EXPECT_EQ(r.schedules, 788u);
      EXPECT_EQ(r.truncated, 19352u);
    } else {
      EXPECT_EQ(r.schedules, 3050u);
      EXPECT_EQ(r.truncated, 17106u);
    }
  }
}

TEST(CrashExplorer, RefutesFenceFreeVariantWithShrunkCrashWitness) {
  const auto* s = find_scenario("recoverable-nofence-2p");
  ASSERT_NE(s, nullptr);
  tso::ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.max_crashes = 1;
  const auto r = tso::explore(s->n_procs, s->sim, s->build, cfg);
  ASSERT_TRUE(r.verdict.found());
  EXPECT_EQ(r.schedules, 40u) << "DFS order is deterministic";
  EXPECT_NE(r.verdict.message.find("mutual exclusion violated"), std::string::npos)
      << r.verdict.message;
  ASSERT_EQ(r.verdict.witness.size(), 17u);
  const auto count_kind = [&r](ActionKind k) {
    return std::count_if(r.verdict.witness.begin(), r.verdict.witness.end(),
                         [k](const Directive& d) { return d.kind == k; });
  };
  EXPECT_EQ(count_kind(ActionKind::kCrash), 1);
  EXPECT_EQ(count_kind(ActionKind::kRecover), 1);

  // The shrunk witness replays deterministically, and is 1-minimal: no
  // single directive (crash and recover included) can be dropped.
  const auto replay =
      tso::replay_lenient(s->n_procs, s->sim, s->build, r.verdict.witness);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.applied.size(), r.verdict.witness.size());
  for (std::size_t i = 0; i < r.verdict.witness.size(); ++i) {
    std::vector<Directive> cand = r.verdict.witness;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(tso::replay_lenient(s->n_procs, s->sim, s->build, cand)
                     .violated)
        << "directive " << i << " is removable";
  }
}

TEST(CrashExplorer, CrashWitnessRoundTripsThroughTheV2Format) {
  const auto* s = find_scenario("recoverable-nofence-2p");
  ASSERT_NE(s, nullptr);
  tso::ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.max_crashes = 1;
  const auto r = tso::explore(s->n_procs, s->sim, s->build, cfg);
  ASSERT_TRUE(r.verdict.found());

  trace::Witness w;
  w.scenario = s->name;
  w.n_procs = s->n_procs;
  w.crash_model = s->sim.crash_model;
  w.violation = runtime::violation_detail(r.verdict.message);
  w.directives = r.verdict.witness;
  const std::string text = trace::witness_to_string(w);
  EXPECT_NE(text.find("tpa-witness v2"), std::string::npos)
      << "crash-bearing witnesses use the v2 header";
  EXPECT_NE(text.find("crash-model lost"), std::string::npos) << text;
  EXPECT_NE(text.find("\nx 0\n"), std::string::npos)
      << "crash directives serialize as 'x <proc>'";
  EXPECT_NE(text.find("\nr 0\n"), std::string::npos)
      << "recover directives serialize as 'r <proc>'";

  const trace::Witness back = trace::witness_from_string(text);
  EXPECT_EQ(back.scenario, w.scenario);
  EXPECT_EQ(back.crash_model, w.crash_model);
  ASSERT_EQ(back.directives.size(), w.directives.size());
  for (std::size_t i = 0; i < w.directives.size(); ++i) {
    EXPECT_EQ(back.directives[i].kind, w.directives[i].kind) << i;
    EXPECT_EQ(back.directives[i].proc, w.directives[i].proc) << i;
  }
  // Crash-free witnesses keep the v1 header byte-for-byte, so the existing
  // corpus format is untouched.
  trace::Witness plain = w;
  plain.directives = {{ActionKind::kDeliver, 0}};
  EXPECT_NE(trace::witness_to_string(plain).find("tpa-witness v1"),
            std::string::npos);
}

TEST(CrashExplorer, MaxCrashesZeroKeepsScheduleCountsBitIdentical) {
  // The crash-free pins from tests/test_explorer.cpp, re-asserted with the
  // fault-injection machinery compiled in and explicitly disabled.
  const auto* s = find_scenario("bakery-tso-2p");
  ASSERT_NE(s, nullptr);
  const std::vector<std::array<std::uint64_t, 3>> pins = {
      {0, 2, 0}, {1, 12, 30}, {2, 11486, 6396}};
  for (const auto& [pre, schedules, truncated] : pins) {
    tso::ExplorerConfig cfg;
    cfg.preemptions = static_cast<int>(pre);
    cfg.max_crashes = 0;
    const auto r = tso::explore(s->n_procs, s->sim, s->build, cfg);
    EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
    EXPECT_EQ(r.schedules, schedules) << "pre=" << pre;
    EXPECT_EQ(r.truncated, truncated) << "pre=" << pre;
    EXPECT_TRUE(r.exhausted);
  }
  const auto* b = find_scenario("bakery-none-2p");
  ASSERT_NE(b, nullptr);
  tso::ExplorerConfig cfg;
  cfg.preemptions = 2;
  cfg.max_crashes = 0;
  const auto r = tso::explore(b->n_procs, b->sim, b->build, cfg);
  EXPECT_TRUE(r.verdict.found());
  EXPECT_EQ(r.schedules, 53u);
  EXPECT_EQ(r.verdict.witness.size(), 16u);
}

TEST(CrashExplorer, WatchdogStopsLongExplorations) {
  const auto* s = find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  tso::ExplorerConfig cfg;
  cfg.preemptions = 2;  // minutes of work without the watchdog
  cfg.max_crashes = 1;
  cfg.time_budget_ms = 50;
  const auto r = tso::explore(s->n_procs, s->sim, s->build, cfg);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_FALSE(r.exhausted)
      << "a deadline-stopped exploration must not claim a proof";
  EXPECT_FALSE(r.verdict.found());
}

TEST(CrashExplorer, CheckpointingDoesNotChangeCrashExploration) {
  // Golden values recorded in the explorer's former replay mode, which
  // rebuilt every sibling from the root: snapshot restores across crash
  // and recovery incarnations must reach the same verdict at the same
  // raw witness.
  const auto* s = find_scenario("recoverable-nofence-2p");
  ASSERT_NE(s, nullptr);
  tso::ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.max_crashes = 1;
  cfg.shrink = false;
  const auto r = tso::explore(s->n_procs, s->sim, s->build, cfg);
  EXPECT_EQ(r.schedules, 40u);
  ASSERT_TRUE(r.verdict.found());
  // p0 delivers nine events and commits a write, crashes, recovers and
  // delivers two more; then p1 delivers five.
  const std::vector<Directive> expect = {
      {ActionKind::kDeliver, 0}, {ActionKind::kDeliver, 0},
      {ActionKind::kDeliver, 0}, {ActionKind::kDeliver, 0},
      {ActionKind::kDeliver, 0}, {ActionKind::kDeliver, 0},
      {ActionKind::kDeliver, 0}, {ActionKind::kDeliver, 0},
      {ActionKind::kDeliver, 0}, {ActionKind::kCommit, 0},
      {ActionKind::kCrash, 0},   {ActionKind::kRecover, 0},
      {ActionKind::kDeliver, 0}, {ActionKind::kDeliver, 0},
      {ActionKind::kDeliver, 1}, {ActionKind::kDeliver, 1},
      {ActionKind::kDeliver, 1}, {ActionKind::kDeliver, 1},
      {ActionKind::kDeliver, 1}};
  ASSERT_EQ(r.verdict.witness.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.verdict.witness[i].kind, expect[i].kind) << i;
    EXPECT_EQ(r.verdict.witness[i].proc, expect[i].proc) << i;
    EXPECT_EQ(r.verdict.witness[i].var, expect[i].var) << i;
  }
  EXPECT_GT(r.restores, 0u) << "checkpointing must actually engage";
}

// ---- fuzzer ---------------------------------------------------------------

TEST(CrashFuzz, CrashKnobsDoNotPerturbTheRngStreamWhenDisabled) {
  // crash_prob == 0 must leave the schedule digest bit-identical no matter
  // what max_crashes says — the crash guard short-circuits before drawing.
  const auto* s = find_scenario("recoverable-nofence-2p");
  ASSERT_NE(s, nullptr);
  tso::FuzzConfig a;
  a.seed = 42;
  a.runs = 200;
  tso::FuzzConfig b = a;
  b.max_crashes = 7;
  const auto ra = tso::fuzz(s->n_procs, s->sim, s->build, a);
  const auto rb = tso::fuzz(s->n_procs, s->sim, s->build, b);
  EXPECT_EQ(ra.schedule_digest, rb.schedule_digest);
  EXPECT_EQ(ra.verdict.found(), rb.verdict.found());
}

// ---- atomic witness files -------------------------------------------------

class WitnessFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tpa-witness-test-") + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(WitnessFileTest, WriteIsAtomicAndRoundTrips) {
  trace::Witness w;
  w.scenario = "recoverable-nofence-2p";
  w.n_procs = 2;
  w.crash_model = CrashModel::kBufferLost;
  w.violation = "mutual exclusion violated";
  w.directives = {{ActionKind::kDeliver, 0},
                  {ActionKind::kCrash, 0},
                  {ActionKind::kRecover, 0}};
  const fs::path path = dir_ / "x.witness";
  trace::write_witness_file(path.string(), w);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"))
      << "the tmp file must be renamed away";
  trace::Witness back;
  std::string error;
  ASSERT_TRUE(trace::try_read_witness_file(path.string(), &back, &error))
      << error;
  EXPECT_EQ(back.scenario, w.scenario);
  EXPECT_EQ(back.crash_model, w.crash_model);
  EXPECT_EQ(back.directives.size(), w.directives.size());
}

TEST_F(WitnessFileTest, LenientReadReportsCorruptAndMissingFiles) {
  trace::Witness out;
  std::string error;
  EXPECT_FALSE(trace::try_read_witness_file((dir_ / "absent.witness").string(),
                                            &out, &error));
  EXPECT_FALSE(error.empty());

  const fs::path garbage = dir_ / "garbage.witness";
  std::ofstream(garbage) << "not a witness at all\n";
  error.clear();
  EXPECT_FALSE(trace::try_read_witness_file(garbage.string(), &out, &error));
  EXPECT_FALSE(error.empty());

  // A truncated header-only file (the failure mode atomic writes prevent).
  const fs::path cut = dir_ / "cut.witness";
  std::ofstream(cut) << "tpa-witness v2\nscenario foo\n";
  error.clear();
  EXPECT_FALSE(trace::try_read_witness_file(cut.string(), &out, &error));
  EXPECT_FALSE(error.empty());
}

// ---- structured checks ----------------------------------------------------

TEST(CrashChecks, TaskStartFailuresAreStructured) {
  Task<> empty;
  try {
    empty.start();
    FAIL() << "start() on an empty task must throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("invalid"), std::string::npos)
        << e.what();
  }
}

TEST(CrashChecks, AnalyzerRejectsEventsNamingVarsOutsideTheLayout) {
  tso::Execution bogus;
  tso::Event e;
  e.kind = EventKind::kRead;
  e.proc = 0;
  e.var = 99;
  bogus.events.push_back(e);
  const trace::VarLayout layout{{tso::kNoProc}};
  try {
    trace::analyze(bogus, 1, layout);
    FAIL() << "an out-of-layout var must be rejected";
  } catch (const CheckFailure& ex) {
    EXPECT_NE(std::string(ex.what()).find("outside the layout"),
              std::string::npos)
        << ex.what();
  }
}

// ---- the recoverable lock itself ------------------------------------------

TEST(RecoverableLock, FencedReleaseIsCrashOrderedFenceFreeIsNot) {
  // The whole point of the fenced variant: release drains owner before
  // lock, so a crash mid-release can never leave lock free while the
  // announcement still claims ownership. The fence-free release leaves
  // exactly that window (the explorer refutation above walks through it);
  // here we pin the single-process buffer shape that creates it.
  const auto* s = find_scenario("recoverable-nofence-2p");
  ASSERT_NE(s, nullptr);
  Simulator sim(s->n_procs, s->sim);
  s->build(sim);
  // Drive p0 through acquire and the CS to its fence-free release.
  for (int steps = 0; sim.classify_pending(0) != tso::PendingClass::kExit;
       ++steps) {
    ASSERT_LT(steps, 100) << "p0 never reached its exit transition";
    ASSERT_TRUE(sim.deliver(0));
  }
  // Both release writes are buffered: [lock=0, owner=0], in that order.
  ASSERT_EQ(sim.proc(0).buffer().size(), 2u);
  // Commit only the lock release, then crash: memory now says the lock is
  // free but the announcement still names p0 — the stale-owner state.
  ASSERT_TRUE(sim.commit(0));
  ASSERT_TRUE(sim.crash(0));
  EXPECT_EQ(sim.value(0), 0) << "lock freed";
  EXPECT_EQ(sim.value(1), 1) << "owner announcement survived the crash";
}

}  // namespace
}  // namespace tpa

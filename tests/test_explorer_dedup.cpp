// Stateful exploration: Simulator::fingerprint invariants, the visited-set
// ablation (dedup on/off must produce bit-identical verdicts and witnesses
// on every registry scenario), process-symmetry canonicalization, and the
// check.h-routed rejections of the unsound configuration combinations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/schedule.h"
#include "tso/sim.h"
#include "tso/task.h"
#include "util/check.h"

namespace tpa {
namespace {

using runtime::find_scenario;
using runtime::Scenario;
using tso::DedupMode;
using tso::Directive;
using tso::ExplorerConfig;
using tso::ExplorerResult;
using tso::Fingerprint;
using tso::ProcId;
using tso::ScenarioBuilder;
using tso::SimConfig;
using tso::Simulator;
using tso::SymmetryMode;
using tso::Task;
using tso::Value;
using tso::VarId;

// ---- fingerprint unit tests ----------------------------------------------

Task<> write_and_fence(tso::Proc& p, VarId v, Value value) {
  co_await p.write(v, value);
  co_await p.fence();
}

/// Two processes writing constant values to distinct variables — every step
/// of one commutes with every step of the other.
ScenarioBuilder two_writers(Value v0 = 1, Value v1 = 1) {
  return [v0, v1](Simulator& sim) {
    const VarId x = sim.alloc_var();
    const VarId y = sim.alloc_var();
    sim.spawn(0, write_and_fence(sim.proc(0), x, v0));
    sim.spawn(1, write_and_fence(sim.proc(1), y, v1));
  };
}

/// Drives p until it is done and drained.
void run_to_completion(Simulator& sim, ProcId p) {
  while (true) {
    const tso::Proc& proc = sim.proc(p);
    if (!proc.done() && proc.has_pending()) {
      sim.deliver(p);
    } else if (!proc.buffer().empty()) {
      sim.commit(p);
    } else {
      return;
    }
  }
}

TEST(Fingerprint, InterleavingOrderDoesNotMatterStateDoes) {
  const auto build = two_writers();
  Simulator a(2, {}), b(2, {});
  build(a);
  build(b);
  run_to_completion(a, 0);
  run_to_completion(a, 1);
  run_to_completion(b, 1);
  run_to_completion(b, 0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint())
      << "independent events reordered must reach the same fingerprint";

  // A genuinely different state (different committed value) must differ.
  const auto build2 = two_writers(1, 2);
  Simulator c(2, {});
  build2(c);
  run_to_completion(c, 0);
  run_to_completion(c, 1);
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  // The scheduler's current process is part of the key.
  EXPECT_NE(a.fingerprint(0), a.fingerprint(1));
}

TEST(Fingerprint, MidScheduleDivergentPathsToSameState) {
  // Both processes issue (buffer) their write; the issue steps commute, so
  // the two issue orders must fingerprint identically *mid-schedule* while
  // both buffers are still full.
  const auto build = two_writers();
  Simulator a(2, {}), b(2, {});
  build(a);
  build(b);
  ASSERT_TRUE(a.deliver(0));
  ASSERT_TRUE(a.deliver(1));
  ASSERT_TRUE(b.deliver(1));
  ASSERT_TRUE(b.deliver(0));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_FALSE(a.proc(0).buffer().empty()) << "writes must still be buffered";
}

TEST(Fingerprint, InstrumentationDoesNotLeakIntoTheFingerprint) {
  const Scenario* s = find_scenario("bakery-tso-2p");
  ASSERT_NE(s, nullptr);
  SimConfig bare = s->sim;
  bare.track_awareness = false;
  bare.track_costs = false;
  bare.record_trace = false;
  SimConfig full = s->sim;
  full.track_awareness = true;
  full.track_costs = true;
  full.record_trace = true;
  Simulator a(s->n_procs, bare), b(s->n_procs, full);
  s->build(a);
  s->build(b);
  run_to_completion(a, 0);
  run_to_completion(b, 0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint())
      << "observers and trace recording must not affect the machine state";
}

TEST(Fingerprint, SurvivesSnapshotRestore) {
  const Scenario* s = find_scenario("ticket-3p");
  ASSERT_NE(s, nullptr);
  auto sim = s->make_simulator();
  ASSERT_TRUE(sim->deliver(0));
  ASSERT_TRUE(sim->deliver(1));
  const tso::SimSnapshot snap = sim->snapshot();
  const Fingerprint before = sim->fingerprint(1);

  Simulator fresh(s->n_procs, s->sim);
  fresh.restore(snap, s->build);
  EXPECT_EQ(fresh.fingerprint(1), before);
}

TEST(Fingerprint, ProcessRenamingMapsSymmetricStatesOntoEachOther) {
  const Scenario* s = find_scenario("tas-2p");
  ASSERT_NE(s, nullptr);
  // One step by p0 in `a` vs. one step by p1 in `b`: the states are images
  // of each other under the swap renaming, so fingerprinting `a` *through*
  // the swap (current renamed too) must equal `b`'s identity fingerprint.
  auto a = s->make_simulator();
  auto b = s->make_simulator();
  ASSERT_TRUE(a->deliver(0));
  ASSERT_TRUE(b->deliver(1));
  const ProcId swap[] = {1, 0};
  EXPECT_EQ(a->fingerprint_oracle(0, swap), b->fingerprint(1));
  EXPECT_NE(a->fingerprint(0), b->fingerprint(1))
      << "without the renaming the states are distinct";
  // The canonical symmetry key quotients exactly that renaming away.
  EXPECT_EQ(a->fingerprint_symmetric(0), b->fingerprint_symmetric(1));
}

// ---- the ablation: dedup must not change any verdict ---------------------

bool same_schedule(const std::vector<Directive>& a,
                   const std::vector<Directive>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].kind != b[i].kind || a[i].proc != b[i].proc ||
        a[i].var != b[i].var)
      return false;
  return true;
}

ExplorerConfig ablation_config(const Scenario& s) {
  ExplorerConfig cfg;
  cfg.preemptions = s.n_procs >= 3 ? 1 : 2;
  // Crash–recovery scenarios are only meaningful under fault injection;
  // crash branching is wide, so drop a preemption to keep the scope small.
  if (s.name.find("recoverable") != std::string::npos) {
    cfg.max_crashes = 1;
    cfg.preemptions = 1;
  }
  return cfg;
}

TEST(DedupAblation, VerdictsAndWitnessesAreBitIdenticalOnEveryScenario) {
  for (const auto& s : runtime::scenario_registry()) {
    ExplorerConfig off = ablation_config(s);
    ExplorerConfig on = off;
    on.dedup = DedupMode::kState;
    const ExplorerResult a = s.explore(off);
    const ExplorerResult b = s.explore(on);
    EXPECT_EQ(a.verdict.found(), b.verdict.found()) << s.name;
    EXPECT_EQ(a.verdict.message, b.verdict.message) << s.name;
    EXPECT_TRUE(same_schedule(a.verdict.witness, b.verdict.witness)) << s.name;
    EXPECT_TRUE(same_schedule(a.verdict.raw_witness, b.verdict.raw_witness)) << s.name;
    EXPECT_EQ(a.exhausted, b.exhausted) << s.name;
    EXPECT_LE(b.schedules, a.schedules) << s.name;
    if (!a.verdict.found()) {
      // On safe scopes the whole tree is walked: pruning must have fired
      // somewhere, and the pruned run never explores *more*.
      EXPECT_GT(b.dedup_states, 0u) << s.name;
      EXPECT_LE(b.steps, a.steps) << s.name;
    }
    if (a.verdict.found()) {
      // The (identical) witness still replays to the violation.
      EXPECT_THROW((void)s.replay(b.verdict.witness), CheckFailure) << s.name;
    }
  }
}

TEST(DedupAblation, ParallelDedupMatchesSequentialDedup) {
  for (const char* name : {"bakery-none-2p", "bakery-tso-2p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr);
    ExplorerConfig cfg;
    cfg.preemptions = 2;
    cfg.dedup = DedupMode::kState;
    const ExplorerResult seq = s->explore(cfg);
    cfg.threads = 4;
    const ExplorerResult par = s->explore(cfg);
    EXPECT_EQ(seq.verdict.found(), par.verdict.found()) << name;
    EXPECT_EQ(seq.verdict.message, par.verdict.message) << name;
    EXPECT_TRUE(same_schedule(seq.verdict.witness, par.verdict.witness)) << name;
  }
}

TEST(DedupAblation, SymmetryCanonicalizationPrunesMoreNotDifferently) {
  const Scenario* s = find_scenario("ticket-3p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig off;
  off.preemptions = 1;
  ExplorerConfig dedup = off;
  dedup.dedup = DedupMode::kState;
  ExplorerConfig sym = dedup;
  sym.symmetric_processes = SymmetryMode::kCanonical;

  const ExplorerResult a = s->explore(off);
  const ExplorerResult b = s->explore(dedup);
  const ExplorerResult c = s->explore(sym);
  EXPECT_FALSE(a.verdict.found()) << a.verdict.message;
  EXPECT_FALSE(b.verdict.found()) << b.verdict.message;
  EXPECT_FALSE(c.verdict.found()) << c.verdict.message;
  EXPECT_TRUE(a.exhausted && b.exhausted && c.exhausted);
  EXPECT_LT(b.steps, a.steps) << "dedup must reduce executed events";
  EXPECT_LE(c.dedup_states, b.dedup_states)
      << "canonicalization merges orbit states, never splits them";
  EXPECT_LE(c.steps, b.steps);
}

// ---- rejected configuration combinations ---------------------------------

TEST(DedupRejections, HookAndUndeclaredSymmetryAreRejected) {
  const Scenario* s = find_scenario("bakery-tso-2p");
  ASSERT_NE(s, nullptr);

  ExplorerConfig hook;
  hook.dedup = DedupMode::kState;
  hook.on_complete = [](const Simulator&) {};
  EXPECT_THROW((void)s->explore(hook), CheckFailure);

  // Symmetry needs dedup (it only canonicalizes visited-set keys) ...
  ExplorerConfig no_dedup;
  no_dedup.symmetric_processes = SymmetryMode::kCanonical;
  EXPECT_THROW((void)s->explore(no_dedup), CheckFailure);

  // ... and a scenario that declares its processes interchangeable; the
  // bakery's pid tie-break makes it asymmetric, and Scenario::explore
  // rejects the request before the structural probe even runs.
  ExplorerConfig sym;
  sym.dedup = DedupMode::kState;
  sym.symmetric_processes = SymmetryMode::kCanonical;
  try {
    (void)s->explore(sym);
    FAIL() << "symmetry on an asymmetric scenario must be rejected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("does not declare symmetric"),
              std::string::npos)
        << e.what();
  }
}

TEST(DedupRejections, StructuralProbeCatchesVisiblyAsymmetricScenarios) {
  ExplorerConfig sym;
  sym.dedup = DedupMode::kState;
  sym.symmetric_processes = SymmetryMode::kCanonical;

  // Different first ops per process.
  const ScenarioBuilder skewed = [](Simulator& sim) {
    const VarId x = sim.alloc_var();
    sim.spawn(0, write_and_fence(sim.proc(0), x, 1));
    sim.spawn(1, write_and_fence(sim.proc(1), x, 2));
  };
  EXPECT_THROW((void)tso::explore(2, {}, skewed, sym), CheckFailure);

  // A DSM variable owned by one process breaks renaming invariance.
  const ScenarioBuilder dsm = [](Simulator& sim) {
    const VarId x = sim.alloc_var(0, /*owner=*/0);
    sim.spawn(0, write_and_fence(sim.proc(0), x, 1));
    sim.spawn(1, write_and_fence(sim.proc(1), x, 1));
  };
  EXPECT_THROW((void)tso::explore(2, {}, dsm, sym), CheckFailure);

  // Canonicalization sorts invariant signatures instead of enumerating the
  // n! renamings, so wide symmetric scopes are no longer capped: 7 identical
  // writers collapse to a handful of orbit states.
  const ScenarioBuilder wide = [](Simulator& sim) {
    const VarId x = sim.alloc_var();
    for (ProcId p = 0; p < 7; ++p)
      sim.spawn(p, write_and_fence(sim.proc(p), x, 1));
  };
  ExplorerConfig wide_cfg = sym;
  wide_cfg.preemptions = 1;
  const ExplorerResult wide_result = tso::explore(7, {}, wide, wide_cfg);
  EXPECT_FALSE(wide_result.verdict.found()) << wide_result.verdict.message;
  EXPECT_TRUE(wide_result.exhausted);
  EXPECT_GT(wide_result.dedup_hits, 0u);
}

// ---- unified result JSON -------------------------------------------------

TEST(RunStatsJson, ExplorerAndFuzzResultsShareTheRunStatsFields) {
  const Scenario* s = find_scenario("tas-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.dedup = DedupMode::kState;
  const std::string ej = s->explore(cfg).to_json();
  for (const char* key :
       {"\"schedules\":", "\"steps\":", "\"truncated\":", "\"deadline_hit\":",
        "\"dedup_hits\":", "\"dedup_states\":", "\"exhausted\":"})
    EXPECT_NE(ej.find(key), std::string::npos) << ej;

  tso::FuzzConfig fc;
  fc.runs = 5;
  const std::string fj = s->fuzz(fc).to_json();
  for (const char* key :
       {"\"schedules\":", "\"steps\":", "\"truncated\":", "\"deadline_hit\":",
        "\"schedule_digest\":", "\"violating_run\":"})
    EXPECT_NE(fj.find(key), std::string::npos) << fj;
}

}  // namespace
}  // namespace tpa

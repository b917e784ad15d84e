// Liveness verdicts on the state graph: fair-cycle (lasso) detection under
// LivenessMode::kCheck, starvation-freedom certification of fair locks,
// lasso-aware shrinking, and the liveness=off bit-identical ablation.
//
// The detector walks the same DFS the safety explorer does, keyed by the
// *progress* fingerprint (state minus op histories): a revisit of a key on
// the DFS stack closes a candidate cycle, which is verified by strict
// re-application and kept only if it is weakly fair — every process enabled
// at the cycle's entry is scheduled inside it. See docs/LIVENESS.md.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/visited.h"
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
using tso::LivenessMode;
using tso::OnStackMap;
using tso::VerdictKind;

ExplorerConfig liveness_config(int preemptions) {
  ExplorerConfig cfg;
  cfg.dedup = DedupMode::kState;
  cfg.liveness = LivenessMode::kCheck;
  cfg.preemptions = preemptions;
  return cfg;
}

void split_lasso(const std::vector<Directive>& all, std::size_t cycle_start,
                 std::vector<Directive>* stem, std::vector<Directive>* cycle) {
  const auto at = all.begin() + static_cast<std::ptrdiff_t>(cycle_start);
  stem->assign(all.begin(), at);
  cycle->assign(at, all.end());
}

// ---- detection ------------------------------------------------------------

TEST(Liveness, UnfairSpinLockHasAStarvationLasso) {
  const Scenario* s = find_scenario("tas-loop-2p");
  ASSERT_NE(s, nullptr);
  const ExplorerResult r = s->explore(liveness_config(4));
  ASSERT_TRUE(r.verdict.found());
  EXPECT_EQ(r.verdict.kind, VerdictKind::kStarvation);
  ASSERT_TRUE(r.verdict.is_lasso());
  EXPECT_NE(r.verdict.message.find("starves"), std::string::npos)
      << r.verdict.message;
  EXPECT_LT(r.verdict.cycle_start, r.verdict.witness.size());
  // Shrinking fired and helped: the raw lasso is kept for forensics.
  EXPECT_FALSE(r.verdict.raw_witness.empty());
  EXPECT_LT(r.verdict.witness.size(), r.verdict.raw_witness.size());

  // The shrunk lasso replays deterministically: the stem applies in full,
  // the cycle strictly re-applies and re-closes under the progress
  // fingerprint, and classification reproduces the verdict kind.
  std::vector<Directive> stem, cycle;
  split_lasso(r.verdict.witness, r.verdict.cycle_start, &stem, &cycle);
  const tso::LassoReplay lr =
      tso::replay_lasso(s->n_procs, s->sim, s->build, stem, cycle);
  EXPECT_TRUE(lr.closes);
  EXPECT_EQ(lr.kind, VerdictKind::kStarvation);
  EXPECT_EQ(lr.stem.size(), stem.size());
}

TEST(Liveness, ShrunkLassoIsLocallyMinimal) {
  const Scenario* s = find_scenario("tas-loop-2p");
  ASSERT_NE(s, nullptr);
  const ExplorerResult r = s->explore(liveness_config(4));
  ASSERT_TRUE(r.verdict.is_lasso());
  for (std::size_t i = 0; i < r.verdict.witness.size(); ++i) {
    std::vector<Directive> cand = r.verdict.witness;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    const std::size_t cs =
        r.verdict.cycle_start - (i < r.verdict.cycle_start ? 1 : 0);
    std::vector<Directive> stem, cycle;
    split_lasso(cand, cs, &stem, &cycle);
    const tso::LassoReplay lr =
        tso::replay_lasso(s->n_procs, s->sim, s->build, stem, cycle);
    EXPECT_FALSE(lr.closes && lr.kind == r.verdict.kind)
        << "directive " << i << " is removable — ddmin left slack";
  }
}

// Golden values recorded with a simulator built afresh for every lasso
// oracle call. shrink_lasso now restores one simulator in place, so a state
// leak between calls would move the witness, its cycle entry or the count.
TEST(Liveness, LassoShrinkMatchesGoldenValues) {
  const Scenario* s = find_scenario("tas-loop-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg = liveness_config(4);
  cfg.shrink = false;
  const ExplorerResult raw = s->explore(cfg);
  ASSERT_TRUE(raw.verdict.is_lasso());
  EXPECT_EQ(raw.verdict.witness.size(), 599u);
  EXPECT_EQ(raw.verdict.cycle_start, 39u);

  const tso::LassoShrinkOutcome shrunk =
      tso::shrink_lasso(s->n_procs, s->sim, s->build, raw.verdict.witness,
                        raw.verdict.cycle_start, raw.verdict.kind);
  EXPECT_EQ(shrunk.replays, 160u);
  EXPECT_EQ(shrunk.cycle_start, 28u);
  // Stem: p0 x25, p1 x3. Cycle: p1 x7, p0, p1 — p1 spins while p0 is
  // parked in Entry.
  const Directive p0{tso::ActionKind::kDeliver, 0, tso::kNoVar};
  const Directive p1{tso::ActionKind::kDeliver, 1, tso::kNoVar};
  std::vector<Directive> want(25, p0);
  want.insert(want.end(), 10, p1);
  want.push_back(p0);
  want.push_back(p1);
  ASSERT_EQ(shrunk.witness.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(shrunk.witness[i].kind, want[i].kind) << i;
    EXPECT_EQ(shrunk.witness[i].proc, want[i].proc) << i;
    EXPECT_EQ(shrunk.witness[i].var, want[i].var) << i;
  }
}

TEST(Liveness, SymmetryReductionStillFindsTheStarvationVerdict) {
  // Under canonical symmetry the cycle closes on the *orbit* of states, so
  // the verdict kind is reproduced even though the renamed lasso need not
  // re-close concretely (shrinking hands such witnesses back unchanged; the
  // corpus lasso is generated with symmetry off for exactly that reason).
  const Scenario* s = find_scenario("tas-loop-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg = liveness_config(4);
  cfg.symmetric_processes = tso::SymmetryMode::kCanonical;
  const ExplorerResult r = s->explore(cfg);
  ASSERT_TRUE(r.verdict.found());
  EXPECT_EQ(r.verdict.kind, VerdictKind::kStarvation);
  EXPECT_TRUE(r.verdict.is_lasso());
}

// ---- certification --------------------------------------------------------

TEST(Liveness, FairLocksCertifyStarvationFreeAtTwoProcesses) {
  // Renewable clients (>= 2 passages) are what make abstract states recur;
  // a certification over single-passage programs would be vacuous. Ticket
  // and tournament grant in arrival/bracket order, bakery in token order —
  // no fair cycle may starve anyone within this scope.
  struct Scope {
    const char* label;
    tso::ScenarioBuilder build;
  };
  const Scope scopes[] = {
      {"ticket-2p-x2", runtime::zoo_scenario("ticket", 2, 2)},
      {"tournament-2p-x2", runtime::zoo_scenario("tournament", 2, 2)},
      {"bakery-tso-2p-x2",
       runtime::bakery_scenario(2, algos::BakeryFencing::kTso, 2)},
  };
  for (const Scope& sc : scopes) {
    const ExplorerResult r =
        tso::explore(2, {}, sc.build, liveness_config(2));
    EXPECT_FALSE(r.verdict.found()) << sc.label << ": " << r.verdict.message;
    EXPECT_EQ(r.verdict.kind, VerdictKind::kClean) << sc.label;
  }
}

// ---- ablation -------------------------------------------------------------

TEST(Liveness, OffIsBitIdenticalAndOnOnlyAddsLivenessVerdicts) {
  // Registry-wide: with the checker off nothing changes at all, and turning
  // it on never perturbs a clean exploration's schedule enumeration — it
  // can only add a liveness verdict (tas-loop-2p). steps/snapshots are
  // deliberately not compared when a verdict is found: cycle verification
  // re-applies events through the counted simulator.
  for (const auto& s : runtime::scenario_registry()) {
    ExplorerConfig off;
    off.dedup = DedupMode::kState;
    off.preemptions = s.n_procs >= 3 ? 1 : 2;
    if (s.needs_crashes) off.max_crashes = 1;
    ExplorerConfig on = off;
    on.liveness = LivenessMode::kCheck;
    const ExplorerResult a = s.explore(off);
    const ExplorerResult b = s.explore(on);
    EXPECT_EQ(a.verdict.kind == VerdictKind::kClean ||
                  a.verdict.kind == VerdictKind::kSafety,
              true)
        << s.name << ": liveness off can only see safety";
    if (b.verdict.kind == VerdictKind::kClean ||
        b.verdict.kind == VerdictKind::kSafety) {
      EXPECT_EQ(a.verdict.kind, b.verdict.kind) << s.name;
      EXPECT_EQ(a.verdict.message, b.verdict.message) << s.name;
      EXPECT_EQ(a.schedules, b.schedules) << s.name;
      EXPECT_EQ(a.truncated, b.truncated) << s.name;
      EXPECT_EQ(a.verdict.witness.size(), b.verdict.witness.size()) << s.name;
    } else {
      // A liveness verdict may legitimately preempt a safety violation
      // that lies later in DFS order: on recoverable-nofence-2p under
      // crashes, the post-crash spin on the corrupted lock is a genuine
      // one-step starvation self-loop the DFS reaches first.
      EXPECT_TRUE(b.verdict.kind == VerdictKind::kStarvation ||
                  b.verdict.kind == VerdictKind::kLivelock ||
                  b.verdict.kind == VerdictKind::kDeadlock)
          << s.name;
    }
  }
}

// ---- preconditions and the replay oracle ----------------------------------

TEST(Liveness, RequiresStateDedupAndSingleThread) {
  const Scenario* s = find_scenario("tas-loop-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig no_dedup;
  no_dedup.liveness = LivenessMode::kCheck;
  EXPECT_THROW((void)s->explore(no_dedup), CheckFailure);
  ExplorerConfig threaded = liveness_config(2);
  threaded.threads = 4;
  EXPECT_THROW((void)s->explore(threaded), CheckFailure);
}

TEST(Liveness, LassoReplayRejectsEmptyOrNonClosingCycles) {
  const Scenario* s = find_scenario("tas-loop-2p");
  ASSERT_NE(s, nullptr);
  // An empty cycle can never close.
  EXPECT_FALSE(tso::replay_lasso(s->n_procs, s->sim, s->build, {}, {}).closes);
  // A single step out of the initial state changes the progress state (the
  // scheduled process picks up or retires an operation), so it cannot close.
  const tso::LassoReplay r = tso::replay_lasso(
      s->n_procs, s->sim, s->build, {}, {{tso::ActionKind::kDeliver, 0}});
  EXPECT_FALSE(r.closes);
}

TEST(Liveness, OnStackMapKeepsNearestAncestorAndRestoresOnPop) {
  OnStackMap m;
  const Fingerprint a{1, 2}, b{3, 4};
  EXPECT_EQ(m.find(a), OnStackMap::kNotOnStack);
  EXPECT_EQ(m.push(a, 5), OnStackMap::kNotOnStack);
  EXPECT_EQ(m.push(b, 6), OnStackMap::kNotOnStack);
  EXPECT_EQ(m.find(a), 5u);
  // A deeper occurrence displaces — nearest-ancestor semantics — and pop
  // restores the shallower binding.
  EXPECT_EQ(m.push(a, 9), 5u);
  EXPECT_EQ(m.find(a), 9u);
  m.pop(a, 5);
  EXPECT_EQ(m.find(a), 5u);
  m.pop(a, OnStackMap::kNotOnStack);
  EXPECT_EQ(m.find(a), OnStackMap::kNotOnStack);
  EXPECT_EQ(m.find(b), 6u);
  EXPECT_EQ(m.size(), 1u);
  // Survives growth across many keys (forces at least one rehash).
  for (std::uint64_t i = 0; i < 3000; ++i)
    m.push(Fingerprint{i * 0x9e37ULL + 7, i}, i);
  for (std::uint64_t i = 0; i < 3000; ++i)
    EXPECT_EQ(m.find(Fingerprint{i * 0x9e37ULL + 7, i}), i) << i;
  EXPECT_EQ(m.find(b), 6u);
}

}  // namespace
}  // namespace tpa

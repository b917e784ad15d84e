// Differential tests for the incrementally maintained state fingerprint
// (tso/sim.h): after every applied directive — deliver, commit, crash,
// recover — the O(1)-maintained fingerprint must equal the full re-walk
// oracle, on every registry scenario and on randomized seeded schedules;
// snapshot()/restore() must round-trip the incremental state exactly; and
// the near-linear canonical symmetry key must be invariant under process
// renaming and induce exactly the same state partition as the old
// min-over-all-n!-renamings key on small scopes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scenario.h"
#include "tso/sim.h"
#include "util/check.h"

namespace tpa {
namespace {

using runtime::Scenario;
using runtime::find_scenario;
using runtime::scenario_registry;
using tso::ActionKind;
using tso::Directive;
using tso::Fingerprint;
using tso::ProcId;
using tso::Simulator;
using tso::kNoProc;

/// Total order for std::map keys (Fingerprint itself only defines ==).
using FpKey = std::pair<std::uint64_t, std::uint64_t>;
FpKey fp_key(const Fingerprint& f) { return {f.hi, f.lo}; }

/// The incremental fingerprint must match the from-scratch oracle for every
/// choice of current process (and for no current process at all).
void expect_matches_oracle(const Simulator& sim, const std::string& context) {
  ASSERT_EQ(sim.fingerprint(), sim.fingerprint_oracle()) << context;
  for (std::size_t p = 0; p < sim.num_procs(); ++p) {
    const auto pid = static_cast<ProcId>(p);
    ASSERT_EQ(sim.fingerprint(pid), sim.fingerprint_oracle(pid))
        << context << " (current=p" << p << ")";
  }
}

/// All directives the adversary could apply right now, in a stable order.
/// `crashes` gates fault injection so crash-free scenarios are also driven
/// through pure schedules.
std::vector<Directive> possible_directives(const Simulator& sim,
                                           bool crashes) {
  std::vector<Directive> out;
  for (std::size_t p = 0; p < sim.num_procs(); ++p) {
    const auto pid = static_cast<ProcId>(p);
    const tso::Proc& proc = sim.proc(pid);
    if (proc.crashed()) {
      if (sim.has_recovery(pid)) out.push_back({ActionKind::kRecover, pid});
    } else if (!proc.done() && proc.has_pending()) {
      out.push_back({ActionKind::kDeliver, pid});
    }
    if (!proc.crashed() && !proc.buffer().empty())
      out.push_back({ActionKind::kCommit, pid, tso::kNoVar});
    if (crashes && sim.can_crash(pid))
      out.push_back({ActionKind::kCrash, pid});
  }
  return out;
}

/// Drives `sim` through a seeded random schedule, checking the incremental
/// fingerprint against the oracle after every single applied directive.
void drive_checked(Simulator& sim, std::uint64_t seed, std::size_t max_steps,
                   bool crashes, const std::string& context) {
  std::mt19937_64 rng(seed);
  expect_matches_oracle(sim, context + " (initial state)");
  for (std::size_t step = 0; step < max_steps; ++step) {
    std::vector<Directive> cand = possible_directives(sim, crashes);
    if (cand.empty()) break;
    const Directive d =
        cand[std::uniform_int_distribution<std::size_t>(0, cand.size() - 1)(
            rng)];
    bool applied = false;
    try {
      applied = sim.apply(d);
    } catch (const CheckFailure&) {
      // Intentionally violating registry scenarios throw from their safety
      // observer when the random schedule reaches the bug; the differential
      // check held for every step up to that point, so stop here.
      return;
    }
    ASSERT_TRUE(applied) << context << " step " << step;
    expect_matches_oracle(sim, context + " step " + std::to_string(step));
  }
}

// ---- incremental vs full-re-walk oracle ----------------------------------

TEST(FingerprintDifferential, MatchesOracleOnEveryRegistryScenario) {
  for (const Scenario& s : scenario_registry()) {
    auto sim = s.make_simulator();
    // Crash directives are injected everywhere they are legal — including
    // fail-stop crashes of scenarios without recovery sections.
    drive_checked(*sim, /*seed=*/0x5eed0000 + s.n_procs, /*max_steps=*/250,
                  /*crashes=*/true, s.name);
  }
}

TEST(FingerprintDifferential, MatchesOracleAcrossRandomSeeds) {
  for (const char* name : {"ticket-3p", "recoverable-2p", "bakery-tso-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
      auto sim = s->make_simulator();
      drive_checked(*sim, seed, /*max_steps=*/200, /*crashes=*/true,
                    std::string(name) + " seed " + std::to_string(seed));
    }
  }
}

TEST(FingerprintDifferential, AuditModeCrossChecksEveryCall) {
  const Scenario* s = find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  tso::SimConfig cfg = s->sim;
  cfg.fingerprint = tso::FingerprintMode::kAudit;
  Simulator sim(s->n_procs, cfg);
  s->build(sim);
  std::mt19937_64 rng(7);
  for (std::size_t step = 0; step < 150; ++step) {
    std::vector<Directive> cand = possible_directives(sim, /*crashes=*/true);
    if (cand.empty()) break;
    ASSERT_TRUE(sim.apply(cand[std::uniform_int_distribution<std::size_t>(
        0, cand.size() - 1)(rng)]));
    // In audit mode every fingerprint() call TPA_CHECKs itself against the
    // oracle; a divergence would throw CheckFailure here.
    (void)sim.fingerprint(cand.front().proc);
  }
}

// ---- snapshot / restore round-trips --------------------------------------

TEST(FingerprintDifferential, SnapshotRestoreRoundTripsIncrementalState) {
  for (const char* name : {"ticket-3p", "recoverable-2p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    auto sim = s->make_simulator();
    std::mt19937_64 rng(99);
    for (std::size_t step = 0; step < 60; ++step) {
      std::vector<Directive> cand =
          possible_directives(*sim, /*crashes=*/true);
      if (cand.empty()) break;
      ASSERT_TRUE(sim->apply(cand[std::uniform_int_distribution<std::size_t>(
          0, cand.size() - 1)(rng)]));
      if (step % 10 != 9) continue;

      const tso::SimSnapshot snap = sim->snapshot();
      const Fingerprint before = sim->fingerprint();
      Simulator fresh(s->n_procs, s->sim);
      fresh.restore(snap, s->build);
      ASSERT_EQ(fresh.fingerprint(), before) << name << " step " << step;
      expect_matches_oracle(
          fresh, std::string(name) + " restored at step " +
                     std::to_string(step));

      // The restored simulator's *incremental* state must keep tracking
      // exactly: step both sims in lockstep and compare again.
      std::vector<Directive> next =
          possible_directives(*sim, /*crashes=*/false);
      if (!next.empty()) {
        ASSERT_TRUE(sim->apply(next.front()));
        ASSERT_TRUE(fresh.apply(next.front()));
        ASSERT_EQ(fresh.fingerprint(), sim->fingerprint())
            << name << " diverged one step after restore";
        expect_matches_oracle(fresh, std::string(name) + " post-restore step");
      }
    }
  }
}

/// Applies one seeded random directive (crash/recover included when
/// `crashes`); false when nothing can act or the step raised a safety
/// violation (the simulator is then left mid-event, as a violating schedule
/// leaves it).
bool random_step(Simulator& sim, std::mt19937_64& rng, bool crashes = true) {
  std::vector<Directive> cand = possible_directives(sim, crashes);
  if (cand.empty()) return false;
  const Directive d =
      cand[std::uniform_int_distribution<std::size_t>(0, cand.size() - 1)(
          rng)];
  try {
    return sim.apply(d);
  } catch (const CheckFailure&) {
    return false;
  }
}

/// Per-process state the diverging walk is meant to disturb.
bool same_process_flags(const Simulator& a, const tso::SimSnapshot& snap) {
  for (std::size_t p = 0; p < a.num_procs(); ++p) {
    const tso::Proc& proc = a.proc(static_cast<ProcId>(p));
    const tso::SimSnapshot::ProcState& ps = snap.procs[p];
    if (proc.done() != ps.done || proc.crashed() != ps.crashed ||
        proc.incarnations() != ps.incarnations ||
        proc.buffer().size() != ps.buffer.size())
      return false;
  }
  return true;
}

TEST(FingerprintDifferential, InPlaceRestoreOntoADivergedSimulator) {
  // The explorer restores every sibling branch into its one simulator, which
  // the previous sibling's subtree has driven anywhere: other incarnations,
  // other crashed and done flags, other buffers, possibly a raised violation.
  // Restoring in place must land on exactly the state a fresh simulator
  // revives to.
  std::size_t disturbed = 0;
  for (const Scenario& s : scenario_registry()) {
    const std::uint64_t seed = 0xd1ff0000 + s.n_procs;
    auto sim = s.make_simulator();
    // Crash/recover only where the scenario has recovery sections: a
    // fail-stop crash ends a process for good, so random crashes would end
    // every other walk within a few steps.
    const bool crashes = sim->has_recovery(0);
    // Walk a scratch simulator first to find a prefix that raises nothing,
    // then stop the real walk one step short of any violation.
    std::size_t safe = 0;
    {
      auto probe = s.make_simulator();
      std::mt19937_64 rng(seed);
      while (safe < 25 && random_step(*probe, rng, crashes)) ++safe;
    }
    std::mt19937_64 rng(seed);
    for (std::size_t k = 0; k < safe; ++k)
      ASSERT_TRUE(random_step(*sim, rng, crashes)) << s.name;
    const tso::SimSnapshot snap = sim->snapshot();
    const Fingerprint full = sim->fingerprint();
    const Fingerprint progress = sim->fingerprint_progress();

    // Diverge the same simulator down a different seeded schedule: crashes
    // and recoveries first, then crash-free until every process is done and
    // drained or a violation is raised mid-event.
    std::mt19937_64 other(seed ^ 0xabcdef);
    std::size_t diverged = 0;
    bool live = true;
    while (live && diverged < 30) {
      live = random_step(*sim, other, crashes);
      diverged += live ? 1 : 0;
    }
    while (live && diverged < 3000) {
      live = random_step(*sim, other, /*crashes=*/false);
      diverged += live ? 1 : 0;
    }
    if (diverged > 0) {
      EXPECT_NE(sim->fingerprint(), full) << s.name;
    }
    disturbed += same_process_flags(*sim, snap) ? 0 : 1;

    sim->restore(snap, s.build);
    EXPECT_EQ(sim->fingerprint(), sim->fingerprint_oracle()) << s.name;
    EXPECT_EQ(sim->fingerprint(), full) << s.name;
    EXPECT_EQ(sim->fingerprint_progress(), sim->fingerprint_progress_oracle())
        << s.name;
    EXPECT_EQ(sim->fingerprint_progress(), progress) << s.name;
    expect_matches_oracle(*sim, s.name + " restored in place");

    // The tail from here must match a fresh simulator's revive step by
    // step, violations included.
    Simulator fresh(s.n_procs, s.sim);
    fresh.restore(snap, s.build);
    std::mt19937_64 tail(seed + 1);
    for (std::size_t step = 0; step < 200; ++step) {
      std::vector<Directive> cand = possible_directives(*sim, crashes);
      ASSERT_EQ(cand.size(), possible_directives(fresh, crashes).size())
          << s.name << " tail step " << step;
      if (cand.empty()) break;
      const Directive d = cand[std::uniform_int_distribution<std::size_t>(
          0, cand.size() - 1)(tail)];
      bool raised_in_place = false, raised_fresh = false;
      try {
        ASSERT_TRUE(sim->apply(d));
      } catch (const CheckFailure&) {
        raised_in_place = true;
      }
      try {
        ASSERT_TRUE(fresh.apply(d));
      } catch (const CheckFailure&) {
        raised_fresh = true;
      }
      ASSERT_EQ(raised_in_place, raised_fresh)
          << s.name << " tail step " << step;
      if (raised_in_place) break;
      ASSERT_EQ(sim->fingerprint(), fresh.fingerprint())
          << s.name << " tail step " << step;
      ASSERT_EQ(sim->fingerprint(), sim->fingerprint_oracle())
          << s.name << " tail step " << step;
    }
  }
  EXPECT_GE(disturbed, scenario_registry().size() / 2)
      << "too few diverging walks changed a done or crashed flag, an "
         "incarnation or a buffer";
}

/// True when the step just applied was a read that left the reader's
/// labelled lane at `lane`, its value before the step: a spin loop came back
/// to the location it declares with Proc::at (tso/proc.h).
bool spun(const Simulator& sim, ProcId reader, std::uint64_t lane) {
  return sim.execution().events.back().kind == tso::EventKind::kRead &&
         sim.proc(reader).op_history_hash() == lane;
}

TEST(FingerprintDifferential, LabelledLaneSurvivesRestoreAndFastForward) {
  // A label is state no op-result stream can recompute, so the snapshot
  // carries the lane: restore() must reinstate it, kept frame or respawned,
  // and a respawned frame that replays its at() calls while being fed its
  // owed results must not overwrite it.
  for (const char* name : {"bakery-tso-3p", "ticket-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    auto sim = s->make_simulator();
    std::vector<Directive> prefix;
    std::mt19937_64 rng(31);
    std::size_t checked = 0, mid_spin = 0;
    // Mid-spin: the last step was a read, yet the reader's lane is back
    // where it was — a spin loop re-declared its location.
    bool spinning = false;
    for (std::size_t step = 0; step < 400 && checked < 40; ++step) {
      if (spinning || checked > 0) {
        const std::string at = std::string(name) + " snapshot at step " +
                               std::to_string(step);
        ++checked;
        mid_spin += spinning ? 1 : 0;
        const tso::SimSnapshot snap = sim->snapshot();
        const Fingerprint key = sim->fingerprint();
        // The reference reaches the same state by replay alone: no restore.
        auto ref = s->make_simulator();
        for (const Directive& d : prefix) ASSERT_TRUE(ref->apply(d)) << at;
        ASSERT_EQ(ref->fingerprint(), key) << at;

        // Diverge down another schedule, then restore in place.
        std::mt19937_64 other(step);
        for (std::size_t k = 0; k < 60; ++k)
          if (!random_step(*sim, other, /*crashes=*/false)) break;
        sim->restore(snap, s->build);
        ASSERT_EQ(sim->fingerprint(), key) << at;
        ASSERT_EQ(sim->fingerprint(), sim->fingerprint_oracle()) << at;

        // Step every process once — the respawned ones are fed their owed
        // results first — then a seeded tail, comparing after every event.
        std::mt19937_64 tail(step + 1000);
        for (std::size_t k = 0; k < s->n_procs + 20; ++k) {
          std::vector<Directive> cand = possible_directives(*sim, false);
          if (cand.empty()) break;
          Directive d{ActionKind::kDeliver, static_cast<ProcId>(k)};
          if (k >= s->n_procs || !sim->proc(d.proc).has_pending())
            d = cand[std::uniform_int_distribution<std::size_t>(
                0, cand.size() - 1)(tail)];
          ASSERT_TRUE(sim->apply(d)) << at;
          ASSERT_TRUE(ref->apply(d)) << at;
          ASSERT_EQ(sim->fingerprint(), sim->fingerprint_oracle()) << at;
          ASSERT_EQ(sim->fingerprint(), ref->fingerprint())
              << at << ", restored step " << k;
        }
        sim->restore(snap, s->build);
        ASSERT_EQ(sim->fingerprint(), key) << at;
      }
      std::vector<Directive> cand = possible_directives(*sim, false);
      if (cand.empty()) break;
      const Directive d = cand[std::uniform_int_distribution<std::size_t>(
          0, cand.size() - 1)(rng)];
      const std::uint64_t lane = sim->proc(d.proc).op_history_hash();
      ASSERT_TRUE(sim->apply(d)) << name;
      spinning = spun(*sim, d.proc, lane);
      prefix.push_back(d);
    }
    EXPECT_GT(mid_spin, 0u) << name << ": the walk never came back to a "
                                       "declared location";
  }
}

TEST(FingerprintDifferential, SnapshotIntoRecyclesBuffersExactly) {
  const Scenario* s = find_scenario("ticket-3p");
  ASSERT_NE(s, nullptr);
  auto a = s->make_simulator();
  auto b = s->make_simulator();
  ASSERT_TRUE(a->deliver(0));
  ASSERT_TRUE(a->deliver(1));
  ASSERT_TRUE(b->deliver(2));

  // One snapshot object, reused across states: the second snapshot_into
  // must fully overwrite the first (recycled capacity, identical contents).
  tso::SimSnapshot snap;
  a->snapshot_into(snap);
  b->snapshot_into(snap);
  Simulator fresh(s->n_procs, s->sim);
  fresh.restore(snap, s->build);
  EXPECT_EQ(fresh.fingerprint(), b->fingerprint());
  EXPECT_NE(fresh.fingerprint(), a->fingerprint());
}

// ---- symmetry canonicalization -------------------------------------------

/// The old symmetry key: minimize the (oracle) fingerprint over all n!
/// renamings. Cheap enough to enumerate on the 2p/3p scopes the test uses.
Fingerprint min_over_renamings(const Simulator& sim, ProcId current) {
  std::vector<ProcId> perm(sim.num_procs());
  std::iota(perm.begin(), perm.end(), 0);
  Fingerprint best = sim.fingerprint_oracle(current);
  while (std::next_permutation(perm.begin(), perm.end())) {
    const Fingerprint f = sim.fingerprint_oracle(current, perm.data());
    if (fp_key(f) < fp_key(best)) best = f;
  }
  return best;
}

TEST(SymmetryCanonicalization, InvariantUnderRandomProcessPermutations) {
  for (const char* name : {"tas-2p", "ticket-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_TRUE(s->symmetric) << name;

    std::vector<ProcId> perm(s->n_procs);
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 rng(1234);
    // Walks run until every process is done, through the ticket lock's
    // labelled spin states: a label or local that names the process would
    // give renamed states different blobs.
    std::size_t spins = 0;
    for (int round = 0; round < 12; ++round) {
      std::shuffle(perm.begin(), perm.end(), rng);
      // Drive a random schedule S on `a` and its renamed image perm(S) on
      // `b`; b's state is then the perm-image of a's state, so the
      // canonical keys must agree at every step, for renamed currents.
      auto a = s->make_simulator();
      auto b = s->make_simulator();
      std::mt19937_64 sched(round * 7919 + 1);
      for (std::size_t step = 0; step < 400; ++step) {
        std::vector<Directive> cand =
            possible_directives(*a, /*crashes=*/false);
        if (cand.empty()) break;
        const Directive d = cand[std::uniform_int_distribution<std::size_t>(
            0, cand.size() - 1)(sched)];
        const Directive renamed{
            d.kind, perm[static_cast<std::size_t>(d.proc)], d.var};
        const std::uint64_t lane = a->proc(d.proc).op_history_hash();
        ASSERT_TRUE(a->apply(d)) << name;
        ASSERT_TRUE(b->apply(renamed)) << name;
        spins += spun(*a, d.proc, lane) ? 1 : 0;
        ASSERT_EQ(a->fingerprint_symmetric(d.proc),
                  b->fingerprint_symmetric(renamed.proc))
            << name << " round " << round << " step " << step;
        // And the renaming lemma for the oracle itself: fingerprinting a
        // *through* perm equals b's identity fingerprint.
        ASSERT_EQ(a->fingerprint_oracle(d.proc, perm.data()),
                  b->fingerprint(renamed.proc))
            << name << " round " << round << " step " << step;
      }
    }
    if (std::string(name) == "ticket-3p") {
      EXPECT_GT(spins, 0u) << name;
    }
  }
}

TEST(SymmetryCanonicalization, InducesSamePartitionAsMinOverAllRenamings) {
  // The canonical-order key is not numerically equal to the old
  // min-over-n! key (they canonicalize to different representatives), but
  // both must merge exactly the same states: the maps between them must be
  // one-to-one over every state either schedule family reaches.
  for (const char* name : {"tas-2p", "ticket-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    std::map<FpKey, std::set<FpKey>> new_to_old;
    std::map<FpKey, std::set<FpKey>> old_to_new;

    std::vector<ProcId> perm(s->n_procs);
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 rng(5150);
    for (int round = 0; round < 10; ++round) {
      std::shuffle(perm.begin(), perm.end(), rng);
      auto sim = s->make_simulator();
      std::mt19937_64 sched(round * 104729 + 3);
      for (std::size_t step = 0; step < 50; ++step) {
        std::vector<Directive> cand =
            possible_directives(*sim, /*crashes=*/false);
        if (cand.empty()) break;
        const Directive d = cand[std::uniform_int_distribution<std::size_t>(
            0, cand.size() - 1)(sched)];
        ASSERT_TRUE(sim->apply(d));
        const FpKey nk = fp_key(sim->fingerprint_symmetric(d.proc));
        const FpKey ok = fp_key(min_over_renamings(*sim, d.proc));
        new_to_old[nk].insert(ok);
        old_to_new[ok].insert(nk);
      }
    }
    for (const auto& [nk, olds] : new_to_old)
      EXPECT_EQ(olds.size(), 1u)
          << name << ": one canonical key maps to " << olds.size()
          << " min-over-n! keys — the new key merges states the old one "
             "distinguishes";
    for (const auto& [ok, news] : old_to_new)
      EXPECT_EQ(news.size(), 1u)
          << name << ": one min-over-n! key maps to " << news.size()
          << " canonical keys — the new key splits states the old one "
             "merges";
  }
}

TEST(SymmetryCanonicalization, IdentityOnAsymmetricStatesIsStillAFingerprint) {
  // Even on states with fully distinct per-process signatures the symmetric
  // key must be a *function of the orbit*: equal states get equal keys.
  const Scenario* s = find_scenario("ticket-3p");
  ASSERT_NE(s, nullptr);
  auto a = s->make_simulator();
  auto b = s->make_simulator();
  for (ProcId p : {0, 0, 1, 2, 1}) {
    ASSERT_TRUE(a->deliver(p));
    ASSERT_TRUE(b->deliver(p));
  }
  EXPECT_EQ(a->fingerprint_symmetric(1), b->fingerprint_symmetric(1));
  EXPECT_NE(fp_key(a->fingerprint_symmetric(1)),
            fp_key(a->fingerprint_symmetric(2)))
      << "the scheduler's current process must stay part of the key";
}

}  // namespace
}  // namespace tpa

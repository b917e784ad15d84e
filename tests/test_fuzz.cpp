// Schedule fuzzing: seeded determinism, counterexample shrinking to local
// minimality, witness serialization round-trips, and the fuzzer rediscovering
// the fence-free bakery violation (and, under PSO, breaking the TSO-correct
// fence placement — beyond the exhaustive explorer's reach, which never
// reorders commits).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "trace/format.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/schedule.h"
#include "util/check.h"

namespace tpa {
namespace {

using runtime::find_scenario;
using tso::Directive;
using tso::FuzzConfig;
using tso::FuzzResult;
using tso::LenientReplay;
using tso::ShrinkOutcome;

const runtime::Scenario& scenario(const char* name) {
  const auto* s = find_scenario(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

// FNV-1a over (kind, proc, var) of each directive, the fold fuzz() uses for
// its schedule digest (without the run separator).
std::uint64_t witness_digest(const std::vector<Directive>& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const Directive& d : w) {
    mix(static_cast<std::uint64_t>(d.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.proc)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.var)));
  }
  return h;
}

TEST(Fuzz, SeededFuzzIsDeterministic) {
  const auto& s = scenario("bakery-tso-2p");
  FuzzConfig cfg;
  cfg.seed = 42;
  cfg.runs = 40;
  const FuzzResult a = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  const FuzzResult b = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  EXPECT_FALSE(a.verdict.found()) << a.verdict.message;
  EXPECT_EQ(a.schedules, 40u);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest)
      << "same seed must explore byte-identical schedules";

  cfg.seed = 43;
  const FuzzResult c = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  EXPECT_NE(a.schedule_digest, c.schedule_digest)
      << "different seeds should explore different schedules";
}

// One fuzz pass (runs = 3000, other fields default, crash_prob = 0.02 on
// seed 3) and, for a violation, the shrink of its raw witness.
struct GoldenPass {
  const char* scenario;
  std::uint64_t seed;
  std::uint64_t schedule_digest;
  std::uint64_t schedules;
  std::uint64_t steps;
  std::uint64_t truncated;
  std::uint64_t violating_run;
  std::size_t raw_len;
  std::uint64_t raw_digest;
  std::size_t witness_len;
  std::uint64_t witness_digest;
  std::uint64_t shrink_replays;
  const char* violation;  ///< tail of the verdict message, "" when clean
};

constexpr std::uint64_t kEmpty = 0xcbf29ce484222325ULL;

// Recorded with a simulator built afresh for every fuzz run and every shrink
// replay. The fuzzer and the shrinkers now recycle one simulator; state
// leaking from one run into the next would be just as deterministic, so
// only pinned values — not two runs of one build — can catch it.
const GoldenPass kGolden[] = {
    {"bakery-tso-3p", 1, 0x8de809bcfcb3ee85ULL, 3000, 299195, 0, 0, 0, kEmpty,
     0, kEmpty, 0, ""},
    {"bakery-tso-3p", 2, 0x6c9b9017878e1f54ULL, 3000, 298551, 0, 0, 0, kEmpty,
     0, kEmpty, 0, ""},
    {"bakery-tso-3p", 3, 0xaf752d36e045f47bULL, 3000, 2529886, 581, 0, 0,
     kEmpty, 0, kEmpty, 0, ""},
    {"ticket-3p", 1, 0x8bc1681fbe52e50fULL, 3000, 147464, 0, 0, 0, kEmpty, 0,
     kEmpty, 0, ""},
    {"ticket-3p", 2, 0x888418e6ef8e848aULL, 3000, 147014, 0, 0, 0, kEmpty, 0,
     kEmpty, 0, ""},
    {"ticket-3p", 3, 0x914bcdc6700defdeULL, 3000, 604231, 117, 0, 0, kEmpty, 0,
     kEmpty, 0, ""},
    {"mcs-2p", 1, 0x0d8f9914d2564998ULL, 3000, 100055, 0, 0, 0, kEmpty, 0,
     kEmpty, 0, ""},
    {"mcs-2p", 2, 0x04f22bde020597e5ULL, 3000, 99824, 0, 0, 0, kEmpty, 0,
     kEmpty, 0, ""},
    {"mcs-2p", 3, 0x43b87ef931fe2db0ULL, 3000, 108136, 0, 0, 0, kEmpty, 0,
     kEmpty, 0, ""},
    {"recoverable-2p", 1, 0xae2a4196b117f023ULL, 3000, 118553, 0, 0, 0, kEmpty,
     0, kEmpty, 0, ""},
    {"recoverable-2p", 2, 0xedea96f1637f1157ULL, 3000, 119012, 0, 0, 0, kEmpty,
     0, kEmpty, 0, ""},
    {"recoverable-2p", 3, 0x5ed5a3c173b8c7f9ULL, 3000, 134939, 0, 0, 0, kEmpty,
     0, kEmpty, 0, ""},
    {"bakery-none-2p", 1, 0x9daee632def4c9bbULL, 2, 47, 0, 1, 16,
     0x2ea34e9f8c0e9b0bULL, 16, 0x2ea34e9f8c0e9b0bULL, 31, "p0 and p1"},
    {"bakery-none-2p", 2, 0x6809aba91d4f4393ULL, 60, 2048, 0, 59, 16,
     0xd60fcd681e19af7bULL, 16, 0xd60fcd681e19af7bULL, 31, "p1 and p0"},
    {"bakery-none-2p", 3, 0x00365de3089b887eULL, 8, 312, 0, 7, 16,
     0x3c05a3298564ee19ULL, 16, 0x3c05a3298564ee19ULL, 31, "p0 and p1"},
    {"bakery-none-3p", 1, 0xe6b857176a1152a6ULL, 5, 316, 0, 4, 32,
     0x2f5fbf994417c39cULL, 22, 0x5342f83db1db7bdcULL, 83, "p0 and p1"},
    {"bakery-none-3p", 2, 0x4fcf5b9c4e35671fULL, 4, 394, 0, 3, 32,
     0xf27eee95d6a31936ULL, 22, 0x0f866760e273e9caULL, 83, "p0 and p1"},
    {"bakery-none-3p", 3, 0x1456df91f154b337ULL, 3, 198, 0, 2, 29,
     0x8d1227e7bea65443ULL, 22, 0x32cc1c14a43d8e00ULL, 70, "p1 and p2"},
    {"bakery-tso-pso-2p", 1, 0xe64f37db64bab5a4ULL, 1961, 98273, 0, 1960, 30,
     0x2e4a0434bf5535e1ULL, 30, 0x2e4a0434bf5535e1ULL, 48, "p0 and p1"},
    {"bakery-tso-pso-2p", 2, 0xe22494bf94db5d1bULL, 3000, 151102, 0, 0, 0,
     kEmpty, 0, kEmpty, 0, ""},
    {"bakery-tso-pso-2p", 3, 0xa7acadc144797f2fULL, 3000, 160316, 0, 0, 0,
     kEmpty, 0, kEmpty, 0, ""},
    {"recoverable-nofence-2p", 1, 0x92474880b3999122ULL, 3000, 86094, 0, 0, 0,
     kEmpty, 0, kEmpty, 0, ""},
    {"recoverable-nofence-2p", 2, 0xae970ff22e86ec7cULL, 3000, 87430, 0, 0, 0,
     kEmpty, 0, kEmpty, 0, ""},
    {"recoverable-nofence-2p", 3, 0xceac22d64937c6e8ULL, 64, 6028, 1, 63, 13,
     0x811c8751c3fdf8a4ULL, 12, 0x84f852e5b3930b6bULL, 34, "p0 and p1"},
};

void expect_golden(const GoldenPass& g) {
  const auto& s = scenario(g.scenario);
  FuzzConfig cfg;
  cfg.seed = g.seed;
  cfg.runs = 3'000;
  if (g.seed == 3) cfg.crash_prob = 0.02;
  const std::string what =
      std::string(g.scenario) + " seed " + std::to_string(g.seed);
  const FuzzResult r = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  EXPECT_EQ(r.schedule_digest, g.schedule_digest) << what;
  EXPECT_EQ(r.schedules, g.schedules) << what;
  EXPECT_EQ(r.steps, g.steps) << what;
  EXPECT_EQ(r.truncated, g.truncated) << what;
  EXPECT_EQ(r.violating_run, g.violating_run) << what;
  EXPECT_EQ(r.verdict.raw_witness.size(), g.raw_len) << what;
  EXPECT_EQ(witness_digest(r.verdict.raw_witness), g.raw_digest) << what;
  EXPECT_EQ(r.verdict.witness.size(), g.witness_len) << what;
  EXPECT_EQ(witness_digest(r.verdict.witness), g.witness_digest) << what;
  if (g.raw_len == 0) {
    EXPECT_FALSE(r.verdict.found()) << what << ": " << r.verdict.message;
    return;
  }
  EXPECT_TRUE(r.verdict.message.ends_with(
      std::string("mutual exclusion violated: CS enabled for both ") +
      g.violation))
      << what << ": " << r.verdict.message;
  // The same shrink, called directly under the scenario's instrumentation.
  const ShrinkOutcome shrunk = tso::shrink_witness(
      s.n_procs, s.sim, s.build, r.verdict.raw_witness);
  EXPECT_EQ(shrunk.replays, g.shrink_replays) << what;
  EXPECT_EQ(witness_digest(shrunk.witness), g.witness_digest) << what;
  EXPECT_NE(shrunk.violation.find("mutual exclusion violated"),
            std::string::npos)
      << what << ": " << shrunk.violation;
}

TEST(Fuzz, PassesAndShrinksMatchGoldenValues) {
  for (const GoldenPass& g : kGolden) expect_golden(g);
}

// FuzzConfig::on_complete is an invariant over every complete run: a run
// that raises in it is a safety violation whose raw witness is that run's
// schedule, shrunk under the same hook. The hook here caps a bakery-tso-2p
// execution at 66 events, which schedules that spin long exceed.
TEST(Fuzz, CompletionHookFailureIsASafetyVerdict) {
  const auto& s = scenario("bakery-tso-2p");
  const tso::ScheduleHook short_run = [](const tso::Simulator& sim) {
    const std::size_t events = sim.execution().events.size();
    TPA_CHECK(events <= 66, "the execution took " << events << " events");
  };
  FuzzConfig cfg;
  cfg.seed = 5;
  cfg.runs = 2'000;
  cfg.on_complete = short_run;
  const FuzzResult r = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  ASSERT_TRUE(r.verdict.found()) << "the completion hook never failed";
  EXPECT_EQ(r.verdict.kind, tso::VerdictKind::kSafety);
  EXPECT_NE(r.verdict.message.find("the execution took"), std::string::npos)
      << r.verdict.message;
  EXPECT_EQ(r.schedules, r.violating_run + 1);
  EXPECT_GT(r.violating_run, 0u) << "want a hit on a restored simulator";

  // The raw witness is the whole violating run: it completes, and only the
  // hook rejects it.
  const LenientReplay raw =
      tso::replay_lenient(s.n_procs, s.sim, s.build, r.verdict.raw_witness);
  EXPECT_FALSE(raw.violated) << raw.violation;
  EXPECT_TRUE(raw.complete);
  EXPECT_EQ(raw.applied.size(), r.verdict.raw_witness.size());

  // The shrunk witness applies in full and reproduces under the hook.
  ASSERT_FALSE(r.verdict.witness.empty());
  EXPECT_LE(r.verdict.witness.size(), r.verdict.raw_witness.size());
  const LenientReplay shrunk = tso::replay_lenient(
      s.n_procs, s.sim, s.build, r.verdict.witness, short_run);
  EXPECT_TRUE(shrunk.violated);
  EXPECT_TRUE(shrunk.complete);
  EXPECT_EQ(shrunk.applied.size(), r.verdict.witness.size());
  EXPECT_NE(shrunk.violation.find("the execution took"), std::string::npos)
      << shrunk.violation;

  // The hook draws no randomness: a hook-free pass stopped after the same
  // number of runs explores the same schedules.
  FuzzConfig plain = cfg;
  plain.on_complete = {};
  plain.runs = r.schedules;
  const FuzzResult p = tso::fuzz(s.n_procs, s.sim, s.build, plain);
  EXPECT_FALSE(p.verdict.found()) << p.verdict.message;
  EXPECT_EQ(p.schedule_digest, r.schedule_digest);
}

TEST(Fuzz, FindsFenceFreeBakeryViolation) {
  const auto& s = scenario("bakery-none-2p");
  FuzzConfig cfg;
  cfg.seed = 7;
  cfg.runs = 500;
  const FuzzResult r = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  ASSERT_TRUE(r.verdict.found())
      << "randomized schedules hit the fence-free bakery quickly";
  EXPECT_NE(r.verdict.message.find("mutual exclusion violated"), std::string::npos)
      << r.verdict.message;
  ASSERT_FALSE(r.verdict.witness.empty());
  ASSERT_FALSE(r.verdict.raw_witness.empty());
  EXPECT_LE(r.verdict.witness.size(), r.verdict.raw_witness.size());

  // The shrunk witness replays strictly: every directive applies and the
  // violation reproduces.
  const LenientReplay replay =
      tso::replay_lenient(s.n_procs, s.sim, s.build, r.verdict.witness);
  EXPECT_TRUE(replay.violated) << "shrunk witness must still violate";
  EXPECT_EQ(replay.applied.size(), r.verdict.witness.size())
      << "every directive of a shrunk witness must apply";
  EXPECT_THROW(tso::replay(s.n_procs, s.sim, s.build, r.verdict.witness),
               CheckFailure);
}

TEST(Fuzz, ShrinkerProducesLocallyMinimalWitness) {
  const auto& s = scenario("bakery-none-2p");
  // Take a *raw* (unshrunk) fuzzer witness: random schedules drag slack
  // along, unlike the explorer's already-tight DFS witnesses. Seed 3's
  // violating run carries several removable directives.
  FuzzConfig fcfg;
  fcfg.seed = 3;
  fcfg.runs = 500;
  fcfg.shrink = false;
  const FuzzResult found = tso::fuzz(s.n_procs, s.sim, s.build, fcfg);
  ASSERT_TRUE(found.verdict.found());

  const ShrinkOutcome shrunk =
      tso::shrink_witness(s.n_procs, s.sim, s.build, found.verdict.witness);
  EXPECT_GT(shrunk.replays, 0u);
  ASSERT_FALSE(shrunk.witness.empty());
  EXPECT_LT(shrunk.witness.size(), found.verdict.witness.size())
      << "seed 3's raw witness carries removable slack";
  EXPECT_NE(shrunk.violation.find("mutual exclusion violated"),
            std::string::npos)
      << shrunk.violation;

  // Still violating...
  EXPECT_TRUE(
      tso::replay_lenient(s.n_procs, s.sim, s.build, shrunk.witness).violated);
  // ...and locally minimal: removing any single directive no longer does.
  for (std::size_t i = 0; i < shrunk.witness.size(); ++i) {
    std::vector<Directive> cand = shrunk.witness;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(tso::replay_lenient(s.n_procs, s.sim, s.build, cand).violated)
        << "witness is not 1-minimal: directive " << i << " is removable";
  }
}

TEST(Fuzz, ExplorerWitnessIsShrunkByDefault) {
  const auto& s = scenario("bakery-none-2p");
  tso::ExplorerConfig ecfg;
  ecfg.preemptions = 1;  // shrink defaults to on
  const auto r = tso::explore(s.n_procs, s.sim, s.build, ecfg);
  ASSERT_TRUE(r.verdict.found());
  ASSERT_FALSE(r.verdict.witness.empty());
  EXPECT_THROW(tso::replay(s.n_procs, s.sim, s.build, r.verdict.witness),
               CheckFailure);
  // The reported witness is locally minimal (here the DFS-first witness is
  // often already tight, in which case shrinking was a verified no-op and
  // raw_witness stays empty).
  if (!r.verdict.raw_witness.empty()) {
    EXPECT_LT(r.verdict.witness.size(), r.verdict.raw_witness.size());
  }
  for (std::size_t i = 0; i < r.verdict.witness.size(); ++i) {
    std::vector<Directive> cand = r.verdict.witness;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(tso::replay_lenient(s.n_procs, s.sim, s.build, cand).violated)
        << "explorer witness not 1-minimal at directive " << i;
  }
}

TEST(Fuzz, FindsPsoExploitAgainstTsoFencedBakery) {
  // The exhaustive explorer only ever commits buffer heads, so this
  // violation — which needs a write-write reordering — is fuzzer territory.
  const auto& s = scenario("bakery-tso-pso-2p");
  FuzzConfig cfg;
  cfg.seed = 11;
  cfg.runs = 3'000;
  const FuzzResult r = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  ASSERT_TRUE(r.verdict.found())
      << "PSO commit reordering breaks the TSO fence placement";
  EXPECT_NE(r.verdict.message.find("mutual exclusion violated"), std::string::npos)
      << r.verdict.message;
  // The witness must use an out-of-order commit (a named, non-head var) —
  // otherwise it would be a TSO schedule and the placement would be buggy.
  const LenientReplay replay =
      tso::replay_lenient(s.n_procs, s.sim, s.build, r.verdict.witness);
  EXPECT_TRUE(replay.violated);
}

TEST(Fuzz, WitnessRoundTripsThroughTextFormat) {
  trace::Witness w;
  w.scenario = "bakery-tso-pso-2p";
  w.n_procs = 2;
  w.pso = true;
  w.violation = "mutual exclusion violated: CS enabled for both p0 and p1";
  w.directives = {
      {tso::ActionKind::kDeliver, 0, tso::kNoVar},
      {tso::ActionKind::kCommit, 1, tso::kNoVar},
      {tso::ActionKind::kCommit, 1, 3},  // PSO: commit a named entry
      {tso::ActionKind::kDeliver, 1, tso::kNoVar},
  };
  const std::string text = trace::witness_to_string(w);
  const trace::Witness back = trace::witness_from_string(text);
  EXPECT_EQ(back.scenario, w.scenario);
  EXPECT_EQ(back.n_procs, w.n_procs);
  EXPECT_EQ(back.pso, w.pso);
  EXPECT_EQ(back.violation, w.violation);
  ASSERT_EQ(back.directives.size(), w.directives.size());
  for (std::size_t i = 0; i < w.directives.size(); ++i) {
    EXPECT_EQ(back.directives[i].kind, w.directives[i].kind) << i;
    EXPECT_EQ(back.directives[i].proc, w.directives[i].proc) << i;
    EXPECT_EQ(back.directives[i].var, w.directives[i].var) << i;
  }
  // Serialization is canonical: a second round-trip is byte-identical.
  EXPECT_EQ(trace::witness_to_string(back), text);
}

TEST(Fuzz, WitnessReaderRejectsMalformedInput) {
  EXPECT_THROW(trace::witness_from_string(""), CheckFailure);
  EXPECT_THROW(trace::witness_from_string("not-a-witness\nend\n"),
               CheckFailure);
  EXPECT_THROW(
      trace::witness_from_string("tpa-witness v1\nprocs 2\n"),  // no end
      CheckFailure);
  EXPECT_THROW(
      trace::witness_from_string("tpa-witness v1\nprocs 2\nq 0\nend\n"),
      CheckFailure);
  EXPECT_THROW(
      trace::witness_from_string("tpa-witness v1\nd 0\nend\n"),  // no procs
      CheckFailure);
}

TEST(Fuzz, LenientReplaySkipsInapplicableDirectives) {
  const auto& s = scenario("bakery-tso-2p");
  // A commit for a process whose buffer is empty simply does not apply.
  const std::vector<Directive> directives = {
      {tso::ActionKind::kCommit, 0, tso::kNoVar},
      {tso::ActionKind::kDeliver, 0, tso::kNoVar},
  };
  const LenientReplay r =
      tso::replay_lenient(s.n_procs, s.sim, s.build, directives);
  EXPECT_FALSE(r.violated);
  ASSERT_EQ(r.applied.size(), 1u);
  EXPECT_EQ(r.applied[0].kind, tso::ActionKind::kDeliver);
  // Strict replay raises on the same input.
  EXPECT_THROW(tso::replay(s.n_procs, s.sim, s.build, directives),
               CheckFailure);
}

TEST(Fuzz, TimeBudgetBoundsThePass) {
  const auto& s = scenario("bakery-tso-2p");
  FuzzConfig cfg;
  cfg.seed = 3;
  cfg.runs = ~0ULL;  // effectively unbounded: only the clock stops it
  cfg.time_budget_ms = 100;
  const FuzzResult r = tso::fuzz(s.n_procs, s.sim, s.build, cfg);
  EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
  EXPECT_GT(r.schedules, 0u);
}

}  // namespace
}  // namespace tpa

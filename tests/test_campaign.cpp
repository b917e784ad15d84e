// Durable campaigns: the checkpoint file format, checkpoint/resume through
// the public explore()/resume() surface, and the visited-set memory
// governor. The differential contract under test everywhere: a resumed
// campaign finishes with the verdict, witness and (dedup off) exact
// schedule/truncated counts of the uninterrupted run. Process-death
// durability (SIGKILL at random points) is exercised by the separate
// crash-harness binary (tests/crash_harness.cpp, ctest label `robustness`);
// these tests cover the in-process semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "trace/campaign.h"
#include "tso/explorer.h"
#include "tso/sim.h"
#include "util/check.h"

namespace tpa {
namespace {

using runtime::find_scenario;
using runtime::Scenario;
using tso::DedupMode;
using tso::ExplorerConfig;
using tso::ExplorerResult;
using tso::ResumeOptions;

/// A campaign path under the test temp dir, removed on scope exit.
class CampaignFile {
 public:
  explicit CampaignFile(const char* tag)
      : path_(::testing::TempDir() + "tpa_campaign_" + tag + ".tpc") {
    std::remove(path_.c_str());
  }
  ~CampaignFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_same_outcome(const ExplorerResult& a, const ExplorerResult& b,
                         const char* what, bool counts = true) {
  EXPECT_EQ(a.verdict.found(), b.verdict.found()) << what;
  EXPECT_EQ(a.verdict.message, b.verdict.message) << what;
  ASSERT_EQ(a.verdict.witness.size(), b.verdict.witness.size()) << what;
  for (std::size_t i = 0; i < a.verdict.witness.size(); ++i) {
    EXPECT_EQ(a.verdict.witness[i].kind, b.verdict.witness[i].kind) << what << " dir " << i;
    EXPECT_EQ(a.verdict.witness[i].proc, b.verdict.witness[i].proc) << what << " dir " << i;
    EXPECT_EQ(a.verdict.witness[i].var, b.verdict.witness[i].var) << what << " dir " << i;
  }
  EXPECT_EQ(a.exhausted, b.exhausted) << what;
  if (counts) {
    EXPECT_EQ(a.schedules, b.schedules) << what;
    EXPECT_EQ(a.truncated, b.truncated) << what;
  }
}

// ---- the file format -----------------------------------------------------

TEST(CampaignFormat, RoundTripsThroughTextFormat) {
  trace::Campaign c;
  c.scenario = "mcs-2p";
  c.n_procs = 2;
  c.pso = true;
  c.crash_model = tso::CrashModel::kBufferFlushed;
  c.preemptions = 3;
  c.max_steps = 123;
  c.max_schedules = 456;
  c.max_crashes = 1;
  c.dedup = DedupMode::kState;
  c.symmetry = tso::SymmetryMode::kOff;
  c.dedup_max_bytes = 1 << 20;
  c.shrink = false;
  c.schedules = 7;
  c.steps = 8;
  c.truncated = 9;
  c.snapshots = 10;
  c.restores = 11;
  c.dedup_hits = 12;
  c.dedup_states = 13;
  c.dedup_evictions = 14;
  c.frontier.push_back({1, 2, 1, {{tso::ActionKind::kDeliver, 0},
                                  {tso::ActionKind::kCommit, 1, 5},
                                  {tso::ActionKind::kCrash, 0},
                                  {tso::ActionKind::kRecover, 0}}});
  c.frontier.push_back({tso::kNoProc, 3, 0, {{tso::ActionKind::kCommit, 1}}});

  const trace::Campaign r =
      trace::campaign_from_string(trace::campaign_to_string(c));
  EXPECT_EQ(r.scenario, c.scenario);
  EXPECT_EQ(r.n_procs, c.n_procs);
  EXPECT_EQ(r.pso, c.pso);
  EXPECT_EQ(r.crash_model, c.crash_model);
  EXPECT_EQ(r.preemptions, c.preemptions);
  EXPECT_EQ(r.max_steps, c.max_steps);
  EXPECT_EQ(r.max_schedules, c.max_schedules);
  EXPECT_EQ(r.max_crashes, c.max_crashes);
  EXPECT_EQ(r.dedup, c.dedup);
  EXPECT_EQ(r.dedup_max_bytes, c.dedup_max_bytes);
  EXPECT_EQ(r.shrink, c.shrink);
  EXPECT_EQ(r.schedules, c.schedules);
  EXPECT_EQ(r.steps, c.steps);
  EXPECT_EQ(r.truncated, c.truncated);
  EXPECT_EQ(r.dedup_evictions, c.dedup_evictions);
  EXPECT_FALSE(r.complete);
  ASSERT_EQ(r.frontier.size(), 2u);
  EXPECT_EQ(r.frontier[0].current, 1);
  EXPECT_EQ(r.frontier[0].preemptions, 2);
  EXPECT_EQ(r.frontier[0].crashes_left, 1);
  ASSERT_EQ(r.frontier[0].dirs.size(), 4u);
  EXPECT_EQ(r.frontier[0].dirs[1].kind, tso::ActionKind::kCommit);
  EXPECT_EQ(r.frontier[0].dirs[1].var, 5);
  EXPECT_EQ(r.frontier[1].current, tso::kNoProc);
  ASSERT_EQ(r.frontier[1].dirs.size(), 1u);
  EXPECT_EQ(r.frontier[1].dirs[0].var, tso::kNoVar);
}

TEST(CampaignFormat, RoundTripsTerminalViolatingRecord) {
  trace::Campaign c;
  c.n_procs = 2;
  c.complete = true;
  c.exhausted = false;
  c.verdict.kind = tso::VerdictKind::kSafety;
  c.verdict.message = "exclusion: p0 and p1 both in CS";
  c.verdict.witness = {{tso::ActionKind::kDeliver, 0}, {tso::ActionKind::kDeliver, 1}};

  const trace::Campaign r =
      trace::campaign_from_string(trace::campaign_to_string(c));
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.exhausted);
  EXPECT_TRUE(r.verdict.found());
  EXPECT_EQ(r.verdict.message, c.verdict.message);
  ASSERT_EQ(r.verdict.witness.size(), 2u);
  EXPECT_TRUE(r.frontier.empty());
}

TEST(CampaignFormat, ReaderRejectsTamperedConfigAndTruncation) {
  trace::Campaign c;
  c.n_procs = 2;
  c.preemptions = 2;
  c.frontier.push_back({tso::kNoProc, 2, 0, {}});
  std::string text = trace::campaign_to_string(c);

  // Editing a config field without recomputing the hash must be rejected:
  // resuming it would silently explore a different schedule tree.
  std::string tampered = text;
  const auto pos = tampered.find("preemptions 2");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 13, "preemptions 3");
  EXPECT_THROW(trace::campaign_from_string(tampered), CheckFailure);

  // A file cut off anywhere before the end marker is rejected — though the
  // atomic write path means such a file should never exist on disk.
  const std::string truncated = text.substr(0, text.size() / 2);
  EXPECT_THROW(trace::campaign_from_string(truncated), CheckFailure);

  // A complete record carrying frontier nodes is self-contradictory.
  trace::Campaign bad;
  bad.n_procs = 2;
  bad.complete = true;
  bad.frontier.push_back({tso::kNoProc, 2, 0, {}});
  EXPECT_THROW(trace::campaign_from_string(trace::campaign_to_string(bad)),
               CheckFailure);
}

TEST(CampaignFormat, ReaderRejectsReplayModeFiles) {
  // `checkpoint 0` recorded the explorer's removed replay mode; such a file
  // is refused by name rather than resumed under a different strategy.
  trace::Campaign c;
  c.n_procs = 2;
  c.frontier.push_back({tso::kNoProc, 2, 0, {}});
  std::string text = trace::campaign_to_string(c);
  const auto pos = text.find("checkpoint 1\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "checkpoint 0");
  try {
    trace::campaign_from_string(text);
    FAIL() << "a replay-mode campaign was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("replay mode was removed"),
              std::string::npos)
        << e.what();
  }
}

/// A deadline-suspended campaign (bakery-tso-2p, one preemption, dedup off)
/// written mid-run by an earlier build of the explorer and committed, so
/// format or resume drift against files already on disk shows up here.
std::string committed_campaign_path() {
  return std::string(TPA_CORPUS_DIR) + "/bakery-tso-2p-p1.campaign";
}

std::string read_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(CampaignFormat, CommittedMidRunFileRoundTripsByteIdentical) {
  const std::string text = read_text(committed_campaign_path());
  ASSERT_FALSE(text.empty());
  const trace::Campaign c = trace::campaign_from_string(text);
  EXPECT_FALSE(c.complete);
  EXPECT_GT(c.frontier.size(), 1u);
  EXPECT_EQ(trace::campaign_to_string(c), text);
}

// ---- campaign explore / resume ------------------------------------------

TEST(Campaign, CommittedMidRunFileResumesToTheUninterruptedResult) {
  const Scenario* s = find_scenario("bakery-tso-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  const ExplorerResult plain = s->explore(cfg);
  EXPECT_EQ(plain.schedules, 12u);
  EXPECT_EQ(plain.truncated, 30u);

  // resume() keeps checkpointing to the file it reads, so work on a copy.
  CampaignFile file("committed");
  std::filesystem::copy_file(committed_campaign_path(), file.path());
  const ExplorerResult resumed = runtime::resume(file.path());
  expect_same_outcome(plain, resumed, "resumed committed campaign");
  EXPECT_FALSE(resumed.deadline_hit);
  EXPECT_TRUE(trace::read_campaign_file(file.path()).complete);
}

TEST(Campaign, TerminalRecordMatchesPlainExploreAndResumeReturnsIt) {
  const Scenario* s = find_scenario("mcs-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  const ExplorerResult plain = s->explore(cfg);
  ASSERT_FALSE(plain.verdict.found()) << plain.verdict.message;

  CampaignFile file("terminal");
  cfg.campaign_path = file.path();
  const ExplorerResult campaigned = s->explore(cfg);
  expect_same_outcome(plain, campaigned, "campaign vs plain");
  EXPECT_EQ(plain.steps, campaigned.steps)
      << "an uninterrupted campaign replays nothing";

  trace::Campaign rec = trace::read_campaign_file(file.path());
  EXPECT_TRUE(rec.complete);
  EXPECT_EQ(rec.scenario, "mcs-2p");
  EXPECT_EQ(rec.schedules, plain.schedules);
  EXPECT_EQ(rec.truncated, plain.truncated);
  EXPECT_TRUE(rec.exhausted);

  // Resuming a terminal campaign reports the stored result, re-exploring
  // nothing — steps would have grown otherwise.
  const ExplorerResult resumed = runtime::resume(file.path());
  expect_same_outcome(plain, resumed, "resume of terminal campaign");
  EXPECT_EQ(resumed.steps, plain.steps);
}

TEST(Campaign, ViolatingCampaignStoresTheShrunkWitness) {
  const Scenario* s = find_scenario("bakery-none-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  const ExplorerResult plain = s->explore(cfg);
  ASSERT_TRUE(plain.verdict.found());

  CampaignFile file("violating");
  cfg.campaign_path = file.path();
  const ExplorerResult campaigned = s->explore(cfg);
  expect_same_outcome(plain, campaigned, "violating campaign vs plain");

  const trace::Campaign rec = trace::read_campaign_file(file.path());
  EXPECT_TRUE(rec.complete);
  EXPECT_TRUE(rec.verdict.found());
  ASSERT_EQ(rec.verdict.witness.size(), plain.verdict.witness.size());
  for (std::size_t i = 0; i < rec.verdict.witness.size(); ++i)
    EXPECT_EQ(rec.verdict.witness[i].proc, plain.verdict.witness[i].proc) << "dir " << i;

  // The stored witness replays to the recorded violation.
  try {
    s->replay(rec.verdict.witness);
    FAIL() << "stored witness did not reproduce the violation";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(runtime::violation_detail(e.what()),
              runtime::violation_detail(rec.verdict.message));
  }
}

TEST(Campaign, DeadlineSuspendsAndResumeFinishesWithExactCounts) {
  const Scenario* s = find_scenario("mcs-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  const ExplorerResult plain = s->explore(cfg);

  CampaignFile file("deadline");
  cfg.campaign_path = file.path();
  cfg.time_budget_ms = 3;  // well under this scope's full wall time
  cfg.checkpoint_interval_ms = 1;
  ExplorerResult leg = s->explore(cfg);
  int legs = 1;
  while (leg.deadline_hit) {
    ASSERT_FALSE(leg.exhausted)
        << "a deadline-stopped leg must not claim a proof";
    ASSERT_LT(legs, 500) << "campaign did not converge";
    // A suspended checkpoint can carry a large frontier; a coarser cadence
    // keeps the resume legs exploring instead of re-serializing it.
    ResumeOptions opts;
    opts.time_budget_ms = 200;
    opts.checkpoint_interval_ms = 25;
    leg = runtime::resume(file.path(), opts);
    ++legs;
  }
  // However many legs it took, the final aggregate is the uninterrupted
  // run's verdict and exact schedule/truncated counts (steps differ: resume
  // legs re-derive frontier states by replay).
  expect_same_outcome(plain, leg, "resumed campaign vs uninterrupted");
  const trace::Campaign rec = trace::read_campaign_file(file.path());
  EXPECT_TRUE(rec.complete);
  EXPECT_EQ(rec.schedules, plain.schedules);
}

TEST(Campaign, CrashBudgetCampaignReproducesVerdictAcrossLegs) {
  const Scenario* s = find_scenario("recoverable-nofence-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  cfg.max_crashes = 1;
  const ExplorerResult plain = s->explore(cfg);
  ASSERT_TRUE(plain.verdict.found());

  CampaignFile file("crashes");
  cfg.campaign_path = file.path();
  cfg.time_budget_ms = 1;
  cfg.checkpoint_interval_ms = 1;
  ExplorerResult leg = s->explore(cfg);
  int legs = 1;
  while (leg.deadline_hit) {
    ASSERT_LT(legs, 500) << "campaign did not converge";
    ResumeOptions opts;
    opts.time_budget_ms = 20;
    opts.checkpoint_interval_ms = 1;
    leg = runtime::resume(file.path(), opts);
    ++legs;
  }
  expect_same_outcome(plain, leg, "crash-budget campaign vs uninterrupted");
}

TEST(Campaign, RejectsParallelAndHooks) {
  const Scenario* s = find_scenario("mcs-2p");
  ASSERT_NE(s, nullptr);
  CampaignFile file("rejects");

  ExplorerConfig parallel;
  parallel.campaign_path = file.path();
  parallel.threads = 2;
  EXPECT_THROW(s->explore(parallel), CheckFailure);

  ExplorerConfig hooked;
  hooked.campaign_path = file.path();
  hooked.on_complete = [](const tso::Simulator&) {};
  EXPECT_THROW(s->explore(hooked), CheckFailure);
}

TEST(Campaign, ResumeRejectsMismatchedScenarioIdentity) {
  const Scenario* s = find_scenario("bakery-none-2p");
  ASSERT_NE(s, nullptr);
  CampaignFile file("mismatch");
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.campaign_path = file.path();
  (void)s->explore(cfg);

  // Wrong process count.
  EXPECT_THROW(tso::resume(file.path(), 3, s->sim, s->build), CheckFailure);
  // Wrong memory model.
  tso::SimConfig pso = s->sim;
  pso.pso = true;
  EXPECT_THROW(tso::resume(file.path(), s->n_procs, pso, s->build),
               CheckFailure);
  // Missing file.
  EXPECT_THROW(runtime::resume(file.path() + ".nope"), CheckFailure);
}

TEST(Campaign, RegistryResumeNeedsARecordedScenarioId) {
  const Scenario* s = find_scenario("mcs-2p");
  ASSERT_NE(s, nullptr);
  CampaignFile file("raw");
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.campaign_path = file.path();
  // Raw tso::explore records no scenario id; the registry resume cannot
  // resolve a builder for it, while the explicit-builder resume can.
  (void)tso::explore(s->n_procs, s->sim, s->build, cfg);
  EXPECT_THROW(runtime::resume(file.path()), CheckFailure);
  const ExplorerResult r = tso::resume(file.path(), s->n_procs, s->sim,
                                       s->build);
  EXPECT_FALSE(r.verdict.found());
}

// ---- merging results ----------------------------------------------------

ExplorerResult part(std::uint64_t base) {
  ExplorerResult r;
  r.schedules = base + 1;
  r.steps = base + 2;
  r.truncated = base + 3;
  r.snapshots = base + 4;
  r.restores = base + 5;
  r.dedup_hits = base + 6;
  r.dedup_states = base + 7;
  r.dedup_evictions = base + 8;
  r.dedup_entries = base + 9;
  r.dedup_bytes = base + 10;
  return r;
}

TEST(ExplorerMerge, SplitResultsFoldToTheWhole) {
  ExplorerResult whole = part(0);
  whole.merge(part(100));
  EXPECT_EQ(whole.schedules, 1u + 101u);
  EXPECT_EQ(whole.steps, 2u + 102u);
  EXPECT_EQ(whole.truncated, 3u + 103u);
  EXPECT_EQ(whole.snapshots, 4u + 104u);
  EXPECT_EQ(whole.restores, 5u + 105u);
  EXPECT_EQ(whole.dedup_hits, 6u + 106u);
  EXPECT_EQ(whole.dedup_states, 7u + 107u);
  EXPECT_EQ(whole.dedup_evictions, 8u + 108u);
  // End-of-run gauges of the one visited set are not summed.
  EXPECT_EQ(whole.dedup_entries, 9u);
  EXPECT_EQ(whole.dedup_bytes, 10u);
  EXPECT_TRUE(whole.exhausted);
  EXPECT_FALSE(whole.deadline_hit);
  EXPECT_FALSE(whole.verdict.found());
}

TEST(ExplorerMerge, FirstFoundVerdictWinsAndFlagsCombine) {
  ExplorerResult first;
  first.verdict.kind = tso::VerdictKind::kSafety;
  first.verdict.message = "first";
  ExplorerResult second;
  second.verdict.kind = tso::VerdictKind::kStarvation;
  second.verdict.message = "second";
  second.exhausted = false;
  second.deadline_hit = true;

  ExplorerResult clean;
  clean.merge(first);
  clean.merge(second);
  EXPECT_EQ(clean.verdict.message, "first");
  EXPECT_EQ(clean.verdict.kind, tso::VerdictKind::kSafety);
  EXPECT_FALSE(clean.exhausted) << "exhausted ANDs";
  EXPECT_TRUE(clean.deadline_hit) << "deadline_hit ORs";

  ExplorerResult found = second;
  found.merge(first);
  EXPECT_EQ(found.verdict.message, "second");
  found.merge(ExplorerResult{});
  EXPECT_FALSE(found.exhausted) << "a later exhausted part cannot restore it";
  EXPECT_TRUE(found.deadline_hit);
}

// ---- the visited-set memory governor ------------------------------------

TEST(MemoryGovernor, VerdictsIdenticalUnderAnyByteBudget) {
  const Scenario* s = find_scenario("tas-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig off;
  off.preemptions = 2;
  const ExplorerResult raw = s->explore(off);

  ExplorerConfig dedup = off;
  dedup.dedup = DedupMode::kState;
  const ExplorerResult unlimited = s->explore(dedup);
  expect_same_outcome(raw, unlimited, "dedup vs raw", /*counts=*/false);
  EXPECT_GT(unlimited.dedup_entries, 0u);
  EXPECT_GT(unlimited.dedup_bytes, 0u);
  EXPECT_EQ(unlimited.dedup_evictions, 0u);

  // A quarter of the observed peak: the governor must respect the cap and
  // change no verdict (the ISSUE's acceptance bar).
  ExplorerConfig capped = dedup;
  capped.dedup_max_bytes = unlimited.dedup_bytes / 4;
  const ExplorerResult governed = s->explore(capped);
  expect_same_outcome(raw, governed, "governed dedup vs raw",
                      /*counts=*/false);
  EXPECT_LE(governed.dedup_bytes, capped.dedup_max_bytes)
      << "the byte budget caps capacity, not just live entries";
  EXPECT_GT(governed.dedup_hits, 0u) << "a capped set should still prune";

  // Squeezed far below the live working set, the governor must evict —
  // and still change no verdict.
  ExplorerConfig tight = dedup;
  tight.dedup_max_bytes = 64 * 1024;
  const ExplorerResult squeezed = s->explore(tight);
  expect_same_outcome(raw, squeezed, "squeezed dedup vs raw",
                      /*counts=*/false);
  EXPECT_LE(squeezed.dedup_bytes, tight.dedup_max_bytes);
  EXPECT_GT(squeezed.dedup_evictions, 0u);

  // Budget 0 stores nothing: exploration degrades to raw enumeration,
  // count-identically.
  ExplorerConfig zero = dedup;
  zero.dedup_max_bytes = 0;
  const ExplorerResult degraded = s->explore(zero);
  expect_same_outcome(raw, degraded, "budget-0 dedup vs raw");
  EXPECT_EQ(degraded.dedup_bytes, 0u);
  EXPECT_EQ(degraded.dedup_states, 0u);
  EXPECT_EQ(degraded.dedup_hits, 0u);
}

TEST(MemoryGovernor, BudgetedWitnessIsBitIdentical) {
  const Scenario* s = find_scenario("bakery-none-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig off;
  off.preemptions = 2;
  const ExplorerResult raw = s->explore(off);
  ASSERT_TRUE(raw.verdict.found());

  ExplorerConfig capped;
  capped.preemptions = 2;
  capped.dedup = DedupMode::kState;
  capped.dedup_max_bytes = 4096;
  const ExplorerResult governed = s->explore(capped);
  expect_same_outcome(raw, governed, "governed witness", /*counts=*/false);
}

TEST(MemoryGovernor, FootprintStatsAppearInResultAndJson) {
  const Scenario* s = find_scenario("tas-2p");
  ASSERT_NE(s, nullptr);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.dedup = DedupMode::kState;
  const ExplorerResult r = s->explore(cfg);
  // No byte budget configured — the footprint is still reported.
  EXPECT_GT(r.dedup_entries, 0u);
  EXPECT_GT(r.dedup_bytes, 0u);
  const std::string j = r.to_json();
  for (const char* key :
       {"\"dedup_entries\":", "\"dedup_bytes\":", "\"dedup_evictions\":"})
    EXPECT_NE(j.find(key), std::string::npos) << j;
}

}  // namespace
}  // namespace tpa

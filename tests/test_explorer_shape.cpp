// Golden tree shapes: the explorer's counters on the scopes the benchmark
// workloads run (prove, certify, raw parallel), pinned to exact values.
// Execution-strategy changes — how a sibling's simulator is materialized,
// how scratch is recycled, how snapshots are pooled — change what a restore
// or a branch point costs, never how many there are, so every counter and
// the verdict must stay bit-identical under them. A state-abstraction change
// — what the state key merges, e.g. the declared program locations of
// Proc::at() — legitimately moves the dedup rows and must re-record them;
// the raw row has no key and never moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "runtime/scenario.h"
#include "tso/explorer.h"
#include "tso/visited.h"

namespace tpa {
namespace {

using tso::ExplorerConfig;
using tso::ExplorerResult;

struct Counts {
  std::uint64_t schedules, truncated, steps, snapshots, restores, dedup_hits,
      dedup_states;
};

struct Golden {
  const char* scenario;
  int preemptions;
  int max_crashes;
  std::uint64_t max_steps;
  bool symmetry;
  std::uint64_t max_bytes;
  Counts expect;
};

constexpr std::uint64_t kUnlimited = tso::VisitedSet::kUnlimitedBytes;

/// The five `prove` scopes (dedup = state). The liveness checker never
/// changes the tree on a clean scope, so the three `certify` scopes — the
/// same bakery, tournament and ticket scopes with LivenessMode::kCheck —
/// share these values.
const Golden kProve[] = {
    {"bakery-tso-3p", 2, 0, 80, false, kUnlimited,
     {169, 7132, 297883, 14169, 22111, 14811, 38015}},
    {"bakery-tso-3p", 2, 0, 80, false, 1u << 20,
     {169, 7136, 298602, 14170, 22112, 14808, 38105}},
    {"tournament-3p", 2, 0, 100, false, kUnlimited,
     {343, 3284, 265828, 14890, 21893, 18267, 36170}},
    {"recoverable-2p", 1, 1, 150, false, kUnlimited,
     {219, 374, 59146, 2984, 5458, 4866, 6785}},
    {"ticket-3p", 2, 0, 300, true, kUnlimited,
     {243, 146, 44222, 3618, 5430, 5042, 6142}},
};
constexpr std::size_t kCertify[] = {0, 2, 4};  // indices into kProve

ExplorerConfig config_of(const Golden& g) {
  ExplorerConfig cfg;
  cfg.preemptions = g.preemptions;
  cfg.max_crashes = g.max_crashes;
  cfg.max_steps = g.max_steps;
  cfg.dedup = tso::DedupMode::kState;
  if (g.symmetry) cfg.symmetric_processes = tso::SymmetryMode::kCanonical;
  cfg.dedup_max_bytes = g.max_bytes;
  return cfg;
}

std::string label_of(const Golden& g) {
  return std::string(g.scenario) + " p" + std::to_string(g.preemptions) +
         " c" + std::to_string(g.max_crashes) + " s" +
         std::to_string(g.max_steps) + (g.symmetry ? " sym" : "") +
         (g.max_bytes != kUnlimited ? " budget" : "");
}

void expect_shape(const ExplorerResult& r, const Counts& c,
                  const std::string& what) {
  EXPECT_FALSE(r.verdict.found()) << what << ": " << r.verdict.message;
  EXPECT_TRUE(r.exhausted) << what;
  EXPECT_EQ(r.schedules, c.schedules) << what;
  EXPECT_EQ(r.truncated, c.truncated) << what;
  EXPECT_EQ(r.steps, c.steps) << what;
  EXPECT_EQ(r.snapshots, c.snapshots) << what;
  EXPECT_EQ(r.restores, c.restores) << what;
  EXPECT_EQ(r.dedup_hits, c.dedup_hits) << what;
  EXPECT_EQ(r.dedup_states, c.dedup_states) << what;
}

const runtime::Scenario& scenario(const char* name) {
  const runtime::Scenario* s = runtime::find_scenario(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

TEST(ExplorerShape, ProveScopesKeepTheirTreeShape) {
  for (const Golden& g : kProve) {
    const ExplorerResult r = scenario(g.scenario).explore(config_of(g));
    expect_shape(r, g.expect, label_of(g));
  }
}

TEST(ExplorerShape, CertifyScopesKeepTheirTreeShape) {
  for (const std::size_t i : kCertify) {
    const Golden& g = kProve[i];
    ExplorerConfig cfg = config_of(g);
    cfg.liveness = tso::LivenessMode::kCheck;
    expect_shape(scenario(g.scenario).explore(cfg), g.expect,
                 label_of(g) + " live");
  }
}

TEST(ExplorerShape, CertifyScopesKeepTheirTreeShapeUnderACampaign) {
  // Campaign mode records every open branch point's pending children; the
  // bookkeeping must not perturb the tree it describes.
  const std::string path =
      ::testing::TempDir() + "tpa_explorer_shape.tpc";
  for (const std::size_t i : kCertify) {
    const Golden& g = kProve[i];
    std::remove(path.c_str());
    ExplorerConfig cfg = config_of(g);
    cfg.liveness = tso::LivenessMode::kCheck;
    cfg.campaign_path = path;
    expect_shape(scenario(g.scenario).explore(cfg), g.expect,
                 label_of(g) + " live campaign");
  }
  std::remove(path.c_str());
}

TEST(ExplorerShape, RawParallelScopeKeepsItsTreeShape) {
  // The `parallel` workload's raw scope. The frontier pre-pass takes its
  // own snapshots and restores, so those two counters depend on the thread
  // count; the schedule census and executed events do not.
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  cfg.max_steps = 100;
  const struct {
    int threads;
    Counts expect;
  } runs[] = {{1, {7802, 26851, 1327156, 24550, 34652, 0, 0}},
              {2, {7802, 26851, 1327156, 24550, 34660, 0, 0}}};
  for (const auto& run : runs) {
    cfg.threads = run.threads;
    expect_shape(scenario("bakery-tso-3p").explore(cfg), run.expect,
                 "bakery-tso-3p p2 s100 raw t" + std::to_string(run.threads));
  }
}

}  // namespace
}  // namespace tpa

#include "microdriver.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "trace/campaign.h"
#include "trace/format.h"
#include "tso/visited.h"
#include "util/check.h"
#include "util/rng.h"

namespace tpa::bench {
namespace {

using Clock = std::chrono::steady_clock;
using tso::ActionKind;
using Walk = std::vector<tso::Directive>;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

constexpr std::size_t kWalks = 32;       // random schedules per scenario
constexpr std::size_t kMaxSteps = 400;   // directives per schedule, at most
constexpr int kRounds = 5;               // interleaved apply/fingerprint rounds
constexpr int kSnapshotBatch = 256;
constexpr int kRestoreBatch = 32;
constexpr int kWitnessBatch = 64;
constexpr int kReplayBatch = 16;
constexpr int kCampaignBatch = 4;

// Explorer and fuzzer strip the observers when no hook needs them, so the
// layers are measured on the same bare core.
tso::SimConfig bare_config(const runtime::Scenario& s) {
  tso::SimConfig c = s.sim;
  c.track_awareness = false;
  c.record_trace = false;
  c.track_costs = false;
  return c;
}

std::unique_ptr<tso::Simulator> fresh(const runtime::Scenario& s) {
  auto sim = std::make_unique<tso::Simulator>(s.n_procs, bare_config(s));
  s.build(*sim);
  return sim;
}

bool apply(tso::Simulator& sim, const tso::Directive& d) {
  switch (d.kind) {
    case ActionKind::kDeliver: return sim.deliver(d.proc);
    case ActionKind::kCommit: return sim.commit(d.proc, d.var);
    case ActionKind::kCrash: return sim.crash(d.proc);
    case ActionKind::kRecover: return sim.recover(d.proc);
  }
  return false;
}

/// One seeded random schedule. It stops when no process can act, after
/// kMaxSteps directives, or just before a directive that raises a violation
/// (on the workloads' buggy scenarios), so every recorded walk replays
/// strictly and without exceptions.
Walk random_walk(const runtime::Scenario& s, Rng& rng) {
  auto sim = fresh(s);
  Walk out;
  std::vector<tso::Directive> moves;
  int crashes = 0;
  while (out.size() < kMaxSteps) {
    moves.clear();
    for (std::size_t i = 0; i < s.n_procs; ++i) {
      const auto p = static_cast<tso::ProcId>(i);
      const tso::Proc& proc = sim->proc(p);
      if (proc.crashed()) {
        if (sim->has_recovery(p)) moves.push_back({ActionKind::kRecover, p});
        continue;
      }
      if (!proc.done() && proc.has_pending())
        moves.push_back({ActionKind::kDeliver, p});
      if (!proc.buffer().empty()) moves.push_back({ActionKind::kCommit, p});
      if (crashes == 0 && sim->has_recovery(p) && sim->can_crash(p) &&
          rng.chance(0.01))
        moves.push_back({ActionKind::kCrash, p});
    }
    if (moves.empty()) break;
    const tso::Directive d = moves[rng.below(moves.size())];
    try {
      if (!apply(*sim, d)) break;
    } catch (const CheckFailure&) {
      break;
    }
    if (d.kind == ActionKind::kCrash) ++crashes;
    out.push_back(d);
  }
  return out;
}

enum class Key { kNone, kFull, kSymmetric, kProgress };

/// Applies every walk to its own fresh simulator, computing `key` after each
/// directive the way the explorer does, and returns the host time of the
/// apply loops. All walks form one timed batch of a few thousand
/// directives; building the simulators happens before the clock starts.
double timed_pass(const runtime::Scenario& s, const std::vector<Walk>& walks,
                  Key key, std::vector<tso::Fingerprint>* keys,
                  std::uint64_t* sink) {
  std::vector<std::unique_ptr<tso::Simulator>> sims;
  for (std::size_t i = 0; i < walks.size(); ++i) sims.push_back(fresh(s));
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < walks.size(); ++i) {
    tso::Simulator& sim = *sims[i];
    for (const tso::Directive& d : walks[i]) {
      apply(sim, d);
      tso::Fingerprint fp;
      switch (key) {
        case Key::kNone: continue;
        case Key::kFull: fp = sim.fingerprint(d.proc); break;
        case Key::kSymmetric: fp = sim.fingerprint_symmetric(d.proc); break;
        case Key::kProgress: fp = sim.fingerprint_progress(d.proc); break;
      }
      *sink ^= fp.lo;
      if (keys != nullptr) keys->push_back(fp);
    }
  }
  return ns_since(t0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The averaged fields of LayerCosts.
constexpr double LayerCosts::*kCostFields[] = {
    &LayerCosts::apply_ns,          &LayerCosts::events_per_run,
    &LayerCosts::fp_full_ns,        &LayerCosts::fp_symmetric_ns,
    &LayerCosts::fp_progress_ns,    &LayerCosts::snapshot_take_ns,
    &LayerCosts::snapshot_restore_ns, &LayerCosts::visited_probe_ns,
    &LayerCosts::visited_insert_ns, &LayerCosts::witness_roundtrip_us,
    &LayerCosts::replay_strict_us,  &LayerCosts::campaign_roundtrip_us};

/// Results of the timed calls feed this, so none can be optimized away.
volatile std::uint64_t g_sink = 0;

LayerCosts measure_scenario(const runtime::Scenario& s, Rng& rng,
                            tso::VisitedSet& visited,
                            const std::string& campaign_path) {
  LayerCosts c;
  std::vector<Walk> walks;
  std::size_t events = 0;
  for (std::size_t i = 0; i < kWalks; ++i) {
    walks.push_back(random_walk(s, rng));
    events += walks.back().size();
  }
  TPA_CHECK(events > 0, "scenario '" << s.name << "' has no schedule");
  c.events_per_run = static_cast<double>(events) / kWalks;
  const double n = static_cast<double>(events);

  // A fingerprint's cost is only meaningful right after the events that
  // dirtied it, so it is measured as the difference between apply+key and
  // apply-only passes over the same walks, interleaved per round.
  std::uint64_t sink = 0;
  std::vector<double> apply_ns, full_ns, sym_ns, prog_ns;
  std::vector<tso::Fingerprint> keys;
  for (int r = 0; r < kRounds; ++r) {
    const double base = timed_pass(s, walks, Key::kNone, nullptr, &sink);
    const double full = timed_pass(s, walks, Key::kFull,
                                   r == 0 ? &keys : nullptr, &sink);
    const double sym = timed_pass(s, walks, Key::kSymmetric, nullptr, &sink);
    const double prog = timed_pass(s, walks, Key::kProgress, nullptr, &sink);
    apply_ns.push_back(base / n);
    full_ns.push_back((full - base) / n);
    sym_ns.push_back((sym - base) / n);
    prog_ns.push_back((prog - base) / n);
  }
  c.apply_ns = median(apply_ns);
  c.fp_full_ns = median(full_ns);
  c.fp_symmetric_ns = median(sym_ns);
  c.fp_progress_ns = median(prog_ns);

  // Snapshot and restore at the midpoint of the first few walks.
  const std::size_t snap_walks = std::min<std::size_t>(8, walks.size());
  double take = 0, restore = 0;
  tso::SimSnapshot pooled;
  for (std::size_t i = 0; i < snap_walks; ++i) {
    auto sim = fresh(s);
    for (std::size_t k = 0; k < walks[i].size() / 2; ++k)
      apply(*sim, walks[i][k]);
    auto t0 = Clock::now();
    for (int k = 0; k < kSnapshotBatch; ++k) sim->snapshot_into(pooled);
    take += ns_since(t0);
    t0 = Clock::now();
    for (int k = 0; k < kRestoreBatch; ++k) sim->restore(pooled, s.build);
    restore += ns_since(t0);
  }
  c.snapshot_take_ns =
      take / static_cast<double>(snap_walks * kSnapshotBatch);
  c.snapshot_restore_ns =
      restore / static_cast<double>(snap_walks * kRestoreBatch);

  // Visited set: probe the walk's keys (misses), insert them, probe again
  // (hits). Budgets are the default prove bound's.
  const tso::VisitedSet::Budget budget{2, 0, 200};
  bool any = false;
  auto t0 = Clock::now();
  for (const auto& fp : keys) any ^= visited.subsumed(fp, budget);
  const double miss = ns_since(t0);
  t0 = Clock::now();
  for (const auto& fp : keys) any ^= visited.insert(fp, budget);
  c.visited_insert_ns = ns_since(t0) / n;
  t0 = Clock::now();
  for (const auto& fp : keys) any ^= visited.subsumed(fp, budget);
  c.visited_probe_ns = (miss + ns_since(t0)) / (2 * n);
  sink ^= any;

  const Walk& longest = *std::max_element(
      walks.begin(), walks.end(),
      [](const Walk& a, const Walk& b) { return a.size() < b.size(); });

  trace::Witness w;
  w.scenario = s.name;
  w.n_procs = s.n_procs;
  w.pso = s.sim.pso;
  w.crash_model = s.sim.crash_model;
  w.violation = "random schedule";
  w.directives = longest;
  t0 = Clock::now();
  trace::Witness back;
  for (int k = 0; k < kWitnessBatch; ++k)
    back = trace::witness_from_string(trace::witness_to_string(w));
  c.witness_roundtrip_us = ns_since(t0) / 1e3 / kWitnessBatch;
  ++c.checks;
  if (back.scenario != w.scenario || !same_directives(back.directives, longest))
    ++c.failed;

  t0 = Clock::now();
  for (int k = 0; k < kReplayBatch; ++k) sink ^= s.replay(longest)->num_vars();
  c.replay_strict_us = ns_since(t0) / 1e3 / kReplayBatch;

  trace::Campaign camp;
  camp.scenario = s.name;
  camp.n_procs = s.n_procs;
  camp.pso = s.sim.pso;
  camp.crash_model = s.sim.crash_model;
  // About 16 frontier nodes: prefixes of the longest walk.
  const std::size_t stride = longest.size() / 16 + 1;
  for (std::size_t len = 1; len <= longest.size(); len += stride) {
    trace::CampaignNode node;
    node.current = longest[len - 1].proc;
    node.preemptions = 1;
    node.dirs.assign(longest.begin(),
                     longest.begin() + static_cast<std::ptrdiff_t>(len));
    camp.frontier.push_back(std::move(node));
  }
  trace::Campaign read;
  t0 = Clock::now();
  for (int k = 0; k < kCampaignBatch; ++k) {
    trace::write_campaign_file(campaign_path, camp);
    read = trace::read_campaign_file(campaign_path);
  }
  c.campaign_roundtrip_us = ns_since(t0) / 1e3 / kCampaignBatch;
  ++c.checks;
  if (read.frontier.size() != camp.frontier.size() ||
      !same_directives(read.frontier.back().dirs, camp.frontier.back().dirs))
    ++c.failed;

  g_sink = sink;
  return c;
}

}  // namespace

bool same_directives(const std::vector<tso::Directive>& a,
                     const std::vector<tso::Directive>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const tso::Directive& x, const tso::Directive& y) {
                      return x.kind == y.kind && x.proc == y.proc &&
                             x.var == y.var;
                    });
}

LayerCosts measure_layers(
    const std::vector<const runtime::Scenario*>& scenarios, std::uint64_t seed,
    std::size_t visited_prefill, const std::string& scratch_dir) {
  Rng rng(seed ^ 0x6c61796572ULL);
  tso::VisitedSet visited;
  for (std::size_t i = 0; i < visited_prefill; ++i)
    visited.insert({rng(), rng()}, {2, 0, 200});

  LayerCosts out;
  const std::string campaign_path = scratch_dir + "/microdriver.campaign";
  const double k = static_cast<double>(scenarios.size());
  for (const runtime::Scenario* s : scenarios) {
    const LayerCosts c = measure_scenario(*s, rng, visited, campaign_path);
    for (double LayerCosts::*f : kCostFields) out.*f += c.*f / k;
    out.checks += c.checks;
    out.failed += c.failed;
  }
  return out;
}

}  // namespace tpa::bench

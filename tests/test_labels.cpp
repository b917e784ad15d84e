// Audit of the Proc::at() contract: a declared program location, its locals
// and the passage index, together with the fingerprinted process state, must
// determine the process' whole future. Where that holds, two states with
// equal fingerprint() have identical futures even when their op-result
// streams differ — which is exactly the merge the labels buy the explorer.
//
// The audit uses only the public Simulator API. Seeded random walks over a
// scenario record one snapshot per distinct fingerprint; whenever a walk
// reaches a recorded fingerprint through a different op-result stream, both
// states are restored and driven through the same seeded suffixes, and every
// step must produce the same events, the same enabled directives, the same
// raised violations and the same keys. It runs over the whole registry and
// must catch a lock whose label omits a local its continuation reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/lock.h"
#include "runtime/scenario.h"
#include "tso/sim.h"
#include "util/check.h"

namespace tpa {
namespace {

using runtime::Scenario;
using runtime::scenario_registry;
using tso::ActionKind;
using tso::Directive;
using tso::Event;
using tso::Fingerprint;
using tso::ProcId;
using tso::Simulator;
using tso::SimSnapshot;

constexpr int kWalks = 8;
constexpr std::size_t kWalkSteps = 300;
constexpr int kSuffixes = 3;  // K shared seeded suffixes per merged pair
constexpr std::size_t kSuffixSteps = 120;

/// Every directive the adversary could apply now, in a stable order. Crash
/// moves are offered only when `crash` (a seeded coin flip by the caller),
/// so recovery scenarios still make progress between crashes.
std::vector<Directive> enabled(const Simulator& sim, bool crash) {
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
    if (crash && sim.can_crash(pid)) out.push_back({ActionKind::kCrash, pid});
  }
  return out;
}

/// A seeded coin for crash moves: offered on one step in 20, and only where
/// the scenario has recovery sections (a fail-stop crash ends a walk).
bool crash_turn(const Simulator& sim, std::mt19937_64& rng) {
  return std::uniform_int_distribution<int>(0, 19)(rng) == 0 &&
         sim.has_recovery(0);
}

/// The machine-visible half of an event. Sequence numbers, passage indices
/// and the cost flags are instrumentation the fingerprint leaves out by
/// design, so two merged states may legitimately differ in them.
std::string machine_event(const Event& e) {
  std::ostringstream os;
  os << static_cast<int>(e.kind) << ' ' << e.proc << ' ' << e.var << ' '
     << e.value << ' ' << e.value2 << ' ' << e.from_buffer << e.accesses_var
     << e.remote << e.cas_success << e.implied_by_cas;
  return os.str();
}

bool same_directives(const std::vector<Directive>& a,
                     const std::vector<Directive>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].kind != b[i].kind || a[i].proc != b[i].proc ||
        a[i].var != b[i].var)
      return false;
  return true;
}

bool same_streams(const SimSnapshot& a, const SimSnapshot& b) {
  for (std::size_t p = 0; p < a.procs.size(); ++p)
    if (a.procs[p].op_results != b.procs[p].op_results) return false;
  return true;
}

struct AuditReport {
  std::size_t pairs = 0;  ///< merged pairs with different op-result streams
  std::string failure;    ///< first broken pair; empty when the audit held
};

/// Drives both simulators (restored to a merged pair) through one seeded
/// suffix; returns what first differed, or an empty string.
std::string drive_pair(Simulator& a, Simulator& b, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::size_t seen_a = a.execution().events.size();
  std::size_t seen_b = b.execution().events.size();
  for (std::size_t step = 0; step < kSuffixSteps; ++step) {
    const bool crash = crash_turn(a, rng);
    const std::vector<Directive> ca = enabled(a, crash);
    const std::vector<Directive> cb = enabled(b, crash);
    if (!same_directives(ca, cb))
      return "enabled sets differ at suffix step " + std::to_string(step);
    if (ca.empty()) return {};
    const Directive d =
        ca[std::uniform_int_distribution<std::size_t>(0, ca.size() - 1)(rng)];
    bool raised_a = false, raised_b = false;
    try {
      a.apply(d);
    } catch (const CheckFailure&) {
      raised_a = true;
    }
    try {
      b.apply(d);
    } catch (const CheckFailure&) {
      raised_b = true;
    }
    if (raised_a != raised_b)
      return "only one side raised at suffix step " + std::to_string(step);
    const auto& ea = a.execution().events;
    const auto& eb = b.execution().events;
    if (ea.size() - seen_a != eb.size() - seen_b)
      return "event counts differ at suffix step " + std::to_string(step);
    for (; seen_a < ea.size(); ++seen_a, ++seen_b)
      if (machine_event(ea[seen_a]) != machine_event(eb[seen_b]))
        return "events differ at suffix step " + std::to_string(step) + ": " +
               ea[seen_a].to_string() + " vs " + eb[seen_b].to_string();
    if (raised_a) return {};
    if (!(a.fingerprint() == b.fingerprint()))
      return "keys differ at suffix step " + std::to_string(step);
  }
  return {};
}

AuditReport audit(std::size_t n_procs, const tso::SimConfig& config,
                  const tso::ScenarioBuilder& build) {
  AuditReport report;
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::shared_ptr<const SimSnapshot>>
      first;
  Simulator a(n_procs, config), b(n_procs, config);  // restored per pair
  for (int walk = 0; walk < kWalks; ++walk) {
    Simulator sim(n_procs, config);
    build(sim);
    std::mt19937_64 rng(0x1abe1000 + static_cast<std::uint64_t>(walk));
    for (std::size_t step = 0; step < kWalkSteps; ++step) {
      const Fingerprint key = sim.fingerprint();
      auto snap = std::make_shared<const SimSnapshot>(sim.snapshot());
      const auto [it, fresh] = first.try_emplace({key.hi, key.lo}, snap);
      if (!fresh && !same_streams(*it->second, *snap)) {
        ++report.pairs;
        for (int k = 0; k < kSuffixes; ++k) {
          a.restore(*it->second, build);
          b.restore(*snap, build);
          const std::string why =
              drive_pair(a, b, 0x5fff1000 + report.pairs * 8 + k);
          if (!why.empty()) {
            report.failure = "walk " + std::to_string(walk) + " step " +
                             std::to_string(step) + ": " + why;
            return report;
          }
        }
      }
      const std::vector<Directive> cand = enabled(sim, crash_turn(sim, rng));
      if (cand.empty()) break;
      try {
        sim.apply(cand[std::uniform_int_distribution<std::size_t>(
            0, cand.size() - 1)(rng)]);
      } catch (const CheckFailure&) {
        break;  // a violating scenario reached its bug: the walk ends here
      }
    }
  }
  return report;
}

bool labelled(const std::string& name) {
  for (const char* prefix : {"bakery", "tournament", "ticket", "recoverable"})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

TEST(LabelAudit, EqualKeysHaveEqualFuturesOnEveryRegistryScenario) {
  for (const Scenario& s : scenario_registry()) {
    const AuditReport r = audit(s.n_procs, s.sim, s.build);
    EXPECT_TRUE(r.failure.empty()) << s.name << ": " << r.failure;
    if (labelled(s.name)) {
      // The walks must actually reach merged spin iterations, or the audit
      // proves nothing about the labels.
      EXPECT_GT(r.pairs, 0u) << s.name;
    } else {
      // Without at() calls the key still hashes the whole op-result stream.
      EXPECT_EQ(r.pairs, 0u) << s.name;
    }
  }
}

/// A test-and-set lock that also counts passages: it reads the count before
/// spinning and writes count + 1 once it holds the lock. Mislabelled, its
/// spin label leaves that count out, so a waiter that read the count before
/// a rival's passage bumped it and one that read it after look the same to
/// the key — yet they write different counts once they get the lock.
class CountingLock : public algos::SimLock {
 public:
  CountingLock(Simulator& sim, bool mislabelled)
      : lock_(sim.alloc_var(0)),
        count_(sim.alloc_var(0)),
        mislabelled_(mislabelled) {}

  tso::Task<> acquire(tso::Proc& p) override {
    const tso::Value seen = co_await p.read(count_);
    while (true) {
      if (mislabelled_) {
        p.at("counting.spin");  // omits `seen`, which is written below
      } else {
        p.at("counting.spin", seen);
      }
      const tso::Value old = co_await p.cas(lock_, 0, 1);
      if (old == 0) break;
    }
    co_await p.write(count_, seen + 1);
  }

  tso::Task<> release(tso::Proc& p) override {
    co_await p.write(lock_, 0);
    co_await p.fence();
  }

  std::string name() const override { return "counting"; }

 private:
  tso::VarId lock_, count_;
  bool mislabelled_;
};

tso::ScenarioBuilder counting_scenario(bool mislabelled) {
  return [mislabelled](Simulator& sim) {
    auto lock = std::make_shared<CountingLock>(sim, mislabelled);
    for (ProcId p = 0; p < 2; ++p)
      sim.spawn(p, algos::run_passages(sim.proc(p), lock, 2));
  };
}

TEST(LabelAudit, CatchesALabelThatOmitsALocalTheContinuationReads) {
  const AuditReport sound = audit(2, {}, counting_scenario(false));
  EXPECT_GT(sound.pairs, 0u);
  EXPECT_TRUE(sound.failure.empty()) << sound.failure;

  const AuditReport broken = audit(2, {}, counting_scenario(true));
  EXPECT_GT(broken.pairs, 0u);
  EXPECT_FALSE(broken.failure.empty())
      << "the audit passed a label that leaves out the count";
}

}  // namespace
}  // namespace tpa

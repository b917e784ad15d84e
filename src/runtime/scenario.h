// Scenario — the public bundle tying a named concurrent algorithm setup
// (process count, simulator configuration, builder) to the analyses that run
// against it: exhaustive exploration (tso/explorer.h), schedule fuzzing
// (tso/fuzz.h), and deterministic witness replay (tso/schedule.h).
//
// Grown out of the test-only registry the fuzz/corpus tests shared; the
// registry itself lives here too, so examples, benchmarks and tests resolve
// the scenario ids stored in witness files (tests/corpus/*.witness) through
// one place. Builders must be schedule-independent and safe to invoke
// concurrently (the parallel explorer shares them across workers), and every
// invocation must allocate the same variables and spawn the same programs.
// Host-side state a program writes (AdaptiveBakery's slot cache, NodePool's
// per-process cursor) may be read only by the same incarnation of the same
// process: Simulator::restore() keeps coroutines from earlier builder runs
// next to fresh ones, so two processes may see different host objects.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algos/bakery.h"
#include "algos/recoverable.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/schedule.h"
#include "tso/sim.h"

namespace tpa::runtime {

struct Scenario {
  std::string name;
  std::size_t n_procs = 0;
  tso::SimConfig sim;
  tso::ScenarioBuilder build;
  bool violating = false;  ///< a violation is expected to be discoverable
  /// The violation needs fault injection (crash directives) to surface;
  /// crash-free passes should treat the scenario as safe.
  bool needs_crashes = false;
  /// The processes are interchangeable: builder and programs are invariant
  /// under process renaming. Declaring this is the precondition for
  /// ExplorerConfig::symmetric_processes — explore() rejects a symmetry
  /// request on a scenario that does not declare it. Most lock scenarios are
  /// *not* symmetric: pid tie-breaks (bakery), per-process slots (mcs,
  /// anderson), pid-derived tournament paths, or pid-encoded values
  /// (recoverable) all break renaming invariance.
  bool symmetric = false;
  /// A *liveness* violation (a fair starvation/livelock cycle) is expected
  /// to be discoverable by the explorer's LivenessMode::kCheck. Deliberately
  /// distinct from `violating`: the fuzzer and the safety-corpus
  /// regeneration iterate `violating` scenarios and can only observe safety
  /// failures, so a merely unfair lock must not be marked `violating`.
  bool liveness_violating = false;

  /// A freshly built simulator for this scenario.
  std::unique_ptr<tso::Simulator> make_simulator() const;

  /// Exhaustive exploration under `config`. Rejects (via check.h)
  /// config.symmetric_processes != kOff unless the scenario declares
  /// `symmetric` — the structural probe inside tso::explore cannot see
  /// late pid-dependence, so the declaration is load-bearing. When
  /// config.campaign_path is set, the campaign header records this
  /// scenario's name so runtime::resume() can resolve the builder from the
  /// registry alone.
  tso::ExplorerResult explore(tso::ExplorerConfig config = {}) const;

  /// Seeded schedule fuzzing under `config`.
  tso::FuzzResult fuzz(const tso::FuzzConfig& config = {}) const;

  /// Strict witness replay: every directive must apply (tso::replay).
  std::unique_ptr<tso::Simulator> replay(
      const std::vector<tso::Directive>& directives) const;

  /// Lenient replay: inapplicable directives are skipped (tso::replay_lenient).
  tso::LenientReplay replay_lenient(
      const std::vector<tso::Directive>& directives) const;
};

// ---- builder helpers ------------------------------------------------------

/// n processes, `passages` passages each, through a BakeryLock with the
/// given fence placement. Multiple passages make processes renewable
/// clients — the abstraction under which starvation-freedom certification
/// (LivenessMode::kCheck) closes its cycles; see docs/LIVENESS.md.
tso::ScenarioBuilder bakery_scenario(int n, algos::BakeryFencing fencing,
                                     int passages = 1);

/// n processes with recovery sections, one passage each, through a
/// RecoverableLock (the RME crash-safety scenario).
tso::ScenarioBuilder recoverable_scenario(int n,
                                          algos::RecoverableFencing fencing);

/// n processes, `passages` passages each, through a lock from the
/// algos/zoo.h factory table ("tas", "ticket", "mcs", "tournament", ...).
tso::ScenarioBuilder zoo_scenario(const char* name, int n, int passages);

// ---- the registry ---------------------------------------------------------

/// Continues (or reports) the exploration campaign checkpointed at
/// `campaign_path` (see tso::resume). The scenario is resolved from the
/// campaign header through the registry — a campaign started via
/// Scenario::explore resumes with nothing but the file path. Rejects (via
/// check.h) campaigns whose scenario id is absent from the registry.
tso::ExplorerResult resume(const std::string& campaign_path,
                           const tso::ResumeOptions& options = {});

/// Every named scenario, stable across runs. Ids are stored in corpus
/// witness files; renaming or removing an entry invalidates the corpus.
const std::vector<Scenario>& scenario_registry();

/// Registry lookup by name; nullptr when absent.
const Scenario* find_scenario(const std::string& name);

/// TPA_CHECK messages carry "<expr> at <file>:<line> — <detail>"; corpus
/// files store only the detail part so they stay valid across unrelated
/// source-line churn.
std::string violation_detail(const std::string& message);

}  // namespace tpa::runtime

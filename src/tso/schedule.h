// Deterministic replay and process erasure (the paper's E^{-Y} operator).
//
// A run is reproduced from (a) a ScenarioBuilder that reconstructs the same
// variables and programs in a fresh Simulator, and (b) the recorded
// directive schedule. Erasing a set of processes Y replays the schedule with
// Y's directives dropped: by Lemma 1 / Lemma 4, if Y is a subset of an
// invisible set, every surviving process reads the same values and executes
// the same (critical) events — verify_replay_equivalence checks exactly
// that, turning the lemmas into runtime-checked properties.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tso/sim.h"

namespace tpa::tso {

/// Rebuilds a scenario in a fresh simulator: allocates the same variables
/// (in the same order!) and spawns every process' program. Determinism of
/// the replay machinery depends on builders being schedule-independent;
/// Simulator::restore() also needs host state a program writes to be read
/// only by the same incarnation of the same process (see its comment).
using ScenarioBuilder = std::function<void(Simulator&)>;

/// Replays `directives` in a freshly built simulator. If `erased` is
/// non-null, directives of erased processes are dropped (E^{-Y}); erased
/// processes are still spawned (so variable layout matches) but take no
/// steps. Directives that cannot be applied (e.g. a commit for an empty
/// buffer) raise CheckFailure — they indicate the erased set was not
/// invisible, or a non-deterministic builder.
std::unique_ptr<Simulator> replay(std::size_t n_procs, SimConfig config,
                                  const ScenarioBuilder& build,
                                  const std::vector<Directive>& directives,
                                  const std::vector<bool>* erased = nullptr);

struct ReplayCheck {
  bool ok = true;
  std::string detail;  ///< description of the first mismatch, if any
};

/// Verifies Lemma 4's conclusions on a replayed run: for every surviving
/// process, its event subsequence in the replay matches its events in the
/// original execution — same kinds, variables, values, buffer/CAS flags and
/// criticality (IN3).
ReplayCheck verify_replay_equivalence(const Execution& original,
                                      const Execution& replayed,
                                      const std::vector<bool>& erased);

}  // namespace tpa::tso

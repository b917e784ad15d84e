// Randomized schedule fuzzing, lenient replay, and counterexample shrinking.
//
// The exhaustive explorer (tso/explorer.h) *proves* small scopes; the fuzzer
// stresses scenarios beyond the exhaustive bound: seeded, reproducible
// random schedules plus corpus-guided mutation of recorded directive
// sequences (prefix truncation, window deletion, adjacent swaps, and
// commit-delay re-parameterization — the store-buffer knob TSO bugs hide
// behind). Any violation is delta-debugged (ddmin) to a locally minimal,
// still-violating witness; trace::write_witness (trace/format.h) turns that
// into a replayable text artifact — the regression corpus under
// tests/corpus/ is exactly these files.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tso/explorer.h"
#include "tso/schedule.h"
#include "tso/sim.h"

namespace tpa::tso {

struct LenientReplay {
  std::unique_ptr<Simulator> sim;  ///< state after the replay
  std::vector<Directive> applied;  ///< directives that actually applied
  bool violated = false;
  bool complete = false;  ///< every program done and every buffer drained
  std::string violation;
};

/// Replays `directives` on a freshly built simulator, *skipping* any that
/// cannot be applied — unlike strict tso::replay, which raises on them. A
/// CheckFailure thrown by a step is a violation: the replay stops with
/// `applied` ending in the violating directive. If the schedule runs to
/// completion, `on_complete` (when set) is invoked and may flag a violation
/// as well. This is the oracle mutation and shrinking are built on: dropped
/// directives shift the remainder onto a nearby legal schedule instead of
/// invalidating it. fuzz() and the shrinkers run the same replay on one
/// simulator each, restored in place between replays.
LenientReplay replay_lenient(std::size_t n_procs, SimConfig sim_config,
                             const ScenarioBuilder& build,
                             const std::vector<Directive>& directives,
                             const ScheduleHook& on_complete = {});

struct ShrinkOutcome {
  std::vector<Directive> witness;  ///< locally minimal, still violating
  std::string violation;           ///< message from the minimal replay
  std::uint64_t replays = 0;       ///< oracle invocations spent
};

/// ddmin over the directive sequence: removes chunks of halving size, then
/// single directives to a fixpoint. The result still violates, and removing
/// any *single* directive from it no longer does (local minimality). It is
/// also strictly replayable: every directive applies in order, so
/// tso::replay of the shrunk witness deterministically reproduces the
/// violation (for step violations by raising; for on_complete violations by
/// reaching the same final state). If `witness` does not reproduce at all,
/// it is returned unchanged with an empty `violation`.
ShrinkOutcome shrink_witness(std::size_t n_procs, SimConfig sim_config,
                             const ScenarioBuilder& build,
                             std::vector<Directive> witness,
                             const ScheduleHook& on_complete = {});

/// The result of replaying a lasso candidate (stem + cycle) against the
/// liveness oracle: does the cycle strictly apply from the stem's end state,
/// re-close under the progress fingerprint, and pass the weak-fairness
/// filter — and if so, what verdict kind does it classify as?
struct LassoReplay {
  bool closes = false;  ///< strict cycle application + fingerprint closure
                        ///< + weak fairness all hold
  VerdictKind kind = VerdictKind::kClean;  ///< kStarvation, kLivelock, or
                                           ///< kClean (a progress cycle)
  std::vector<Directive> stem;  ///< stem directives that actually applied
};

/// Replays `stem` leniently, then applies `cycle` strictly once and checks
/// it returns to the stem-end state under Simulator::fingerprint_progress
/// (with the scheduled process folded in, exactly the explorer's on-stack
/// key). A closing cycle is classified by watching per-process sections
/// during the application: starvation if some process sits in Try (Entry)
/// across the whole cycle, livelock if no process makes any
/// Enter/CS/Exit transition; a cycle where someone progresses is kClean.
/// This is the oracle lasso shrinking and v3 witness replay share.
LassoReplay replay_lasso(std::size_t n_procs, SimConfig sim_config,
                         const ScenarioBuilder& build,
                         const std::vector<Directive>& stem,
                         const std::vector<Directive>& cycle);

struct LassoShrinkOutcome {
  std::vector<Directive> witness;  ///< shrunk stem + cycle, concatenated
  std::size_t cycle_start = 0;     ///< cycle entry index into `witness`
  std::uint64_t replays = 0;       ///< oracle invocations spent
};

/// ddmin generalized to lassos: shrinks the cycle first, then the stem,
/// each to a 1-minimal fixpoint, accepting a candidate only if the cycle
/// still closes under the progress fingerprint *and* the classification
/// kind is preserved (a starvation witness never degrades into a mere
/// livelock or progress cycle, and vice versa). The returned witness
/// replays deterministically: replay_lasso(stem, cycle) closes with the
/// same kind. If the input does not reproduce at all, it is returned
/// unchanged.
LassoShrinkOutcome shrink_lasso(std::size_t n_procs, SimConfig sim_config,
                                const ScenarioBuilder& build,
                                std::vector<Directive> witness,
                                std::size_t cycle_start, VerdictKind kind);

struct FuzzConfig {
  std::uint64_t seed = 0x5eedULL;
  std::uint64_t runs = 1'000;       ///< fuzz iterations (upper bound)
  std::uint64_t max_steps = 4'000;  ///< per-run scheduler step cap
  bool shrink = true;               ///< shrink the first violating witness
  /// Per-step probability of injecting a process crash (the RME fault
  /// model; see SimConfig::crash_model for what happens to the buffer).
  /// 0 disables fault injection — and is guarded before any randomness is
  /// consumed, so a crash-free config's schedule digest is unchanged.
  double crash_prob = 0.0;
  /// Upper bound on injected crashes per run (counting crashes replayed
  /// from a mutated corpus schedule).
  int max_crashes = 2;
  /// Wall-clock budget in milliseconds; 0 = none, as is a budget too large
  /// for steady_clock to represent. Checked between runs, so
  /// the pass is time-bounded but the number of runs becomes
  /// machine-dependent — use `runs` alone where strict reproducibility of
  /// the whole pass matters (each run is seed-deterministic either way).
  std::uint64_t time_budget_ms = 0;
  /// Invariant invoked at the end of every *complete* run (same contract as
  /// ExplorerConfig::on_complete): a CheckFailure it raises is a kSafety
  /// verdict whose raw witness is that run's schedule, shrunk under the
  /// same hook. Setting it keeps the caller's instrumentation (costs,
  /// awareness, trace) on; it draws no randomness, so schedules and the
  /// digest are those of the hook-free pass up to the first failure.
  ScheduleHook on_complete;
};

struct FuzzResult : RunStats {
  // From RunStats: schedules (runs actually executed), steps (machine events
  // executed across all runs), truncated (runs that neither completed nor
  // violated within max_steps), deadline_hit (time_budget_ms ran out), and
  // verdict — kind/message plus the witness (shrunk when config.shrink) and
  // raw_witness (as recorded in the violating run). The fuzzer only ever
  // reports kClean or kSafety: liveness kinds need the explorer's state
  // graph.
  std::uint64_t violating_run = 0;     ///< 0-based index of the hit
  /// FNV-1a digest over every applied directive of every run: two fuzz
  /// passes with equal configs explore byte-identical schedules.
  std::uint64_t schedule_digest = 0;

  /// RunStats fields plus the fuzzer-specific figures, as one JSON object.
  std::string to_json() const;
};

/// Runs seeded schedule fuzzing against the scenario, stopping at the first
/// violation (or when runs / the time budget are spent). Deterministic
/// given the config (modulo time_budget_ms, see above).
FuzzResult fuzz(std::size_t n_procs, SimConfig sim_config,
                const ScenarioBuilder& build, const FuzzConfig& config = {});

}  // namespace tpa::tso

// Context-bounded exhaustive schedule exploration (CHESS-style).
//
// Explores every *maximal-delay* TSO schedule with at most `preemptions`
// preemptive context switches: at each step the currently scheduled process
// takes its next event; buffered writes commit only through fences (and a
// final drain once the program ends) — the scheduling adversary the paper's
// construction also uses. That is a subset of TSO, not a superset of it or
// even of SC: a schedule in which a write reaches memory early, before its
// writer's next fence, is never explored, so an outcome that needs one is
// missed (Explorer.MaximalDelayMissesAnEarlyCommitOutcome pins such a gap).
// Within that subset and the bound the exploration is exhaustive, so it can
// *prove* mutual exclusion over the maximal-delay schedules of small scopes
// and *find* concrete violating schedules otherwise.
//
// The canonical customer: BakeryFencing::kNone (the fence-free bakery).
// The paper's premise — "the use of fences was shown to be unavoidable for
// read/write mutual exclusion algorithms [Attiya et al., Laws of Order]" —
// becomes an automatically discovered two-process counterexample
// (tests/test_explorer.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tso/run_stats.h"
#include "tso/schedule.h"
#include "tso/sim.h"

namespace tpa::tso {

/// Optional per-schedule hook: invoked with the simulator at the end of
/// every *complete* schedule (all processes done and drained). Throwing
/// CheckFailure from the hook counts as a violation, so arbitrary
/// invariants can be checked for-all-schedules within the bound.
using ScheduleHook = std::function<void(const Simulator&)>;

/// Stateful exploration: prune a branch when the machine state (by
/// Simulator::fingerprint) was already fully explored, violation-free, with
/// an equal-or-larger remaining budget. Sound — verdicts and witnesses are
/// bit-identical to kOff — but schedule/truncated *counts* shrink, so it is
/// off wherever count parity with the raw bound matters. See
/// docs/EXPLORER.md for the soundness argument and the (rejected) invalid
/// combinations.
enum class DedupMode : std::uint8_t {
  kOff,    ///< enumerate the raw schedule tree
  kState,  ///< visited-set pruning on (fingerprint, remaining budget)
};

const char* to_string(DedupMode m);
DedupMode dedup_mode_from_string(const std::string& name);

/// Process-symmetry reduction: canonicalize visited-set fingerprints under
/// process renaming, merging states that differ only by a permutation of
/// interchangeable processes. Canonicalization sorts renaming-invariant
/// per-process signatures (Simulator::fingerprint_symmetric) — near-linear
/// in state size, not an enumeration of the n! renamings. Requires
/// DedupMode::kState and a scenario whose builder and programs are invariant
/// under process renaming (runtime::Scenario::symmetric declares this;
/// explore() also structurally validates the initial state).
enum class SymmetryMode : std::uint8_t {
  kOff,        ///< fingerprints as-is
  kCanonical,  ///< canonical process order via sorted invariant signatures
};

const char* to_string(SymmetryMode m);
SymmetryMode symmetry_mode_from_string(const std::string& name);

/// Liveness verdicts on the explored state graph: detect *fair cycles* —
/// lasso-shaped runs whose cycle revisits a machine state while every
/// non-crashed runnable process gets scheduled (weak fairness) — and
/// classify them as starvation (a process waits in Try across the whole
/// cycle without reaching CS) or livelock (nobody makes Enter/CS/Exit
/// progress); a pre-completion state with no enabled transition is a
/// deadlock. Cycle detection keys on Simulator::fingerprint_progress — the
/// machine state minus the labelled lane (monotone op history, unless the
/// program declares locations with Proc::at) — on the DFS stack, so it
/// requires DedupMode::kState (the visited set materializes the state
/// graph) and composes with symmetry (canonical progress keys).
/// See docs/LIVENESS.md for semantics and soundness preconditions.
enum class LivenessMode : std::uint8_t {
  kOff,    ///< safety only — bit-identical to the pre-liveness explorer
  kCheck,  ///< also detect fair cycles and deadlocks, with lasso witnesses
};

const char* to_string(LivenessMode m);
LivenessMode liveness_mode_from_string(const std::string& name);

struct ExplorerConfig {
  /// Preemptive context switches allowed per schedule (switching away from
  /// a process that can still act). Switches away from a blocked/finished
  /// process are free.
  int preemptions = 2;
  /// Per-schedule step cap; schedules hitting it count as truncated (a
  /// process spinning on a never-committed write does this).
  std::uint64_t max_steps = 600;
  /// Global cap on explored schedules.
  std::uint64_t max_schedules = 2'000'000;
  /// Crash directives injected per schedule (RME fault model). At every
  /// state, in addition to scheduling steps, the adversary may crash any
  /// process that still has work or buffered writes; crashed processes with
  /// a registered recovery section re-enter via a Recover directive. 0 (the
  /// default) disables fault injection entirely — schedule counts are then
  /// bit-identical to a crash-free exploration.
  int max_crashes = 0;
  /// Wall-clock watchdog for the whole exploration, in milliseconds; 0
  /// disables it, and so does a budget too large for steady_clock to
  /// represent (UINT64_MAX included). The DFS reads the clock once every
  /// 256 stop polls, so once the deadline passes exploration stops within
  /// one clock poll — at most 256 polls, tens of microseconds — and the
  /// result reports deadline_hit (and exhausted = false).
  std::uint64_t time_budget_ms = 0;
  /// Invariant checked at the end of every complete schedule.
  ScheduleHook on_complete;

  /// Worker threads. 1 runs the classic sequential DFS. With more, the
  /// schedule space is partitioned into subtrees rooted at a frontier of
  /// schedule prefixes (enumerated in DFS order) and the subtrees are
  /// explored concurrently via util/work_queue.h. The partition is exact,
  /// so on a violation-free scenario the aggregated `schedules`/`truncated`
  /// counts are identical to the sequential run's, for any thread count.
  /// Violations are reported first-in-DFS-order-wins: the earliest frontier
  /// subtree containing one supplies the witness, so the raw witness is the
  /// sequential run's whatever the thread count or timing (the *counts* of
  /// a violating or budget-capped run may vary — later subtrees are
  /// abandoned early).
  /// Builders must be safe to invoke concurrently on distinct simulators.
  int threads = 1;

  /// Delta-debug any violation witness to a locally minimal, still-violating
  /// directive sequence before returning it (see tso/fuzz.h). The shrunk
  /// witness replays deterministically via tso::replay just like the raw
  /// one, only shorter.
  bool shrink = true;

  /// Visited-state pruning (see DedupMode). Off by default: verdicts and
  /// witnesses are unchanged when on, but counts shrink. Rejected (via
  /// check.h) in combination with on_complete hooks: a hook may inspect
  /// observer or trace state the fingerprint deliberately ignores.
  DedupMode dedup = DedupMode::kOff;

  /// Canonicalize fingerprints under process renaming (see SymmetryMode).
  /// Requires dedup == kState and a genuinely symmetric scenario; both are
  /// enforced via check.h.
  SymmetryMode symmetric_processes = SymmetryMode::kOff;

  /// Fair-cycle detection (see LivenessMode). Off by default: when on,
  /// starvation/livelock/deadlock verdicts are reported with lasso
  /// witnesses; when off, verdicts, witnesses and counts are bit-identical
  /// to the pre-liveness explorer. Requires dedup == kState and is
  /// sequential only (threads == 1) — parallel workers revive mid-tree from
  /// snapshots without the DFS stack a cycle check needs; both enforced via
  /// check.h.
  LivenessMode liveness = LivenessMode::kOff;

  /// Byte budget for the dedup visited set (the memory governor; see
  /// tso/visited.h). Capped shards evict cold entries instead of growing,
  /// so long explorations hold a bounded working set. Evicting only
  /// forfeits pruning — verdicts and witnesses stay bit-identical under any
  /// budget; at 0 the set stores nothing and exploration degrades to raw
  /// enumeration. Ignored unless dedup == kState.
  std::uint64_t dedup_max_bytes = ~0ull;

  /// Durable campaign checkpointing: when non-empty, the exploration
  /// periodically publishes its frontier (the unexplored subtree roots as
  /// directive prefixes), aggregate stats, and a config hash to this path
  /// via an atomic tmp+fsync+rename write — a SIGKILLed exploration resumes
  /// from the last checkpoint with tso::resume(), reproducing the
  /// uninterrupted run's verdict, witness, and (dedup off) exact
  /// schedule/truncated counts. Sequential only (threads == 1); rejected in
  /// combination with on_complete hooks (process-local state a resume could
  /// not reinstate). See docs/ROBUSTNESS.md.
  std::string campaign_path;

  /// Minimum milliseconds between periodic campaign checkpoints. The
  /// interval is checked on the watchdog's clock poll (every 256 stop
  /// polls); a checkpoint is written at the first node entry after a poll
  /// finds it passed. A checkpoint is also written before the first step
  /// (so a kill at any point finds a resumable file) and when the time
  /// budget trips. The cadence is self-pacing: when a write (fsync-bound)
  /// costs more than the interval, the next one is deferred by a multiple
  /// of the measured cost, bounding checkpoint overhead at ~20% of wall
  /// clock.
  std::uint64_t checkpoint_interval_ms = 250;

  /// Scenario id recorded in the campaign header so runtime::resume() can
  /// resolve the builder through the registry. runtime::Scenario::explore
  /// fills it in; raw tso::explore callers may leave it empty and resume
  /// with an explicitly supplied builder.
  std::string campaign_scenario;
};

/// Wall-clock knobs for resuming a campaign. Deliberately *not* part of the
/// campaign config hash: a resume may pick a fresh time budget or
/// checkpoint cadence without changing what is explored.
struct ResumeOptions {
  /// Watchdog for this leg of the campaign (0 = none, as is a budget too
  /// large to represent), with ExplorerConfig::time_budget_ms' polling. A
  /// leg that hits it checkpoints at the poll that sees the trip and
  /// reports deadline_hit; resume again to continue.
  std::uint64_t time_budget_ms = 0;
  /// Checkpoint cadence for this leg (see
  /// ExplorerConfig::checkpoint_interval_ms).
  std::uint64_t checkpoint_interval_ms = 250;
};

struct ExplorerResult : RunStats {
  // From RunStats: schedules (complete schedules explored), steps (machine
  // events executed — restores replay none), truncated (schedules cut off at
  // max_steps), deadline_hit (config.time_budget_ms ran out), and verdict —
  // the structured outcome (kind, message, witness/raw_witness, lasso
  // cycle_start). verdict.witness replays the violation via tso::replay
  // (shrunk when config.shrink is set).
  bool exhausted = true;            ///< false if max_schedules was hit
  std::uint64_t snapshots = 0;  ///< checkpoints taken at branch points
  std::uint64_t restores = 0;   ///< simulator states restored from one
  std::uint64_t dedup_hits = 0;    ///< subtrees pruned by the visited set
  std::uint64_t dedup_states = 0;  ///< (fingerprint, budget) inserts accepted
  std::uint64_t dedup_entries = 0;    ///< live visited-set entries at the end
  std::uint64_t dedup_bytes = 0;      ///< visited-set footprint at the end
  std::uint64_t dedup_evictions = 0;  ///< entries the memory governor evicted

  /// Folds in the result of work explored *after* this one in DFS order
  /// (a later frontier subtree, or a later campaign leg): sums the
  /// counters, ANDs `exhausted`, ORs `deadline_hit`, and keeps this
  /// result's verdict if it already found one — the first-in-DFS-order
  /// rule. `dedup_entries` and `dedup_bytes` are end-of-run gauges of the
  /// one visited set and are left alone.
  void merge(const ExplorerResult& later);

  /// RunStats fields plus the explorer-specific figures, as one JSON object.
  std::string to_json() const;
};

/// Exhaustively explores the scenario under the config's bound. Any
/// CheckFailure raised by the simulator (mutual-exclusion violations,
/// algorithm-internal invariant failures) is a violation; the returned
/// witness replays it via tso::replay.
ExplorerResult explore(std::size_t n_procs, SimConfig sim_config,
                       const ScenarioBuilder& build,
                       ExplorerConfig config = {});

/// Continues (or reports) the campaign checkpointed at `campaign_path`. The
/// explorer configuration is reconstructed from the file — the caller only
/// supplies the scenario (which must match the recorded identity: process
/// count, PSO flag, crash model; enforced via check.h together with the
/// file's config hash) and fresh wall-clock knobs. A complete campaign
/// returns the recorded result without re-exploring; an in-flight one
/// explores the stored frontier nodes in DFS order, keeps checkpointing to
/// the same path, and finishes exactly as the uninterrupted run would have:
/// identical verdict and witness always, and identical schedule/truncated
/// counts when dedup is off (a resumed visited set restarts empty, so dedup
/// counts can only grow). See docs/ROBUSTNESS.md for the argument.
ExplorerResult resume(const std::string& campaign_path, std::size_t n_procs,
                      SimConfig sim_config, const ScenarioBuilder& build,
                      const ResumeOptions& options = {});

}  // namespace tpa::tso

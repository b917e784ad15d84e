// Simulator — the TSO operational model of Section 2, executable.
//
// A scheduling adversary drives a set of process coroutines. At each step it
// picks a process and either (a) *delivers* the process' next program event
// — read, write issue, fence progress, CAS, or a transition event — or (b)
// *commits* the first write in the process' write buffer. Writes become
// visible only when committed; a fence forces the process into write mode
// until its buffer drains (BeginFence .. commits .. EndFence).
//
// The Simulator itself is only the core state machine. Instrumentation —
// criticality and RMRs (Definition 2), awareness sets (Definition 1),
// mutual-exclusion checking, trace recording — is layered on top as
// composable SimObservers (tso/observer.h, tso/observers.h); SimConfig
// installs the standard set. The recorded directive schedule is sufficient
// to deterministically replay the run — including replays with a subset of
// processes erased (the paper's E^{-Y} operator; see tso/schedule.h) — and
// snapshot()/restore() checkpoints the whole machine (variables, buffers,
// coroutine progress, observer state) so explorers can resume from branch
// points instead of replaying prefixes from the root.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tso/event.h"
#include "tso/observer.h"
#include "tso/proc.h"
#include "tso/task.h"
#include "tso/types.h"
#include "util/bitset.h"

namespace tpa::tso {

class CostObserver;
class AwarenessObserver;
class TraceRecorder;

/// How Simulator::fingerprint() is maintained. The incremental mode is the
/// production path: each machine event folds the changed per-process /
/// per-variable hash components out of and back into two running
/// accumulators, so a fingerprint costs O(1) per event instead of a walk
/// over the whole machine state. Audit mode keeps the same incremental
/// bookkeeping but additionally recomputes the fingerprint from scratch on
/// every fingerprint() call and TPA_CHECKs that both agree — the debug
/// oracle the differential tests (tests/test_fingerprint.cpp) also drive.
enum class FingerprintMode : std::uint8_t {
  kIncremental,  ///< O(1) per-event maintenance (default)
  kAudit,        ///< incremental + from-scratch cross-check on every call
};

const char* to_string(FingerprintMode m);

/// Inverse of to_string(FingerprintMode); throws CheckFailure on unknown
/// names (tested by tests/test_enum_strings.cpp).
FingerprintMode fingerprint_mode_from_string(const std::string& name);

struct SimConfig {
  /// Track awareness sets (Definition 1) via the AwarenessObserver. Needed
  /// by the lower-bound construction; may be disabled for perf runs.
  bool track_awareness = true;
  /// Assert mutual exclusion (ExclusionChecker): at most one process may
  /// have an enabled CS transition at any time.
  bool check_exclusion = true;
  /// Record the event trace and directive schedule (TraceRecorder).
  bool record_trace = true;
  /// Partial store ordering: writes to *different* variables may commit out
  /// of buffer order (Section 6 of the paper; older SPARC). Under PSO the
  /// scheduler's commit move may pick any buffered variable; under TSO
  /// (default) only the head of the FIFO buffer may commit.
  bool pso = false;
  /// Charge criticality (Definition 2) and RMRs under DSM / CC-WT / CC-WB
  /// via the CostObserver. Without it, classify_pending() conservatively
  /// reports every remote read as critical.
  bool track_costs = true;
  /// What happens to a crashing process' write buffer (tso/event.h): lost
  /// with the volatile state (default, the adversarial RME model) or
  /// flushed to shared memory. Irrelevant unless the schedule contains
  /// crash directives.
  CrashModel crash_model = CrashModel::kBufferLost;
  /// Fingerprint maintenance strategy; kAudit cross-checks the incremental
  /// fingerprint against a from-scratch recomputation on every call.
  FingerprintMode fingerprint = FingerprintMode::kIncremental;
};

/// A shared variable. Coherence-directory state lives in the CostObserver
/// (cost::CoherenceDirectory); awareness snapshots in the AwarenessObserver.
struct Variable {
  Value value = 0;
  Value initial = 0;
  /// owner(v): the process whose memory segment holds v (DSM model), or
  /// kNoProc when v is remote to everyone (always the case in CC).
  ProcId owner = kNoProc;
  /// writer(v, E): last process to commit a write to v.
  ProcId last_writer = kNoProc;
};

/// Classification of a process' pending (not yet executed) operation — what
/// its next event would be. Used by the adversary to run processes "until
/// about to execute a special event" (Lemma 5).
enum class PendingClass : std::uint8_t {
  kNone,             ///< no pending op (not started, or finished)
  kWriteIssue,       ///< write into buffer: never special
  kLocalRead,        ///< read from own buffer or a local variable
  kNonCriticalRead,  ///< remote read of an already remotely-read variable
  kCriticalRead,     ///< first remote read of the variable — special
  kBeginFence,       ///< fence instruction — special
  kCas,              ///< CAS barrier — special
  kCommitNonCritical,///< mid-fence commit, writer(v) == p
  kCommitCritical,   ///< mid-fence commit, writer(v) != p — special
  kEndFence,         ///< mid-fence, buffer empty — special
  kEnter,            ///< transition — special
  kCs,               ///< transition — special
  kExit,             ///< transition — special
};

const char* to_string(PendingClass c);

/// Inverse of to_string(PendingClass); throws CheckFailure on unknown names
/// (tested exhaustively by tests/test_enum_strings.cpp).
PendingClass pending_class_from_string(const std::string& name);

/// True for the classes the paper calls special events (critical events,
/// transition events, fence events).
bool is_special(PendingClass c);

/// A 128-bit canonical fingerprint of the full machine state, as computed by
/// Simulator::fingerprint(). Two states with equal fingerprints have (up to
/// hash collision, ~2^-128 per pair) identical futures under any schedule:
/// the fingerprint covers everything the transition relation reads and
/// nothing it does not (see the member doc on Simulator::fingerprint).
struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const Fingerprint&) const = default;
};


/// A full checkpoint of the simulator (and its observers) at a quiescent
/// point between scheduler steps. Move-only; share via shared_ptr when the
/// same checkpoint seeds several branches. Coroutine frames cannot be
/// copied, so a snapshot records each process' incarnation and op-result
/// stream instead: restore() keeps a live frame that already sits where
/// that stream leads, and respawns the others and feeds them the recorded
/// results (see Simulator::restore).
struct SimSnapshot {
  struct ProcState {
    Status status = Status::kNcs;
    Mode mode = Mode::kRead;
    std::vector<BufferedWrite> buffer;
    SimOp pending{OpKind::kRead};
    bool has_pending = false;
    bool done = false;
    bool crashed = false;
    /// Recovery incarnations started so far (0 = the original program).
    std::uint32_t incarnations = 0;
    /// Results of the *current* incarnation's ops (cleared at each crash).
    std::vector<Value> op_results;
    /// The labelled lane (Proc::op_history_hash). Not a function of
    /// op_results once the program calls Proc::at(), so it is carried.
    std::uint64_t op_hash = 0;
    std::uint32_t fences_total = 0;
    std::uint32_t passages_done = 0;
    PassageStats cur;
    DynBitset met;
    std::vector<PassageStats> finished;
  };

  std::uint64_t seq = 0;
  std::vector<Value> var_values;
  std::vector<ProcId> var_writers;
  std::vector<ProcState> procs;
  DynBitset touched;
  /// One entry per attached observer, in registration order (nullptr for
  /// stateless observers).
  std::vector<std::unique_ptr<ObserverSnapshot>> observers;
};

class Simulator {
 public:
  explicit Simulator(std::size_t n_procs, SimConfig config = {});

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  std::size_t num_procs() const { return procs_.size(); }
  std::size_t num_vars() const { return vars_.size(); }
  const SimConfig& config() const { return config_; }

  /// Attaches an observer; only legal before the execution starts.
  /// Observers fire in registration order, after the standard set installed
  /// by SimConfig.
  void add_observer(std::unique_ptr<SimObserver> observer);

  const std::vector<std::unique_ptr<SimObserver>>& observers() const {
    return observers_;
  }

  /// Allocates a shared variable. `owner` places it in a process' local
  /// memory segment (DSM model); default is remote-to-all (CC model).
  VarId alloc_var(Value init = 0, ProcId owner = kNoProc);

  /// Sets a variable's (initial) value before the execution starts — for
  /// building pre-populated object states (e.g. a queue seeded with
  /// tickets). Only legal while no event has been recorded.
  void poke(VarId v, Value value);

  /// Installs and starts a process' top-level program; it runs until its
  /// first suspension point (typically a pending Enter).
  void spawn(ProcId p, Task<> program);

  /// Factory for a process' recovery section: invoked (with the process)
  /// each time the process recovers from a crash, producing a fresh
  /// incarnation's program. Must be deterministic, like scenario builders.
  using RecoveryFactory = std::function<Task<>(Proc&)>;

  /// Registers p's recovery section. Without one, a crashed process never
  /// restarts (it counts as done — a permanent, fail-stop crash).
  void set_recovery(ProcId p, RecoveryFactory factory);

  /// True if a recovery section was registered for p.
  bool has_recovery(ProcId p) const;

  /// True if the crash adversary move is legal for p right now: the process
  /// was spawned, is not already crashed, and has work left (a finished
  /// program with a drained buffer has nothing left to lose).
  bool can_crash(ProcId p) const;

  /// The crash adversary move: p's volatile state — program counter,
  /// pending op, current passage — is destroyed and its write buffer is
  /// lost or flushed per SimConfig::crash_model (a flush commits each entry
  /// in order as an ordinary WriteCommit before the Crash event). The
  /// process re-enters ncs; it restarts only via recover(). Returns false
  /// if the move is not legal (see can_crash).
  bool crash(ProcId p);

  /// Restarts a crashed process in a fresh incarnation of its recovery
  /// section (set_recovery). Returns false if p is not crashed or has no
  /// recovery section.
  bool recover(ProcId p);

  Proc& proc(ProcId p);
  const Proc& proc(ProcId p) const;

  Value value(VarId v) const;
  ProcId var_owner(VarId v) const;
  ProcId last_writer(VarId v) const;
  const Variable& variable(VarId v) const;

  /// Performs one scheduler step for p: delivers its next program event, or
  /// (mid-fence) commits the next buffered write / ends the fence. Returns
  /// false if p has nothing to do (done or not pending).
  bool deliver(ProcId p);

  /// Commits a write from p's buffer (the adversary's "commit" move — legal
  /// in any mode). `v == kNoVar` commits the head; naming a variable is
  /// only legal under PSO (write-write reordering) unless it is the head.
  /// Returns false if the buffer is empty (or v is not buffered).
  bool commit(ProcId p, VarId v = kNoVar);

  /// Applies one scheduler directive — deliver, commit, crash or recover —
  /// through the matching move above. Returns false if the directive's
  /// process cannot act that way now.
  bool apply(const Directive& d);

  /// True if p can take some machine step right now: deliver its next
  /// program event, commit a buffered write, or — when crashed — recover.
  /// The enabled set the explorer schedules and weak fairness ranges over.
  bool can_act(ProcId p) const;

  /// Classifies p's next event without executing it.
  PendingClass classify_pending(ProcId p) const;

  /// True if p's next event would be special (critical/transition/fence).
  bool pending_special(ProcId p) const {
    return is_special(classify_pending(p));
  }

  /// Act(E): processes that started a passage and have not completed it.
  std::vector<ProcId> active() const;

  /// Fin(E): processes that completed at least one passage.
  std::vector<ProcId> finished() const;

  /// Total contention of the execution: number of processes that issued at
  /// least one event (tracked by the core; works without a trace).
  std::size_t total_contention() const;

  /// The recorded execution, from the TraceRecorder; empty when
  /// record_trace is off.
  const Execution& execution() const;

  /// Number of events recorded so far (0 when record_trace is off).
  std::uint64_t num_events() const;

  /// Machine events this simulator actually executed (monotone; restore()
  /// executes none — the whole point of checkpointing — and neither does
  /// the fast-forward of a respawned coroutine, which only hands recorded
  /// results back to the program).
  std::uint64_t events_executed() const { return work_events_; }

  /// Additionally count every executed machine event into *sink (explorers
  /// aggregate work across many short-lived simulators this way).
  void count_events_into(std::uint64_t* sink) { events_sink_ = sink; }

  /// Owners of all variables, indexed by VarId (kNoProc = remote to all).
  std::vector<ProcId> var_owners() const;

  /// AW(p, E) from the AwarenessObserver; an empty set when awareness
  /// tracking is off.
  const DynBitset& awareness_of(ProcId p) const;

  /// Definition 2 bookkeeping from the CostObserver; false when cost
  /// tracking is off.
  bool remotely_read(ProcId p, VarId v) const;

  /// Canonical fingerprint of the complete *machine* state: committed shared
  /// memory (value + last_writer + owner per variable), each process'
  /// control location (its labelled lane — the location the last
  /// Proc::at() declared, or the op-result stream, with the results handed
  /// out since folded on — plus the incarnation count), write-buffer
  /// contents, pending op, status/mode/done/crashed flags, and the config
  /// bits the transition relation consults (pso, crash model). Pure
  /// instrumentation — observers, contention bookkeeping, passage
  /// statistics, the touched set — is deliberately excluded, so a bare core
  /// and a fully instrumented simulator in the same machine state
  /// fingerprint identically.
  ///
  /// Maintained *incrementally*: every deliver/commit/crash/recover marks
  /// the per-process and per-variable hash components it touched dirty, and
  /// fingerprint() folds just those back into two running accumulators — an
  /// O(1)-per-event cost, never a walk over the full state
  /// (docs/EXPLORER.md documents the maintenance invariant). Under
  /// FingerprintMode::kAudit every call is additionally cross-checked
  /// against fingerprint_oracle().
  ///
  /// `current` (optional) folds the scheduler's currently running process
  /// into the hash, so explorers can key visited sets on (state, current)
  /// with a single value.
  Fingerprint fingerprint(ProcId current = kNoProc) const;

  /// The debug oracle: the same fingerprint function recomputed from
  /// scratch by walking the complete machine state. Always equal to
  /// fingerprint() when `rename` is null — the differential tests pin this
  /// after every event kind. `rename` (optional, length num_procs, a
  /// permutation) renames every process-id the state mentions — blob
  /// positions, last_writer/owner fields, and `current` — as if processes
  /// had been permuted at spawn time; only meaningful for scenarios whose
  /// builders and programs are invariant under process renaming
  /// (runtime::Scenario's `symmetric` declaration).
  Fingerprint fingerprint_oracle(ProcId current = kNoProc,
                                 const ProcId* rename = nullptr) const;

  /// Canonical fingerprint under process-symmetry: fingerprint_oracle()
  /// evaluated at a canonical renaming chosen in O(vars + procs·log procs)
  /// by sorting processes on renaming-invariant signatures (blob hash,
  /// last-writer references, current flag) — near-linear, replacing the old
  /// min-over-n!-renamings scheme. States in the same renaming orbit map to
  /// the same key; distinct orbits stay distinct (up to hash collision).
  /// Only sound on declared-symmetric scenarios; see docs/EXPLORER.md.
  Fingerprint fingerprint_symmetric(ProcId current = kNoProc) const;

  /// The *progress* fingerprint: fingerprint() minus the per-process
  /// labelled lane. Without Proc::at() calls that lane hashes the whole
  /// op-result history and grows monotonically, so full-state fingerprints
  /// never repeat along a run — dropping exactly that component yields an
  /// abstraction under which a spinning process or a completed lock
  /// passage returns to an earlier state. Fair-cycle detection
  /// (ExplorerConfig::liveness) keys its DFS on-stack map on this value;
  /// soundness comes from re-applying any candidate cycle and checking the
  /// key re-closes, so a hash-collision false cycle is rejected rather than
  /// reported (see docs/LIVENESS.md). Maintained by
  /// the same dirty-tracking machinery as fingerprint(), O(1) per event; a
  /// distinct domain tag keeps progress and full keys from ever colliding
  /// across key spaces.
  Fingerprint fingerprint_progress(ProcId current = kNoProc) const;

  /// True when no progress-visible component has changed since the last
  /// flush/rebuild of the incremental-fingerprint baseline: no variable was
  /// dirtied, and every dirtied process' recomputed live blob equals its
  /// baseline value — i.e. only labelled lanes moved. Read-only: neither
  /// flushes nor moves the baseline, so chained calls keep comparing
  /// against the same state. Callers must separately rule out variable
  /// *allocation* (compare n_vars() across the step): a fresh variable
  /// enters the baseline at allocation time, not through the dirty lists.
  /// This is what makes per-node liveness keying affordable — along forced
  /// spin chains the explorer proves "this step changed no progress state"
  /// from the dirty delta alone, never finalizing a key (see the fast path
  /// in explorer.cpp).
  bool progress_unchanged_since_baseline() const;

  /// Number of allocated variables (a component count of every
  /// fingerprint).
  std::size_t n_vars() const { return vars_.size(); }

  /// Debug oracle for fingerprint_progress, recomputed from scratch;
  /// `rename` as in fingerprint_oracle. Always equal to
  /// fingerprint_progress() when `rename` is null.
  Fingerprint fingerprint_progress_oracle(ProcId current = kNoProc,
                                          const ProcId* rename =
                                              nullptr) const;

  /// Canonical progress fingerprint under process-symmetry: like
  /// fingerprint_symmetric(), but both the sort signatures and the final
  /// walk use the history-free blobs — two abstractly-equal states whose
  /// histories differ must canonicalize identically, or cycles on the
  /// canonical key space would be missed.
  Fingerprint fingerprint_progress_symmetric(ProcId current = kNoProc) const;

  /// Checkpoints the complete machine + observer state. Call only between
  /// scheduler steps (never from inside an observer callback).
  SimSnapshot snapshot() const;

  /// snapshot() into an existing object, reusing its vector capacity —
  /// explorers pool snapshots to keep branch points allocation-free.
  void snapshot_into(SimSnapshot& out) const;

  /// Reinstates a snapshot taken from a simulator with the same shape: same
  /// process count, same config/observer set, and the same deterministic
  /// scenario `build`. Works on a freshly constructed simulator or in place
  /// on any simulator of that shape, whatever state it has diverged to
  /// since — the explorer's DFS keeps one simulator and restores each
  /// sibling branch into it. In-place restores reuse the process objects
  /// and their vector capacity.
  ///
  /// Only the coroutines that moved are rebuilt. A process whose
  /// incarnation, crashed/done/pending flags and op-result stream equal the
  /// snapshot's keeps its live frame: programs are deterministic functions
  /// of that stream, so the frame already sits at the snapshot's suspension
  /// point (contents are compared, not ancestry, so the snapshot need not
  /// be an ancestor of the current state). Any other process is respawned:
  /// a recovered incarnation from its recovery section, an original one
  /// from a spare, unstarted program that an earlier `build` run left
  /// behind. `build` runs only when such a process has no spare, or on a
  /// simulator with no variables yet; during a restore spawn() and
  /// set_recovery() fill empty slots and drop the rest. A respawned frame
  /// is started but is handed its recorded op results only at its first
  /// resume — never, if a crash or the next restore comes first.
  ///
  /// The builder contract this relies on: host-side state a program writes
  /// (e.g. a per-process slot cache in the lock object) may be read only by
  /// the same incarnation of the same process, because frames kept from
  /// different `build` runs point at different host objects. A builder or
  /// program that breaks determinism shows up as a respawned frame that
  /// does not reach the recorded suspension point; that is reported by a
  /// std::logic_error saying "restore diverged" — deliberately not a
  /// CheckFailure, so no explorer or fuzzer turns it into a verdict — thrown
  /// from restore() or from the step that resumes the frame first.
  void restore(const SimSnapshot& snap,
               const std::function<void(Simulator&)>& build);

 private:
  friend struct Proc::OpAwaiter;
  friend class Proc;

  void resume(Proc& p);
  void note_new_pending(Proc& p);

  // ---- restore() support (see sim.cpp) ----

  /// Hands `results` to p's frame one by one, without recording them;
  /// false if the frame stopped asking for ops before the last one.
  bool feed(Proc& p, const std::vector<Value>& results);
  /// The owed half of restore(): feeds p's recorded results at its first
  /// resume and checks the frame reached the pending op the state says.
  void fast_forward(Proc& p);

  // ---- incremental fingerprint maintenance (see sim.cpp) ----

  /// Marks p's blob component stale; fingerprint() re-folds it. O(1).
  void fp_dirty_proc(ProcId p) const;
  /// Marks v's component stale; fingerprint() re-folds it. O(1).
  void fp_dirty_var(VarId v) const;
  /// Appends a component slot for a newly allocated variable.
  void fp_grow_var();
  /// Recomputes every component and both accumulators from the live state
  /// (used by restore(); also the body of the audit oracle).
  void fp_rebuild() const;
  /// Folds all dirty components back into the accumulators.
  void fp_flush() const;

  /// Stamps the event, counts it, and runs the observer pipeline.
  void dispatch(Proc& p, Event& e, const StepContext& ctx);
  void notify_directive(const Directive& d);

  void do_commit(Proc& p, std::size_t index = 0);
  void perform_read(Proc& p);
  void perform_write_issue(Proc& p);
  void perform_cas(Proc& p);
  void perform_transition(Proc& p);

  SimConfig config_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<Task<>> programs_;
  /// Unstarted programs a builder run inside restore() spawned for a
  /// process whose slot was empty; the next respawn of that process'
  /// original incarnation starts one instead of re-running the builder.
  std::vector<Task<>> spares_;
  /// Per process: the frame was respawned by restore() and still owes the
  /// results in op_results_; fast_forward() feeds them at its first resume.
  std::vector<std::uint8_t> owed_;
  /// Per-process scratch for restore(): the frame must be respawned.
  std::vector<std::uint8_t> respawn_;
  std::vector<RecoveryFactory> recovery_;
  std::vector<Variable> vars_;
  std::uint64_t seq_ = 0;
  DynBitset touched_;  ///< processes that issued at least one event
  std::uint64_t work_events_ = 0;
  std::uint64_t* events_sink_ = nullptr;
  bool restoring_ = false;

  // Incremental fingerprint state. The fingerprint is a pure function of
  // the machine state, so the caches are `mutable`: fingerprint() flushes
  // the dirty lists from const context. fp_x_ is an XOR of per-component
  // scrambles, fp_s_ a sum of independently scrambled ones — two invertible
  // commutative group operations, so a changed component folds out in O(1).
  mutable std::vector<std::uint64_t> fp_var_;   ///< per-variable components
  mutable std::vector<std::uint64_t> fp_proc_;  ///< per-process blob hashes
  /// Lane-free per-process blob hashes (the progress-fingerprint lane).
  /// A full blob is fp_fold(live blob, op_history_hash), so both are
  /// computed in one pass and share the dirty tracking below.
  mutable std::vector<std::uint64_t> fp_proc_live_;
  mutable std::uint64_t fp_x_ = 0;
  mutable std::uint64_t fp_s_ = 0;
  mutable std::uint64_t fp_lx_ = 0;  ///< progress-lane XOR accumulator
  mutable std::uint64_t fp_ls_ = 0;  ///< progress-lane SUM accumulator
  mutable std::vector<VarId> fp_dirty_vars_;
  mutable std::vector<ProcId> fp_dirty_procs_;
  mutable std::vector<std::uint8_t> fp_var_stale_;
  mutable std::vector<std::uint8_t> fp_proc_stale_;
  /// Scratch for fingerprint_symmetric (avoids per-call allocation).
  mutable std::vector<ProcId> fp_rank_;
  mutable std::vector<std::uint64_t> fp_wref_;
  mutable std::vector<ProcId> fp_order_;

  std::vector<std::unique_ptr<SimObserver>> observers_;
  // Raw views into observers_ for the hot paths / typed accessors.
  CostObserver* cost_ = nullptr;
  AwarenessObserver* awareness_ = nullptr;
  TraceRecorder* recorder_ = nullptr;
};

}  // namespace tpa::tso

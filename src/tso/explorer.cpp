#include "tso/explorer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <limits>
#include <list>
#include <memory>
#include <sstream>
#include <utility>

#include "trace/campaign.h"
#include "tso/fuzz.h"
#include "tso/visited.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/work_queue.h"

namespace tpa::tso {

const char* to_string(DedupMode m) {
  return m == DedupMode::kOff ? "off" : "state";
}

DedupMode dedup_mode_from_string(const std::string& name) {
  if (name == "off") return DedupMode::kOff;
  if (name == "state") return DedupMode::kState;
  TPA_FAIL("unknown DedupMode name '" << name << "'");
}

const char* to_string(SymmetryMode m) {
  return m == SymmetryMode::kOff ? "off" : "canonical";
}

SymmetryMode symmetry_mode_from_string(const std::string& name) {
  if (name == "off") return SymmetryMode::kOff;
  if (name == "canonical") return SymmetryMode::kCanonical;
  TPA_FAIL("unknown SymmetryMode name '" << name << "'");
}

const char* to_string(LivenessMode m) {
  return m == LivenessMode::kOff ? "off" : "check";
}

LivenessMode liveness_mode_from_string(const std::string& name) {
  if (name == "off") return LivenessMode::kOff;
  if (name == "check") return LivenessMode::kCheck;
  TPA_FAIL("unknown LivenessMode name '" << name << "'");
}

std::string ExplorerResult::to_json() const {
  std::ostringstream os;
  os << "{";
  json_fields(os);
  os << ",\"exhausted\":" << (exhausted ? "true" : "false")
     << ",\"snapshots\":" << snapshots << ",\"restores\":" << restores
     << ",\"dedup_hits\":" << dedup_hits
     << ",\"dedup_states\":" << dedup_states
     << ",\"dedup_entries\":" << dedup_entries
     << ",\"dedup_bytes\":" << dedup_bytes
     << ",\"dedup_evictions\":" << dedup_evictions << "}";
  return os.str();
}

void ExplorerResult::merge(const ExplorerResult& later) {
  schedules += later.schedules;
  steps += later.steps;
  truncated += later.truncated;
  snapshots += later.snapshots;
  restores += later.restores;
  dedup_hits += later.dedup_hits;
  dedup_states += later.dedup_states;
  dedup_evictions += later.dedup_evictions;
  exhausted = exhausted && later.exhausted;
  deadline_hit = deadline_hit || later.deadline_hit;
  if (!verdict.found()) verdict = later.verdict;
}

namespace {

// ---- shared cross-thread exploration state ------------------------------

struct Shared {
  Shared(std::uint64_t budget, std::uint64_t time_budget_ms)
      : max_schedules(budget),
        deadline(deadline_after(time_budget_ms)),
        has_deadline(deadline != kNoDeadline) {}

  const std::uint64_t max_schedules;
  const std::chrono::steady_clock::time_point deadline;
  const bool has_deadline;
  std::atomic<bool> deadline_tripped{false};
  std::atomic<std::uint64_t> used{0};  ///< schedules + truncated, all threads
  std::atomic<bool> over{false};       ///< budget tripped somewhere
  /// Smallest frontier index that found a violation. Subtrees with larger
  /// indices abandon early: their violation could never win, so the
  /// reported witness is independent of thread timing.
  std::atomic<std::size_t> winner{std::numeric_limits<std::size_t>::max()};
  /// The cross-thread visited set; null unless DedupMode::kState.
  std::unique_ptr<VisitedSet> visited;

  bool over_budget() {
    if (used.load(std::memory_order_relaxed) >= max_schedules) {
      over.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  void charge() { used.fetch_add(1, std::memory_order_relaxed); }
  /// Trips the watchdog if `now` is past the deadline. Once tripped, the
  /// flag stays set and every thread stops at its next poll. Only the DFS
  /// reads the clock, on a stride (see Dfs::past_deadline).
  void check_deadline(std::chrono::steady_clock::time_point now) {
    if (has_deadline && now >= deadline)
      deadline_tripped.store(true, std::memory_order_relaxed);
  }
  void claim(std::size_t index) {
    std::size_t cur = winner.load(std::memory_order_relaxed);
    while (index < cur && !winner.compare_exchange_weak(
                              cur, index, std::memory_order_relaxed)) {
    }
  }
  bool beaten(std::size_t index) const {
    return winner.load(std::memory_order_relaxed) < index;
  }
};

/// The directive one scheduler step for p resolves to: delivering its next
/// program event if it has one, otherwise a head commit draining its buffer.
/// Exactly the step the old deliver-then-commit probing applied, but named
/// up front so the explorer can log schedules without a TraceRecorder.
Directive make_directive(const Simulator& sim, ProcId p) {
  const Proc& proc = sim.proc(p);
  if (proc.crashed()) return {ActionKind::kRecover, p};
  if (!proc.done() && proc.has_pending()) return {ActionKind::kDeliver, p};
  return {ActionKind::kCommit, p, kNoVar};
}

// ---- child enumeration (shared by the DFS, checkpoints and the pre-pass) --

/// One child of a node: the directive that enters it and the scheduler /
/// adversary context it starts with. Computed while the parent state is
/// intact, so a campaign checkpoint or the parallel pre-pass can hand an
/// unexplored child on as a frontier node without touching the simulator.
struct Child {
  Directive d;
  ProcId current = kNoProc;
  int preemptions = 0;
  int crashes_left = 0;
};

struct Children {
  std::vector<ProcId> cand;  ///< processes that can act (the enabled set)
  std::vector<Child> list;   ///< in DFS order: scheduling, then crash
};

/// The one place the budget rules live. Scheduling children come first, in
/// a stable order: continuing the current process is free, preempting it
/// costs one preemption, and if the current process cannot act, switching
/// is free. Crash children come last: a crash is an adversary move, not a
/// context switch — it keeps `current`, costs no preemption and spends one
/// crash. With crashes_left == 0 the list is bit-identical to a crash-free
/// exploration. Fills `out` in place (clearing it first), so a caller that
/// recycles it allocates nothing.
void enumerate_children(const Simulator& sim, std::size_t n, ProcId current,
                        int preemptions, int crashes_left, Children& out) {
  out.cand.clear();
  out.list.clear();
  for (std::size_t p = 0; p < n; ++p)
    if (sim.can_act(static_cast<ProcId>(p)))
      out.cand.push_back(static_cast<ProcId>(p));
  const bool current_runnable =
      current != kNoProc &&
      std::find(out.cand.begin(), out.cand.end(), current) != out.cand.end();
  auto schedule = [&](ProcId p, int cost) {
    out.list.push_back(
        Child{make_directive(sim, p), p, preemptions - cost, crashes_left});
  };
  if (current_runnable) {
    schedule(current, 0);
    if (preemptions > 0)
      for (const ProcId p : out.cand)
        if (p != current) schedule(p, 1);
  } else {
    for (const ProcId p : out.cand) schedule(p, 0);
  }
  if (crashes_left > 0)
    for (std::size_t p = 0; p < n; ++p)
      if (sim.can_crash(static_cast<ProcId>(p)))
        out.list.push_back(Child{{ActionKind::kCrash, static_cast<ProcId>(p)},
                                 current, preemptions, crashes_left - 1});
}

// ---- durable campaign checkpointing --------------------------------------

/// The recursion stack's view of one branch point: the children of the
/// node at depth `prefix_len` (whose directive prefix is the first
/// `prefix_len` entries of the DFS' running `dirs_`) from `next` on are
/// still unexplored.
struct Level {
  std::size_t prefix_len = 0;
  std::size_t next = 0;
};

/// Shared context for campaign-mode exploration (sequential only). The
/// checkpoint a Dfs writes is (aggregate stats so far) + (every unexplored
/// subtree root): the current node, the open levels' pending children
/// innermost-first, then the outer frontier nodes not yet started. That
/// tiles the remaining schedule tree exactly — resuming from any checkpoint
/// reproduces the uninterrupted run's verdict, witness and (dedup off)
/// counts; work done after the checkpoint is simply redone.
struct CampaignRecorder {
  std::string path;
  std::chrono::milliseconds interval{250};
  std::chrono::steady_clock::time_point next_write;
  bool suspended = false;  ///< deadline checkpoint written; no more writes
  /// Identity + config fields, with stats holding the *baseline* carried in
  /// from the resumed file (all zero for a fresh campaign).
  trace::Campaign base;
  /// Accumulated stats of frontier nodes already fully explored this leg.
  ExplorerResult done;
  /// Frontier nodes of this leg; [outer_next..) are not yet started.
  const std::vector<trace::CampaignNode>* outer = nullptr;
  std::size_t outer_next = 0;
};

/// A campaign's recorded stats, exhaustion and verdict as a result. With
/// store_result, the one place Campaign and ExplorerResult fields meet.
ExplorerResult result_of(const trace::Campaign& c) {
  ExplorerResult r;
  r.schedules = c.schedules;
  r.steps = c.steps;
  r.truncated = c.truncated;
  r.snapshots = c.snapshots;
  r.restores = c.restores;
  r.dedup_hits = c.dedup_hits;
  r.dedup_states = c.dedup_states;
  r.dedup_evictions = c.dedup_evictions;
  r.exhausted = c.exhausted;
  r.verdict = c.verdict;
  return r;
}

void store_result(trace::Campaign& c, const ExplorerResult& r) {
  c.schedules = r.schedules;
  c.steps = r.steps;
  c.truncated = r.truncated;
  c.snapshots = r.snapshots;
  c.restores = r.restores;
  c.dedup_hits = r.dedup_hits;
  c.dedup_states = r.dedup_states;
  c.dedup_evictions = r.dedup_evictions;
  c.exhausted = r.exhausted;
  c.verdict = r.verdict;
}

// ---- the DFS core: explores the subtree under one frontier node ----------

class Dfs {
 public:
  /// Forced-chain states are dedup-checked every this-many depths (see the
  /// engagement rule in dfs()); bounds how far past a convergence point a
  /// redundant chain can run before it is pruned.
  static constexpr std::size_t kChainStride = 8;
  /// The stop poll reads the wall clock on every this-many polls (the
  /// first included) and only loads the watchdog flag in between: a
  /// steady_clock read costs about a fifth of a DFS node. The same
  /// `(i & 0xff)` cadence runtime::run_stress uses; it delays a watchdog
  /// trip or a due checkpoint by at most this many polls — tens of
  /// microseconds.
  static constexpr std::uint32_t kClockStride = 256;

  Dfs(std::size_t n_procs, const SimConfig& sim_config,
      const ScenarioBuilder& build, const ExplorerConfig& config,
      Shared* shared, std::size_t index, CampaignRecorder* camp = nullptr)
      : n_(n_procs),
        sim_cfg_(sim_config),
        build_(build),
        cfg_(config),
        shared_(shared),
        index_(index),
        camp_(camp),
        clocked_(shared->has_deadline || camp != nullptr),
        dedup_(config.dedup != DedupMode::kOff),
        symmetric_(config.symmetric_processes == SymmetryMode::kCanonical),
        liveness_(config.liveness == LivenessMode::kCheck) {}

  /// Explores the subtree rooted at frontier node `node` — the root, a
  /// campaign file's node or a parallel pre-pass node. A node's last
  /// directive is not applied yet: the parent state is restored from
  /// `parent` when given and otherwise replayed from the root, and the
  /// directive applies here, inside the violation catch, so a violating
  /// step is recorded (and claimed) at this node's frontier index.
  void run_from(const trace::CampaignNode& node,
                const SimSnapshot* parent = nullptr) {
    dirs_ = node.dirs;
    last_sched_.assign(n_, 0);
    for (std::size_t k = 0; k < dirs_.size(); ++k)
      last_sched_[dirs_[k].proc] = k + 1;
    sim_ = std::make_unique<Simulator>(n_, sim_cfg_);
    sim_->count_events_into(&result_.steps);
    try {
      if (parent != nullptr) {
        sim_->restore(*parent, build_);
        result_.restores++;
      } else {
        build_(*sim_);
        for (std::size_t k = 0; k + 1 < dirs_.size(); ++k) {
          const bool ok = sim_->apply(dirs_[k]);
          TPA_CHECK(ok, "explorer replay diverged at p" << dirs_[k].proc);
        }
      }
      if (!dirs_.empty()) {
        const bool ok = sim_->apply(dirs_.back());
        TPA_CHECK(ok, "candidate p" << dirs_.back().proc << " could not act");
      }
    } catch (const CheckFailure& e) {
      record_violation(e.what());
      return;
    }
    if (liveness_ && !dirs_.empty()) seed_onstack();
    dfs(node.current, node.preemptions, node.crashes_left);
  }

  ExplorerResult take_result() { return std::move(result_); }

 private:
  /// The visited-set key: the (incrementally maintained) state fingerprint
  /// with `current` folded in, canonicalized by sorting renaming-invariant
  /// per-process signatures when symmetry reduction is on — near-linear in
  /// state size, never an enumeration of renamings.
  Fingerprint state_key(const Simulator& sim, ProcId current) const {
    return symmetric_ ? sim.fingerprint_symmetric(current)
                      : sim.fingerprint(current);
  }

  /// The liveness detector's key: the lane-free progress fingerprint (so
  /// abstract states can recur along a run), canonicalized under symmetry
  /// exactly like state_key.
  Fingerprint progress_key(const Simulator& sim, ProcId current) const {
    return symmetric_ ? sim.fingerprint_progress_symmetric(current)
                      : sim.fingerprint_progress(current);
  }

  /// Re-anchors the dirty-delta baseline after the simulator was restored
  /// for a sibling: an in-place snapshot restore ends in a full fingerprint
  /// rebuild at this node's state, so the baseline is exactly here.
  void reanchor_baseline(std::size_t depth, ProcId current,
                         std::size_t n_vars) {
    baseline_depth_ = depth;
    baseline_current_ = current;
    baseline_nvars_ = n_vars;
  }

  /// Rebuilds the on-stack index for a frontier node's directive prefix:
  /// the resumed Dfs must see the same stack ancestry the uninterrupted run
  /// had at this node, or a cycle closing against a prefix state would go
  /// undetected after a resume. Replays on an uncounted scratch simulator
  /// (stats of the prefix were already charged before the checkpoint);
  /// depth L is keyed *before* directive L applies, and the node's own key
  /// (depth dirs_.size()) is pushed by dfs() itself. Seeded entries are
  /// never popped: this Dfs never unwinds above its starting node.
  void seed_onstack() {
    onstack_.clear();
    auto sim = std::make_unique<Simulator>(n_, sim_cfg_);
    build_(*sim);
    ProcId current = kNoProc;
    for (std::size_t depth = 0; depth < dirs_.size(); ++depth) {
      onstack_.push(progress_key(*sim, current), depth);
      const Directive& d = dirs_[depth];
      const bool ok = sim->apply(d);
      TPA_CHECK(ok, "liveness: on-stack seeding diverged at p" << d.proc);
      if (d.kind != ActionKind::kCrash) current = d.proc;
    }
  }

  /// Verifies the candidate cycle dirs_[cycle_start..] — the current node's
  /// progress key matched the stack entry at that depth — by strictly
  /// re-applying it once from the current state, and classifies it by
  /// watching per-process sections (see replay_lasso for the shared
  /// definition). Returns kClean both for genuine progress cycles and for
  /// candidates that fail to re-close (hash collisions, control-point
  /// aliasing) or fail the weak-fairness filter; only kStarvation /
  /// kLivelock verdicts come back. The simulator is restored to its entry
  /// state before returning, whatever the outcome.
  VerdictKind verify_cycle(Simulator& sim, ProcId current,
                           std::size_t cycle_start, const Fingerprint& key,
                           std::string* msg) {
    const PooledSnapshot snap = take_snapshot(sim);
    std::vector<Status> status0(n_);
    std::vector<char> enabled(n_, 0), scheduled(n_, 0), changed(n_, 0);
    for (std::size_t q = 0; q < n_; ++q) {
      status0[q] = sim.proc(static_cast<ProcId>(q)).status();
      enabled[q] = sim.can_act(static_cast<ProcId>(q)) ? 1 : 0;
    }
    bool closed = true;
    ProcId cur = current;
    for (std::size_t k = cycle_start; k < dirs_.size() && closed; ++k) {
      const Directive& d = dirs_[k];
      bool ok = false;
      try {
        ok = sim.apply(d);
      } catch (const CheckFailure&) {
        ok = false;  // a safety raise here means this is no cycle
      }
      if (!ok) {
        closed = false;
        break;
      }
      if (d.kind != ActionKind::kCrash) cur = d.proc;
      if (d.proc != kNoProc && static_cast<std::size_t>(d.proc) < n_)
        scheduled[static_cast<std::size_t>(d.proc)] = 1;
      for (std::size_t q = 0; q < n_; ++q)
        if (sim.proc(static_cast<ProcId>(q)).status() != status0[q])
          changed[q] = 1;
    }
    if (closed) closed = progress_key(sim, cur) == key;
    if (closed) {
      // Weak fairness: a cycle that perpetually ignores an enabled process
      // describes an unfair scheduler, not the algorithm.
      for (std::size_t q = 0; q < n_; ++q)
        if (enabled[q] && !scheduled[q]) closed = false;
    }
    VerdictKind kind = VerdictKind::kClean;
    if (closed) {
      ProcId starved = kNoProc;
      bool any_change = false;
      for (std::size_t q = 0; q < n_; ++q) {
        any_change |= changed[q] != 0;
        if (status0[q] == Status::kEntry && !changed[q] && starved == kNoProc)
          starved = static_cast<ProcId>(q);
      }
      const std::size_t len = dirs_.size() - cycle_start;
      if (starved != kNoProc) {
        kind = VerdictKind::kStarvation;
        std::ostringstream os;
        os << "liveness: fair cycle of " << len << " steps starves p"
           << starved << " — in the entry section across the whole cycle "
           << "while every enabled process is scheduled";
        *msg = os.str();
      } else if (!any_change) {
        kind = VerdictKind::kLivelock;
        std::ostringstream os;
        os << "liveness: fair cycle of " << len
           << " steps where no process changes section — collective "
           << "livelock";
        *msg = os.str();
      }
    }
    sim.restore(*snap, build_);
    result_.restores++;
    return kind;
  }

  /// Snapshot pooling: a branch point's snapshot dies as soon as its last
  /// sibling restores from it, so the DFS holds only O(depth) snapshots at
  /// a time and their ProcState vectors (buffers, op histories, passages)
  /// can be recycled instead of reallocated at every branch point. Pool
  /// entries are owned by this Dfs; a pooled snapshot never crosses
  /// threads, because Dfs-created snapshots stay inside its own recursion.
  /// That single owner is also why a unique_ptr whose deleter hands the
  /// snapshot back to the pool suffices — no shared control block.
  struct ReturnToPool {
    std::vector<std::unique_ptr<SimSnapshot>>* pool;
    void operator()(SimSnapshot* s) const { pool->emplace_back(s); }
  };
  using PooledSnapshot = std::unique_ptr<SimSnapshot, ReturnToPool>;

  PooledSnapshot take_snapshot(const Simulator& sim) {
    std::unique_ptr<SimSnapshot> s;
    if (!snap_pool_.empty()) {
      s = std::move(snap_pool_.back());
      snap_pool_.pop_back();
    } else {
      s = std::make_unique<SimSnapshot>();
    }
    sim.snapshot_into(*s);
    result_.snapshots++;
    return PooledSnapshot(s.release(), ReturnToPool{&snap_pool_});
  }

  void record_visited(const Fingerprint& key, const VisitedSet::Budget& b) {
    if (shared_->visited->insert(key, b)) result_.dedup_states++;
  }

  /// Serializes the current checkpoint: baseline + finished-node + this
  /// node's partial stats, and every unexplored subtree root — optionally
  /// the node being entered, then the open levels' pending children
  /// (innermost first — DFS completion order), then the outer frontier.
  void write_checkpoint(bool include_current, ProcId current, int preemptions,
                        int crashes_left) {
    ExplorerResult sofar = result_of(camp_->base);
    sofar.merge(camp_->done);
    sofar.merge(result_);
    if (shared_->visited != nullptr)
      sofar.dedup_evictions += shared_->visited->evictions();
    trace::Campaign c = camp_->base;
    store_result(c, sofar);
    c.exhausted = true;  // only the terminal record carries an outcome
    c.verdict = {};
    if (include_current)
      c.frontier.push_back(
          trace::CampaignNode{current, preemptions, crashes_left, dirs_});
    for (std::size_t l = open_levels_; l-- > 0;) {
      const Level& lvl = levels_[l];
      const std::vector<Child>& kids = kids_[lvl.prefix_len].list;
      for (std::size_t k = lvl.next; k < kids.size(); ++k) {
        const Child& ch = kids[k];
        trace::CampaignNode node{
            ch.current, ch.preemptions, ch.crashes_left,
            {dirs_.begin(),
             dirs_.begin() + static_cast<std::ptrdiff_t>(lvl.prefix_len)}};
        node.dirs.push_back(ch.d);
        c.frontier.push_back(std::move(node));
      }
    }
    if (camp_->outer != nullptr)
      for (std::size_t k = camp_->outer_next; k < camp_->outer->size(); ++k)
        c.frontier.push_back((*camp_->outer)[k]);
    trace::write_campaign_file(camp_->path, c);
  }

  /// Periodic checkpoint, rate-limited by the configured interval: the
  /// stop poll's clock read marks it due once `next_write` has passed, and
  /// it is written at the next node entry (never mid-unwind), where the
  /// level stack is a consistent picture of the remaining work.
  /// Self-pacing: a checkpoint write is fsync-bound and can cost more than
  /// the interval itself (slow or containerized filesystems), and a naive
  /// `now - last >= interval` check then fires at every clock read — the
  /// exploration starves on its own durability. Deferring the next write
  /// by a multiple of the last write's measured cost bounds checkpoint
  /// overhead at ~20% of wall clock whatever the filesystem does.
  void write_periodic(ProcId current, int preemptions, int crashes_left) {
    checkpoint_due_ = false;
    const auto start = std::chrono::steady_clock::now();
    write_checkpoint(/*include_current=*/true, current, preemptions,
                     crashes_left);
    const auto end = std::chrono::steady_clock::now();
    camp_->next_write = end + std::max<std::chrono::steady_clock::duration>(
                                  camp_->interval, (end - start) * 4);
  }

  /// One-time checkpoint when the wall-clock budget trips, taken at the
  /// stop() site that first observes it (the stack is consistent there) so
  /// the suspended campaign loses no more work than one subtree step. Other
  /// stop causes don't suspend: a violation or exhausted schedule budget
  /// ends the campaign terminally in explore_impl.
  void maybe_suspend(bool include_current, ProcId current, int preemptions,
                     int crashes_left) {
    if (camp_ == nullptr || camp_->suspended) return;
    if (!shared_->deadline_tripped.load(std::memory_order_relaxed)) return;
    camp_->suspended = true;
    write_checkpoint(include_current, current, preemptions, crashes_left);
  }

  bool stop() {
    if (result_.verdict.found()) return true;
    if (shared_->beaten(index_)) return true;
    if (shared_->over_budget()) {
      result_.exhausted = false;
      return true;
    }
    if (past_deadline()) {
      result_.exhausted = false;
      return true;
    }
    return false;
  }

  /// The watchdog half of stop(), and the one place the DFS reads the
  /// clock: every kClockStride-th poll trips the shared watchdog if the
  /// deadline has passed and marks a campaign checkpoint due if the
  /// cadence says so. Other polls only load the tripped flag — which any
  /// thread may have set.
  bool past_deadline() {
    if (clocked_ && --polls_to_clock_ == 0) {
      polls_to_clock_ = kClockStride;
      const auto now = std::chrono::steady_clock::now();
      shared_->check_deadline(now);
      if (camp_ != nullptr && now >= camp_->next_write) checkpoint_due_ = true;
    }
    return shared_->deadline_tripped.load(std::memory_order_relaxed);
  }

  /// `dirs_` must already end with the violating directive (for step
  /// violations) or hold the complete schedule (for hook violations).
  void record_violation(const char* what) {
    record_verdict(VerdictKind::kSafety, what, kNoCycle);
  }

  /// Generalized verdict recording: `dirs_` is the witness; liveness kinds
  /// mark the lasso's cycle entry via `cycle_start`.
  void record_verdict(VerdictKind kind, std::string what,
                      std::size_t cycle_start) {
    result_.verdict.kind = kind;
    result_.verdict.message = std::move(what);
    result_.verdict.witness = dirs_;
    result_.verdict.cycle_start = cycle_start;
    shared_->claim(index_);
  }

  /// Explores the subtree rooted at the current state. Returns true iff the
  /// subtree was *fully* explored and found violation-free — the only
  /// condition under which its (fingerprint, budget) may enter the visited
  /// set. A truncated node counts as fully explored *for its budget*: the
  /// step cap is part of the budget tuple, so dominance accounts for it.
  /// Insertion is strictly post-order; a concurrent worker can therefore
  /// trust any entry it reads, which keeps cross-thread pruning sound.
  ///
  /// The subtree is explored on the Dfs' one simulator, `sim_`, which must
  /// hold this node's state on entry and is left wherever the last explored
  /// leaf put it; each sibling after the first rewinds it in place.
  bool dfs(ProcId current, int preemptions, int crashes_left) {
    if (stop()) {
      maybe_suspend(/*include_current=*/true, current, preemptions,
                    crashes_left);
      return false;
    }
    if (checkpoint_due_) write_periodic(current, preemptions, crashes_left);
    if (dirs_.size() >= cfg_.max_steps) {
      result_.truncated++;
      shared_->charge();
      return true;
    }

    // Per-depth scratch: a deque never relocates its elements as it grows,
    // so this reference survives the deeper levels' emplace_backs, and the
    // recycled vectors keep their capacity from earlier visits.
    const std::size_t node_depth = dirs_.size();
    while (kids_.size() <= node_depth) kids_.emplace_back();
    Children& kids = kids_[node_depth];
    enumerate_children(*sim_, n_, current, preemptions, crashes_left, kids);

    // Liveness: if this node's progress key is already on the DFS stack,
    // the suffix dirs_[depth..] is a candidate fair cycle — verify it by
    // re-application and classify. Checked at *every* node (unlike dedup's
    // branch/stride engagement): a cycle can close anywhere along a forced
    // chain. Runs before the subsumed() prune so a revisit that would be
    // pruned still gets its closure checked at this node.
    //
    // Liveness keying is throttled by a *dirty-delta baseline*: the
    // explorer tracks which ancestor's state the simulator's incremental
    // fingerprint was last flushed at, and proves "this node's progress
    // state equals that ancestor's" by recomparing the dirtied live blobs
    // — never flushing, never finalizing a key. Three node classes emerge:
    //
    //  - closes-on-baseline: the delta is empty, so this node revisits the
    //    baseline ancestor's abstract state. The suffix dirs_[base..] is a
    //    candidate fair cycle, checked by the same pre-filter + verifier
    //    as a map hit; the key is finalized only when the candidate is
    //    actually fair (rare). The spin chains that dominate forced
    //    suffixes resolve here: a 1-read spin closes on its parent, a
    //    2-read spin (tournament-style) settles into a skip/close
    //    alternation — either way zero flushes and zero map traffic.
    //  - skip: the delta is non-empty, fewer than kLiveKeyStride nodes
    //    were skipped since the last check, and dedup is not flushing here
    //    anyway — defer. Deferring is what lets short-period spins close
    //    instead of dragging the baseline along phase by phase; a cycle
    //    that would have closed at a skipped node closes at a later keyed
    //    recurrence of its key instead. A real fair cycle repeats forever,
    //    so a keying cadence of every <= kLiveKeyStride+1 unequal nodes
    //    still meets it — detection shifts by at most a few periods (the
    //    two cadences must realign, lcm-style), and the verified witness
    //    may span multiple laps, which shrinking then trims.
    //  - keyed (at the root, at every dedup node, and at least every
    //    kLiveKeyStride+1 nodes in between): flush, finalize, and consult
    //    the on-stack index. Aligning with dedup nodes makes most keys
    //    piggyback on a flush the dedup key pays for regardless. The push
    //    doubles as the lookup (one probe, not two): it binds this node's
    //    key to this depth — displacing any shallower binding, so
    //    descendants close against the *nearest* occurrence — and returns
    //    the previous binding, which is exactly the candidate cycle's
    //    start.
    //
    // The delta comparison stays valid across the flushes other machinery
    // interleaves: a dedup key at a stride node consumes the delta, and a
    // restore between siblings rebuilds from scratch — both re-anchor the
    // baseline at the node that caused them, and both sites update the
    // explorer's bookkeeping. Variable allocation moves the baseline
    // outside the dirty lists, so the var count is compared across the
    // step as well. A stale anchor (should one slip through) cannot
    // produce a false verdict: every candidate is re-applied strictly and
    // must re-close under the finalized key before it is reported.
    //
    // The pops below only run on the paths that complete this subtree;
    // every `return false` in between is a sticky stop (violation, budget,
    // deadline, beaten) after which this Dfs never recurses again, so a
    // stale binding can never be consulted.
    Fingerprint pkey{};
    std::size_t pkey_prev = OnStackMap::kNotOnStack;
    bool pkey_pushed = false;
    const std::size_t node_nvars = sim_->n_vars();
    const bool dedup_here =
        dedup_ && (kids.list.size() > 1 || node_depth % kChainStride == 0);
    if (liveness_) {
      std::size_t anc = OnStackMap::kNotOnStack;
      bool have_pkey = false;
      bool checked = false;
      if (baseline_depth_ < node_depth && current == baseline_current_ &&
          node_nvars == baseline_nvars_ &&
          sim_->progress_unchanged_since_baseline()) {
        anc = baseline_depth_;
        checked = true;
        // The flushed caches describe a progress state this node was just
        // proven to share, so the baseline label can move here: windows
        // stay one period wide (the nearest occurrence, not the oldest),
        // which keeps candidate cycles single-lap and the fairness filter
        // tight.
        baseline_depth_ = node_depth;
      } else if (!dedup_here && skips_since_check_ < kLiveKeyStride) {
        skips_since_check_++;
      } else {
        pkey = progress_key(*sim_, current);
        have_pkey = true;
        baseline_depth_ = node_depth;
        baseline_current_ = current;
        baseline_nvars_ = node_nvars;
        pkey_prev = onstack_.push(pkey, node_depth);
        pkey_pushed = true;
        if (pkey_prev != OnStackMap::kNotOnStack && pkey_prev < node_depth)
          anc = pkey_prev;
        checked = true;
      }
      if (checked) {
        skips_since_check_ = 0;
        if (anc != OnStackMap::kNotOnStack) {
          // Cheap weak-fairness pre-filter before the expensive snapshot +
          // re-application: can_act() reads only fields the progress blob
          // captures, so the enabled set at the cycle's entry equals the
          // enabled set at its closing end — kids.cand, already enumerated.
          // A closure that never schedules some enabled process (the
          // ubiquitous spin-loop revisit) is unfair and rejected from the
          // directive suffix alone; without this filter verification
          // dominates the wall clock on clean scopes (~20x, not the
          // budgeted <10%).
          // "p was scheduled in dirs_[anc..)" == "p's most recent directive
          // is at depth >= anc" — last_sched_ keeps exactly that (as
          // depth+1, 0 = never), maintained O(1) per step with an undo on
          // backtrack, so the filter costs O(|cand|) however wide the
          // candidate window has grown.
          bool maybe_fair = node_depth - anc >= kids.cand.size();
          for (std::size_t c = 0; maybe_fair && c < kids.cand.size(); ++c)
            maybe_fair = last_sched_[kids.cand[c]] > anc;
          if (maybe_fair) {
            if (!have_pkey) {
              pkey = progress_key(*sim_, current);
              baseline_depth_ = node_depth;
              baseline_current_ = current;
              baseline_nvars_ = node_nvars;
            }
            std::string msg;
            const VerdictKind kind =
                verify_cycle(*sim_, current, anc, pkey, &msg);
            if (kind != VerdictKind::kClean) {
              record_verdict(kind, std::move(msg), anc);
              return false;
            }
          }
        }
      }
    }

    // Dedup engages at *branch* nodes (two or more children) and at every
    // kChainStride-th depth along forced chains, not at every node. A chain
    // node's subtree is determined by its single forced move, so a
    // convergent path is still pruned within at most kChainStride forced
    // steps of where per-node checking would have caught it — while the
    // fingerprint + two probes per machine event used to dominate the wall
    // clock (the visited set saw ~60x more traffic than it had branch
    // nodes). Checking branch nodes alone is not enough: once the
    // preemption budget is spent, whole suffixes become forced chains and
    // low-budget scopes (recoverable-2p) lose nearly all their pruning.
    // Soundness is untouched either way: pruning any fully-explored
    // violation-free subtree is sound no matter at which nodes the check
    // happens to run, and the engagement rule is a deterministic function
    // of the node (child count, depth), so verdicts stay reproducible.
    Fingerprint key{};
    const VisitedSet::Budget budget{preemptions, crashes_left,
                                    cfg_.max_steps - dirs_.size()};
    if (dedup_here) {
      key = state_key(*sim_, current);
      if (liveness_) {
        // The dedup key's flush consumed the dirty delta: the baseline the
        // liveness fast path compares against is now this node.
        baseline_depth_ = node_depth;
        baseline_current_ = current;
        baseline_nvars_ = node_nvars;
      }
      if (shared_->visited->subsumed(key, budget)) {
        // A previous visit fully explored this state, violation-free, with
        // at least our remaining budgets: nothing below can be new, and
        // nothing below can violate — so pruning cannot change the verdict
        // or the first-in-DFS-order witness.
        result_.dedup_hits++;
        if (pkey_pushed) onstack_.pop(pkey, pkey_prev);
        return true;
      }
    }

    if (kids.cand.empty()) {
      // Liveness: no candidate can act, yet some process has neither run to
      // completion nor crashed away — a deadlock, not a complete schedule.
      // (A crashed process with a recovery section would still be a
      // candidate, so its absence here is terminal.) The stem alone is the
      // witness: there is no cycle to mark.
      if (liveness_) {
        for (std::size_t q = 0; q < n_; ++q) {
          const Proc& proc = sim_->proc(static_cast<ProcId>(q));
          if (!proc.done() && !proc.crashed()) {
            std::ostringstream os;
            os << "liveness: deadlock — p" << q << " has not completed but "
               << "no process can take a step";
            record_verdict(VerdictKind::kDeadlock, os.str(), kNoCycle);
            return false;
          }
        }
      }
      result_.schedules++;  // a complete schedule: everyone done & drained
      shared_->charge();
      if (cfg_.on_complete) {
        try {
          cfg_.on_complete(*sim_);
        } catch (const CheckFailure& e) {
          record_violation(e.what());
          return false;
        }
      }
      if (dedup_here) record_visited(key, budget);
      if (pkey_pushed) onstack_.pop(pkey, pkey_prev);
      return true;
    }

    // Branch point: checkpoint once, then every sibling after the first
    // restores from here instead of replaying `dirs_` from the root.
    PooledSnapshot snap;
    if (kids.list.size() > 1) snap = take_snapshot(*sim_);

    // Campaign mode: open this branch point's level, so a checkpoint taken
    // anywhere in the subtree can serialize the still-pending children
    // from kids_. Entries past open_levels_ are kept for reuse.
    if (camp_ != nullptr) {
      if (open_levels_ == levels_.size()) levels_.emplace_back();
      levels_[open_levels_++] = Level{node_depth, 0};
    }

    // Set once a child has run: the simulator then sits wherever that
    // child's subtree left it, and the next sibling must rewind it first.
    bool moved_on = false;
    for (std::size_t i = 0; i < kids.list.size(); ++i) {
      if (stop()) {
        maybe_suspend(/*include_current=*/false, current, preemptions,
                      crashes_left);
        return false;
      }
      if (camp_ != nullptr) levels_[open_levels_ - 1].next = i + 1;
      const Child& ch = kids.list[i];
      if (moved_on) {
        // In place from the branch point's snapshot: no events
        // re-executed, no allocation.
        sim_->restore(*snap, build_);
        result_.restores++;
        if (liveness_) reanchor_baseline(node_depth, current, node_nvars);
      }
      dirs_.push_back(ch.d);
      try {
        const bool ok = sim_->apply(ch.d);
        TPA_CHECK(ok, "candidate p" << ch.d.proc << " could not act");
      } catch (const CheckFailure& e) {
        record_violation(e.what());
        return false;
      }
      const ProcId p = ch.d.proc;
      const std::size_t prev_sched = last_sched_[p];
      last_sched_[p] = dirs_.size();
      const bool child_complete =
          dfs(ch.current, ch.preemptions, ch.crashes_left);
      dirs_.pop_back();
      last_sched_[p] = prev_sched;
      moved_on = true;
      // An incomplete child means a sticky stop condition (violation,
      // budget, deadline, beaten) ended it mid-subtree: this subtree is not
      // fully explored either, so it must never enter the visited set.
      if (!child_complete) return false;
    }

    if (camp_ != nullptr) --open_levels_;
    if (pkey_pushed) onstack_.pop(pkey, pkey_prev);
    if (dedup_here) record_visited(key, budget);
    return true;
  }

  std::size_t n_;
  SimConfig sim_cfg_;
  const ScenarioBuilder& build_;
  const ExplorerConfig& cfg_;
  Shared* shared_;
  std::size_t index_;
  CampaignRecorder* camp_ = nullptr;
  /// Whether stop() polls the clock at all: only for a watchdog or a
  /// campaign cadence.
  bool clocked_ = false;
  /// Polls left until the next clock read; 1 so the first poll reads it
  /// and a deadline that has already passed stops the run at once.
  std::uint32_t polls_to_clock_ = 1;
  /// Campaign mode: the last clock read found the checkpoint interval
  /// passed; the next node entry writes one.
  bool checkpoint_due_ = false;
  bool dedup_ = false;
  bool symmetric_ = false;
  bool liveness_ = false;
  /// The one simulator the whole subtree runs on (see dfs()).
  std::unique_ptr<Simulator> sim_;
  /// Recycled branch-point snapshots (see take_snapshot).
  std::vector<std::unique_ptr<SimSnapshot>> snap_pool_;
  /// kids_[d]: the children of the node at depth d on the current path.
  std::deque<Children> kids_;
  std::vector<Directive> dirs_;
  ExplorerResult result_;
  /// Campaign mode: levels_[0, open_levels_) are the open branch points of
  /// the recursion, outermost first; later entries wait to be reused.
  std::vector<Level> levels_;
  std::size_t open_levels_ = 0;
  /// Liveness mode: progress key → depth of the nearest stack occurrence.
  OnStackMap onstack_;
  /// Where the simulator's flushed fingerprint baseline sits on the
  /// current DFS path: the ancestor's depth, scheduled process, and
  /// variable count. Together with the dirty-delta check these prove a
  /// node revisits the baseline ancestor's progress state without
  /// flushing or finalizing a key (see the liveness classes in dfs()).
  /// kNoBaseline marks "not on this path" (a fresh or resumed node).
  static constexpr std::size_t kNoBaseline = ~std::size_t{0};
  std::size_t baseline_depth_ = kNoBaseline;
  ProcId baseline_current_ = kNoProc;
  std::size_t baseline_nvars_ = 0;
  /// Consecutive nodes on the path that were neither keyed nor checked
  /// against the baseline. Keying engages when it reaches kLiveKeyStride —
  /// or sooner at a dedup node, where the key's flush is already paid —
  /// bounding unkeyed runs. Starts saturated so roots are always keyed.
  static constexpr std::size_t kLiveKeyStride = 3;
  std::size_t skips_since_check_ = kLiveKeyStride;
  /// last_sched_[p] = 1 + depth of p's most recent directive on the current
  /// path (0 = not yet scheduled); the child loops save/restore around each
  /// recursion. Powers the O(|cand|) weak-fairness pre-filter.
  std::vector<std::size_t> last_sched_;
};

/// The sequential exploration: drains frontier nodes in DFS order, each in
/// a fresh Dfs — {root} for a fresh run, the file's frontier for a resume.
/// The first violation wins (first-in-DFS-order) and a tripped schedule or
/// wall-clock budget abandons the remaining nodes, so the aggregate is
/// exactly what one uninterrupted DFS reports.
ExplorerResult drain(std::size_t n_procs, const SimConfig& eff,
                     const ScenarioBuilder& build, const ExplorerConfig& config,
                     Shared* shared, CampaignRecorder* camp,
                     const std::vector<trace::CampaignNode>& nodes) {
  ExplorerResult total;
  if (camp != nullptr) camp->outer = &nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (camp != nullptr) camp->outer_next = i + 1;
    Dfs dfs(n_procs, eff, build, config, shared, 0, camp);
    dfs.run_from(nodes[i]);
    total.merge(dfs.take_result());
    if (camp != nullptr) camp->done = total;
    if (total.verdict.found() || !total.exhausted) break;
  }
  return total;
}

// ---- the parallel mode ---------------------------------------------------

/// A parallel-mode frontier node: the subtree root, plus what a campaign
/// file cannot hold — the parent state's in-memory snapshot, shared by the
/// siblings.
struct Seed {
  trace::CampaignNode node;
  std::shared_ptr<const SimSnapshot> parent;
  bool whole = false;  ///< not expandable: left for a worker as it is
};

/// Splits the schedule tree into about `target` subtree roots in DFS order,
/// repeatedly replacing the shallowest expandable node, in place, by its
/// ordered children — so the frontier index is a DFS-order key. Expanding
/// a node materializes its state (its parent's snapshot plus its own last
/// directive) and enumerates its children from it; nothing else runs here.
/// Leaves, nodes at the step cap and nodes whose own step raises are left
/// whole, so a worker explores and accounts for them exactly as the
/// sequential DFS would — a violation is claimed at its node's frontier
/// index, never reported out of DFS order. Restores, snapshots and the
/// expanded nodes' steps are charged to `stats`.
std::vector<Seed> split_frontier(std::size_t n_procs, const SimConfig& eff,
                                 const ScenarioBuilder& build,
                                 const ExplorerConfig& cfg, std::size_t target,
                                 ExplorerResult& stats) {
  std::list<Seed> nodes;
  nodes.push_back(
      Seed{{kNoProc, cfg.preemptions, cfg.max_crashes, {}}, nullptr});
  Simulator sim(n_procs, eff);
  std::uint64_t events = 0;
  sim.count_events_into(&events);
  Children kids;
  // Each expansion costs one restore, one step and one snapshot; the cap
  // only guards against degenerate chains (branching 1) eating the pre-pass.
  const std::size_t max_expansions = target * 64 + 256;
  for (std::size_t e = 0; nodes.size() < target && e < max_expansions; ++e) {
    auto it = nodes.end();
    for (auto j = nodes.begin(); j != nodes.end(); ++j)
      if (!j->whole && (it == nodes.end() ||
                        j->node.dirs.size() < it->node.dirs.size()))
        it = j;
    if (it == nodes.end()) break;
    it->whole = true;  // unless replaced by its children below
    const trace::CampaignNode& node = it->node;
    if (node.dirs.size() >= cfg.max_steps) continue;
    events = 0;
    try {
      if (it->parent == nullptr) {
        build(sim);  // the root, expanded first: the initial state
      } else {
        sim.restore(*it->parent, build);
        stats.restores++;
        if (!sim.apply(node.dirs.back())) continue;
      }
    } catch (const CheckFailure&) {
      continue;
    }
    enumerate_children(sim, n_procs, node.current, node.preemptions,
                       node.crashes_left, kids);
    if (kids.cand.empty()) continue;
    stats.steps += events;
    const auto snap = std::make_shared<const SimSnapshot>(sim.snapshot());
    stats.snapshots++;
    for (const Child& ch : kids.list) {
      Seed child{{ch.current, ch.preemptions, ch.crashes_left, node.dirs},
                 snap};
      child.node.dirs.push_back(ch.d);
      nodes.insert(it, std::move(child));
    }
    nodes.erase(it);
  }
  return {std::make_move_iterator(nodes.begin()),
          std::make_move_iterator(nodes.end())};
}

/// The parallel mode: the pre-pass' frontier drained by the work queue.
ExplorerResult explore_parallel(std::size_t n_procs, const SimConfig& eff,
                                const ScenarioBuilder& build,
                                const ExplorerConfig& config, Shared* shared) {
  ExplorerResult result;
  const std::vector<Seed> frontier = split_frontier(
      n_procs, eff, build, config,
      static_cast<std::size_t>(config.threads) * 8, result);
  std::vector<ExplorerResult> sub(frontier.size());
  parallel_for_index(frontier.size(), config.threads, [&](std::size_t i) {
    if (shared->beaten(i)) return;  // a smaller index already won
    Dfs dfs(n_procs, eff, build, config, shared, i);
    dfs.run_from(frontier[i].node, frontier[i].parent.get());
    sub[i] = dfs.take_result();
  });
  for (const ExplorerResult& r : sub) result.merge(r);
  if (shared->over.load(std::memory_order_relaxed)) result.exhausted = false;
  return result;
}

/// Structural sanity check for SymmetryMode::kCanonical: probes the freshly
/// built initial state and rejects scenarios that are visibly *not* invariant
/// under process renaming. Necessarily incomplete (a program can branch on
/// its pid arbitrarily late), so runtime::Scenario additionally gates
/// symmetry on an explicit declaration; this catches the obvious misuses —
/// per-process initial ops, DSM-owned variables, partial recovery sections.
void validate_symmetric_scenario(std::size_t n_procs, const SimConfig& cfg,
                                 const ScenarioBuilder& build) {
  Simulator probe(n_procs, cfg);
  build(probe);
  for (const ProcId owner : probe.var_owners())
    TPA_CHECK(owner == kNoProc,
              "symmetric_processes: scenario allocates a DSM variable owned "
              "by p" << owner << " — per-process memory segments are not "
              "invariant under process renaming");
  const Proc& first = probe.proc(0);
  const bool recovery0 = probe.has_recovery(0);
  for (std::size_t p = 0; p < n_procs; ++p) {
    const Proc& proc = probe.proc(static_cast<ProcId>(p));
    TPA_CHECK(proc.has_pending() && first.has_pending(),
              "symmetric_processes: p" << p << " has no initial pending op");
    const SimOp& a = first.pending();
    const SimOp& b = proc.pending();
    TPA_CHECK(a.kind == b.kind && a.var == b.var && a.value == b.value &&
                  a.expected == b.expected,
              "symmetric_processes: p" << p << "'s first op differs from "
              "p0's — the programs are not invariant under process renaming");
    TPA_CHECK(probe.has_recovery(static_cast<ProcId>(p)) == recovery0,
              "symmetric_processes: recovery sections are not uniform "
              "across processes");
  }
}

/// The campaign header's identity + config fields for a fresh campaign
/// (baseline stats all zero).
trace::Campaign campaign_identity(std::size_t n_procs, const SimConfig& sim,
                                  const ExplorerConfig& cfg) {
  trace::Campaign c;
  c.scenario = cfg.campaign_scenario;
  c.n_procs = n_procs;
  c.pso = sim.pso;
  c.crash_model = sim.crash_model;
  c.preemptions = cfg.preemptions;
  c.max_steps = cfg.max_steps;
  c.max_schedules = cfg.max_schedules;
  c.max_crashes = cfg.max_crashes;
  c.dedup = cfg.dedup;
  c.symmetry = cfg.symmetric_processes;
  c.liveness = cfg.liveness;
  c.dedup_max_bytes = cfg.dedup_max_bytes;
  c.shrink = cfg.shrink;
  return c;
}

/// The whole exploration, fresh or resumed: `loaded` carries a resumed
/// campaign's baseline stats and frontier (null for explore()).
ExplorerResult explore_impl(std::size_t n_procs, SimConfig sim_config,
                            const ScenarioBuilder& build,
                            const ExplorerConfig& config,
                            const trace::Campaign* loaded) {
  // With no per-schedule hook the exploration only counts schedules and
  // checks exclusion: run the bare core (plus ExclusionChecker) and log
  // directives in the explorer itself — no trace, awareness or cost
  // bookkeeping on the hot path. A hook gets the caller's instrumentation
  // unchanged, since it may inspect costs, awareness or the trace.
  SimConfig eff = sim_config;
  if (!config.on_complete) {
    eff.track_awareness = false;
    eff.record_trace = false;
    eff.track_costs = false;
  }

  if (config.dedup != DedupMode::kOff) {
    // The fingerprint deliberately excludes observers, traces and cost
    // counters: a hook may inspect exactly that state, so two states the
    // fingerprint merges could still differ under the hook's invariant.
    TPA_CHECK(!config.on_complete,
              "dedup: on_complete hooks may inspect observer/trace state "
              "outside the fingerprint — combine is rejected as unsound");
  }
  if (config.symmetric_processes == SymmetryMode::kCanonical) {
    TPA_CHECK(config.dedup == DedupMode::kState,
              "symmetric_processes requires dedup = DedupMode::kState (it "
              "only canonicalizes visited-set fingerprints)");
    validate_symmetric_scenario(n_procs, eff, build);
  }
  if (config.liveness == LivenessMode::kCheck) {
    // Cycle detection rides on the state graph the visited set materializes;
    // without dedup the DFS would also re-traverse convergent paths and the
    // on-stack map alone could not bound the work.
    TPA_CHECK(config.dedup == DedupMode::kState,
              "liveness: fair-cycle detection requires dedup = "
              "DedupMode::kState (the visited set materializes the state "
              "graph the cycles live on)");
    // Parallel workers revive mid-tree from snapshots: they hold neither
    // the DFS stack nor the prefix states a cycle could close into.
    TPA_CHECK(config.threads <= 1,
              "liveness: cycle detection needs the sequential DFS stack — "
              "run with threads == 1");
  }
  const bool campaign = !config.campaign_path.empty();
  if (campaign) {
    // The checkpoint serializes one DFS' open levels; parallel workers each
    // hold their own, with no single consistent picture of the remaining
    // work to write.
    TPA_CHECK(config.threads <= 1,
              "campaign: checkpointing serializes the sequential DFS "
              "frontier — run with threads == 1 (resume legs may still pick "
              "any wall-clock budget)");
    // A hook is process-local state (closures, captured observers) that a
    // resuming process cannot reinstate from a file.
    TPA_CHECK(!config.on_complete,
              "campaign: on_complete hooks are process-local state a resume "
              "cannot reinstate — combine is rejected");
  }

  Shared shared(config.max_schedules, config.time_budget_ms);
  if (loaded != nullptr)
    shared.used.store(loaded->schedules + loaded->truncated,
                      std::memory_order_relaxed);
  if (config.dedup != DedupMode::kOff)
    shared.visited = std::make_unique<VisitedSet>(config.threads > 1,
                                                  config.dedup_max_bytes);
  // Every exploration drains one frontier: {root} for a fresh run, the
  // file's frontier for a resume, the pre-pass' output for threads > 1.
  const std::vector<trace::CampaignNode> root{
      {kNoProc, config.preemptions, config.max_crashes, {}}};
  const std::vector<trace::CampaignNode>& nodes =
      loaded != nullptr ? loaded->frontier : root;
  ExplorerResult result;
  CampaignRecorder camp;
  if (campaign) {
    camp.path = config.campaign_path;
    camp.interval = std::chrono::milliseconds(config.checkpoint_interval_ms);
    camp.base = loaded != nullptr
                    ? *loaded
                    : campaign_identity(n_procs, sim_config, config);
    camp.base.frontier.clear();
    camp.next_write = std::chrono::steady_clock::now() + camp.interval;
    // The baseline carried in from the resumed file (zero when fresh).
    result = result_of(camp.base);
    if (loaded == nullptr) {
      // Publish the root frontier before the first step: a kill at any
      // later point finds a resumable file (and resuming from the root is
      // simply the whole exploration).
      trace::Campaign init = camp.base;
      init.frontier = root;
      trace::write_campaign_file(camp.path, init);
    }
  }
  if (config.threads > 1)
    result.merge(explore_parallel(n_procs, eff, build, config, &shared));
  else
    result.merge(drain(n_procs, eff, build, config, &shared,
                       campaign ? &camp : nullptr, nodes));

  if (shared.deadline_tripped.load(std::memory_order_relaxed)) {
    result.deadline_hit = true;
    result.exhausted = false;
  }
  if (shared.visited != nullptr) {
    result.dedup_entries = shared.visited->entries();
    result.dedup_bytes = shared.visited->bytes();
    result.dedup_evictions += shared.visited->evictions();
  }
  Verdict& v = result.verdict;
  if (v.found() && config.shrink && !v.witness.empty()) {
    if (v.is_lasso()) {
      // Lasso witnesses shrink stem and cycle independently; the oracle
      // checks the cycle still closes under the progress fingerprint and
      // the verdict kind is preserved (see tso/fuzz.h).
      LassoShrinkOutcome shrunk = shrink_lasso(n_procs, eff, build, v.witness,
                                               v.cycle_start, v.kind);
      if (shrunk.witness.size() < v.witness.size()) {
        v.raw_witness = std::move(v.witness);
        v.witness = std::move(shrunk.witness);
        v.cycle_start = shrunk.cycle_start;
      }
    } else if (v.kind == VerdictKind::kSafety) {
      // Deadlock witnesses stay unshrunk: their oracle is "no enabled
      // transition", which lenient replay cannot observe as a CheckFailure.
      ShrinkOutcome shrunk = shrink_witness(n_procs, eff, build, v.witness,
                                            config.on_complete);
      if (shrunk.witness.size() < v.witness.size()) {
        v.raw_witness = std::move(v.witness);
        v.witness = std::move(shrunk.witness);
      }
    }
  }
  if (campaign && !result.deadline_hit) {
    // Terminal record: complete, empty frontier, final (shrunk) witness.
    // A deadline-suspended run instead leaves the checkpoint written at the
    // trip standing, so the campaign stays resumable. Resuming a terminal
    // campaign returns this record without re-exploring.
    trace::Campaign fin = camp.base;
    store_result(fin, result);
    fin.complete = true;
    trace::write_campaign_file(config.campaign_path, fin);
  }
  return result;
}

}  // namespace

ExplorerResult explore(std::size_t n_procs, SimConfig sim_config,
                       const ScenarioBuilder& build, ExplorerConfig config) {
  return explore_impl(n_procs, std::move(sim_config), build, config, nullptr);
}

ExplorerResult resume(const std::string& campaign_path, std::size_t n_procs,
                      SimConfig sim_config, const ScenarioBuilder& build,
                      const ResumeOptions& options) {
  const trace::Campaign c = trace::read_campaign_file(campaign_path);
  TPA_CHECK(c.n_procs == n_procs, "resume: campaign records "
                                      << c.n_procs << " processes, caller "
                                      << "supplies " << n_procs);
  TPA_CHECK(c.pso == sim_config.pso,
            "resume: campaign " << (c.pso ? "was" : "was not")
                                << " recorded under PSO");
  TPA_CHECK(c.crash_model == sim_config.crash_model,
            "resume: campaign crash model is " << to_string(c.crash_model));
  if (c.complete) {
    // Nothing left to explore: report the recorded terminal result.
    return result_of(c);
  }
  // The explorer configuration comes from the file — only wall-clock knobs
  // (deliberately outside the config hash) come from the caller.
  ExplorerConfig cfg;
  cfg.preemptions = c.preemptions;
  cfg.max_steps = c.max_steps;
  cfg.max_schedules = c.max_schedules;
  cfg.max_crashes = c.max_crashes;
  cfg.time_budget_ms = options.time_budget_ms;
  cfg.threads = 1;
  cfg.shrink = c.shrink;
  cfg.dedup = c.dedup;
  cfg.symmetric_processes = c.symmetry;
  cfg.liveness = c.liveness;
  cfg.dedup_max_bytes = c.dedup_max_bytes;
  cfg.campaign_path = campaign_path;
  cfg.checkpoint_interval_ms = options.checkpoint_interval_ms;
  cfg.campaign_scenario = c.scenario;
  return explore_impl(n_procs, std::move(sim_config), build, cfg, &c);
}

}  // namespace tpa::tso

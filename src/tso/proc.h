// Proc — the simulator-side state of one process, plus the awaitable
// shared-memory API used by simulated algorithms.
//
// A process owns (per the TSO operational model of Section 2):
//   * a FIFO write buffer with in-place coalescing — at most one buffered
//     write per variable, an older write to the same variable is replaced;
//   * a mode: read (between fences) or write (mid-fence: may only commit);
//   * a mutual-exclusion status (ncs/entry/exit) driven by the transition
//     events Enter/CS/Exit;
//   * core cost counters: events, fences, CAS barriers and contention, per
//     passage and in total. The analysis-side counters — critical events
//     (Definition 2) and RMRs under DSM / CC-WT / CC-WB — are filled in by
//     the CostObserver (tso/observers.h); awareness sets (Definition 1) live
//     in the AwarenessObserver and are reachable through awareness().
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "cost/model.h"
#include "tso/op.h"
#include "tso/types.h"
#include "util/bitset.h"

namespace tpa::tso {

class Simulator;
class CostObserver;

/// One buffered (issued but uncommitted) write.
struct BufferedWrite {
  VarId var;
  Value value;
};

/// Per-passage cost record, finalized at the Exit event. The core machine
/// maintains events/fences/cas_ops and the contention fields; critical and
/// rmr_* are written by the CostObserver when cost tracking is enabled.
struct PassageStats {
  std::uint32_t index = 0;
  std::uint32_t fences = 0;        ///< completed fence instructions
  std::uint32_t cas_ops = 0;       ///< CAS barriers (count as fences on TSO)
  std::uint32_t critical = 0;      ///< critical events (Definition 2)
  std::uint32_t rmr_dsm = 0;
  std::uint32_t rmr_wt = 0;
  std::uint32_t rmr_wb = 0;
  std::uint32_t events = 0;        ///< program events issued

  /// The paper's two finer contention notions (Section 1): the number of
  /// distinct processes active at some point during this passage, and the
  /// maximum number simultaneously active. Always
  /// point <= interval <= total contention.
  std::uint32_t interval_contention = 0;
  std::uint32_t point_contention = 0;

  /// Fence-like barriers: explicit fences plus atomic RMWs.
  std::uint32_t barriers() const { return fences + cas_ops; }

  /// This passage's costs in the shared cross-world cost model
  /// (cost/model.h; loads/stores are not tracked per passage).
  cost::CostVector to_cost_vector() const {
    cost::CostVector c;
    c.fences = fences;
    c.rmws = cas_ops;
    c.critical = critical;
    c.rmr_dsm = rmr_dsm;
    c.rmr_wt = rmr_wt;
    c.rmr_wb = rmr_wb;
    return c;
  }
};

class Proc {
 public:
  Proc(Simulator* sim, ProcId id, std::size_t n_procs);

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  ProcId id() const { return id_; }
  Status status() const { return status_; }
  Mode mode() const { return mode_; }

  // ---- Awaitable shared-memory API (used inside Task coroutines) ----

  struct OpAwaiter {
    Proc& proc;
    SimOp op;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    Value await_resume() const noexcept { return proc.pending_.result; }
  };

  /// Reads variable v (own buffer first, then cache/shared memory).
  OpAwaiter read(VarId v) { return {*this, {OpKind::kRead, v}}; }

  /// Issues a write of `value` to v into the write buffer.
  OpAwaiter write(VarId v, Value value) {
    return {*this, {OpKind::kWrite, v, value}};
  }

  /// Full fence: BeginFence, drain the buffer, EndFence.
  OpAwaiter fence() { return {*this, {OpKind::kFence}}; }

  /// Atomic compare-and-swap. Drains the buffer first (x86 LOCK semantics);
  /// returns the old value of v (success iff old == expected).
  OpAwaiter cas(VarId v, Value expected, Value desired) {
    SimOp op{OpKind::kCas, v, desired};
    op.expected = expected;
    return {*this, op};
  }

  /// Transition events (used by the passage driver, not by lock code).
  OpAwaiter enter() { return {*this, {OpKind::kEnter}}; }
  OpAwaiter cs() { return {*this, {OpKind::kCs}}; }
  OpAwaiter exit() { return {*this, {OpKind::kExit}}; }

  // ---- Introspection (scheduler / adversary side) ----

  bool has_pending() const { return has_pending_; }
  const SimOp& pending() const { return pending_; }
  bool done() const { return done_; }

  /// True between a Crash event and the matching Recover (a crashed process
  /// without a recovery section additionally reports done()).
  bool crashed() const { return crashed_; }

  /// Recovery incarnations started so far; 0 while the original program (or
  /// nothing) runs.
  std::uint32_t incarnations() const { return incarnations_; }

  const std::vector<BufferedWrite>& buffer() const { return buffer_; }

  /// True if the buffer holds a write to v; if so *out gets its value.
  bool buffered_value(VarId v, Value* out) const;

  /// AW(p, E) per Definition 1, from the AwarenessObserver. An empty set is
  /// returned when awareness tracking is off (SimConfig::track_awareness).
  const DynBitset& awareness() const;

  /// Whether this process already read v remotely (Definition 2's "first
  /// remote read of v by p"), from the CostObserver. Always false when cost
  /// tracking is off (SimConfig::track_costs).
  bool remotely_read(VarId v) const;

  /// Running FNV-1a hash of the op-result stream handed to this process'
  /// program so far (reset at each crash). The program's control location
  /// and locals are a deterministic function of that stream, so this hash
  /// stands in for the coroutine frame in Simulator::fingerprint() — the
  /// incremental fingerprint folds it into the process' blob component.
  std::uint64_t op_history_hash() const { return op_hash_; }

  std::uint32_t fences_completed() const { return fences_total_; }
  std::uint32_t passages_done() const { return passages_done_; }
  const PassageStats& current_passage() const { return cur_; }
  const std::vector<PassageStats>& finished_passages() const {
    return finished_;
  }

 private:
  friend class Simulator;
  friend class CostObserver;  ///< writes critical/rmr_* into cur_

  Simulator* sim_;
  ProcId id_;
  Status status_ = Status::kNcs;
  Mode mode_ = Mode::kRead;

  std::vector<BufferedWrite> buffer_;

  // Coroutine plumbing: the innermost suspended coroutine awaiting an op.
  SimOp pending_{OpKind::kRead};
  bool has_pending_ = false;
  bool done_ = false;
  bool crashed_ = false;
  std::uint32_t incarnations_ = 0;
  std::coroutine_handle<> resume_point_;

  /// Every op result handed to the current incarnation's program so far, in
  /// order (cleared at each crash). Programs are deterministic functions of
  /// their op results, so this list names the coroutine's suspension point:
  /// Simulator::restore() keeps a live frame whose list equals the
  /// snapshot's, and fast-forwards a respawned one by feeding the list back
  /// at its first resume. Until then the list holds what the frame owes.
  std::vector<Value> op_results_;

  /// FNV-1a basis for op_hash_ (an empty op-result history).
  static constexpr std::uint64_t kOpHashBasis = 0xcbf29ce484222325ULL;

  /// Running FNV-1a hash of op_results_, maintained incrementally as results
  /// are handed out (and reset when a crash clears the history). Because the
  /// coroutine's control location and locals are a deterministic function of
  /// the op-result stream, this hash stands in for them in
  /// Simulator::fingerprint() without walking the unbounded history.
  std::uint64_t op_hash_ = kOpHashBasis;

  std::uint32_t fences_total_ = 0;
  std::uint32_t passages_done_ = 0;
  PassageStats cur_;
  DynBitset met_;  ///< processes seen active during the current passage
  std::vector<PassageStats> finished_;
};

}  // namespace tpa::tso

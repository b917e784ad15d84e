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
#include <cstddef>
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

/// FNV-1a basis: the labelled lane of a program that has been handed no op
/// result and declared no location, and the start of every label's hash.
constexpr std::uint64_t kLaneBasis = 0xcbf29ce484222325ULL;

/// One FNV-1a step over a 64-bit word: how op results fold onto a process'
/// labelled lane, and how Proc::at() folds its locals.
constexpr std::uint64_t fold_lane(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 0x100000001b3ULL;
}

/// A program-location label for Proc::at(): a string literal, hashed
/// (FNV-1a over its bytes) at compile time, so declaring a location never
/// walks the string.
struct Label {
  std::uint64_t hash = kLaneBasis;

  template <std::size_t N>
  consteval Label(const char (&name)[N]) {  // implicit: p.at("name", ...)
    for (std::size_t i = 0; i + 1 < N; ++i)
      hash = fold_lane(hash, static_cast<unsigned char>(name[i]));
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

  /// Declares the program's control location: a plain call (no suspension,
  /// no allocation) that sets the labelled lane — the hash standing in for
  /// the coroutine frame in Simulator::fingerprint() — to a hash of `label`,
  /// the locals and passages_done(). Op results handed out later fold onto
  /// it as before. Two iterations of a spin loop that calls at() at its head
  /// thus reach the same key when memory, buffers and pending ops agree.
  ///
  /// The contract (docs/EXPLORER.md; checked registry-wide by
  /// tests/test_labels.cpp): the process' whole future op sequence is a
  /// function of the label and locals, the passage index, and the
  /// fingerprinted process state (status, mode, buffer, pending op,
  /// incarnation). In a declared-symmetric scenario labels and locals must
  /// also be free of process ids.
  template <class... Locals>
  void at(Label label, Locals... locals) {
    std::uint64_t h = label.hash;
    ((h = fold_lane(h, static_cast<std::uint64_t>(locals))), ...);
    op_hash_ = fold_lane(h, passages_done_);
  }

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

  /// The labelled lane: the hash set by the last at() call, with every op
  /// result handed out since folded on (FNV-1a); without an at() call, the
  /// hash of the whole op-result stream of this incarnation (reset at each
  /// crash). It stands in for the coroutine frame in
  /// Simulator::fingerprint() — the incremental fingerprint folds it into
  /// the process' blob component.
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

  /// The labelled lane (see op_history_hash): set by at(), folded with each
  /// result as it is handed out, reset when a crash clears the history. It
  /// is state in its own right — a label cannot be recomputed from
  /// op_results_ — so SimSnapshot::ProcState carries it.
  std::uint64_t op_hash_ = kLaneBasis;

  std::uint32_t fences_total_ = 0;
  std::uint32_t passages_done_ = 0;
  PassageStats cur_;
  DynBitset met_;  ///< processes seen active during the current passage
  std::vector<PassageStats> finished_;
};

}  // namespace tpa::tso

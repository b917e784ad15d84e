#include "tso/sim.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "tso/observers.h"
#include "util/check.h"

namespace tpa::tso {

const char* to_string(Status s) {
  switch (s) {
    case Status::kNcs: return "ncs";
    case Status::kEntry: return "entry";
    case Status::kExit: return "exit";
  }
  return "?";
}

const char* to_string(Mode m) {
  return m == Mode::kRead ? "read" : "write";
}

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kFence: return "fence";
    case OpKind::kCas: return "cas";
    case OpKind::kEnter: return "enter";
    case OpKind::kCs: return "cs";
    case OpKind::kExit: return "exit";
  }
  return "?";
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kRead: return "Read";
    case EventKind::kWriteIssue: return "WriteIssue";
    case EventKind::kWriteCommit: return "WriteCommit";
    case EventKind::kBeginFence: return "BeginFence";
    case EventKind::kEndFence: return "EndFence";
    case EventKind::kCas: return "Cas";
    case EventKind::kEnter: return "Enter";
    case EventKind::kCs: return "CS";
    case EventKind::kExit: return "Exit";
    case EventKind::kCrash: return "Crash";
    case EventKind::kRecover: return "Recover";
  }
  return "?";
}

EventKind event_kind_from_string(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(EventKind::kRecover); ++i) {
    const auto k = static_cast<EventKind>(i);
    if (name == to_string(k)) return k;
  }
  TPA_FAIL("unknown EventKind name '" << name << "'");
}

bool is_transition(EventKind k) {
  return k == EventKind::kEnter || k == EventKind::kCs || k == EventKind::kExit;
}

bool is_fence_event(EventKind k) {
  return k == EventKind::kBeginFence || k == EventKind::kEndFence;
}

const char* to_string(CrashModel m) {
  return m == CrashModel::kBufferLost ? "lost" : "flushed";
}

CrashModel crash_model_from_string(const std::string& name) {
  if (name == "lost") return CrashModel::kBufferLost;
  if (name == "flushed") return CrashModel::kBufferFlushed;
  TPA_FAIL("unknown CrashModel name '" << name << "'");
}

const char* to_string(FingerprintMode m) {
  return m == FingerprintMode::kIncremental ? "incremental" : "audit";
}

FingerprintMode fingerprint_mode_from_string(const std::string& name) {
  if (name == "incremental") return FingerprintMode::kIncremental;
  if (name == "audit") return FingerprintMode::kAudit;
  TPA_FAIL("unknown FingerprintMode name '" << name << "'");
}

std::string Event::to_string() const {
  std::ostringstream os;
  os << "#" << seq << " p" << proc << " " << tso::to_string(kind);
  if (kind == EventKind::kCrash && value > 0)
    os << " [lost " << value << " buffered]";
  if (var != kNoVar) os << " v" << var << "=" << value;
  if (kind == EventKind::kCas)
    os << (cas_success ? " [cas-ok old=" : " [cas-fail old=") << value2 << "]";
  if (implied_by_cas) os << " [implied]";
  if (from_buffer) os << " [buf]";
  if (critical) os << " [crit]";
  return os.str();
}

const char* to_string(PendingClass c) {
  switch (c) {
    case PendingClass::kNone: return "none";
    case PendingClass::kWriteIssue: return "write-issue";
    case PendingClass::kLocalRead: return "local-read";
    case PendingClass::kNonCriticalRead: return "noncrit-read";
    case PendingClass::kCriticalRead: return "crit-read";
    case PendingClass::kBeginFence: return "begin-fence";
    case PendingClass::kCas: return "cas";
    case PendingClass::kCommitNonCritical: return "commit";
    case PendingClass::kCommitCritical: return "crit-commit";
    case PendingClass::kEndFence: return "end-fence";
    case PendingClass::kEnter: return "enter";
    case PendingClass::kCs: return "cs";
    case PendingClass::kExit: return "exit";
  }
  return "?";
}

PendingClass pending_class_from_string(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(PendingClass::kExit); ++i) {
    const auto c = static_cast<PendingClass>(i);
    if (name == to_string(c)) return c;
  }
  TPA_FAIL("unknown PendingClass name '" << name << "'");
}

bool is_special(PendingClass c) {
  switch (c) {
    case PendingClass::kCriticalRead:
    case PendingClass::kBeginFence:
    case PendingClass::kCas:
    case PendingClass::kCommitCritical:
    case PendingClass::kEndFence:
    case PendingClass::kEnter:
    case PendingClass::kCs:
    case PendingClass::kExit:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

Proc::Proc(Simulator* sim, ProcId id, std::size_t n_procs)
    : sim_(sim), id_(id), met_(n_procs) {}

void Proc::OpAwaiter::await_suspend(std::coroutine_handle<> h) {
  TPA_CHECK(!proc.has_pending_,
            "process p" << proc.id_ << " already has a pending op");
  proc.pending_ = op;
  proc.has_pending_ = true;
  proc.resume_point_ = h;
}

bool Proc::buffered_value(VarId v, Value* out) const {
  // TSO: at most one buffered write per variable (newer issues replace the
  // older entry in place), so the first match is the only match.
  for (const auto& entry : buffer_) {
    if (entry.var == v) {
      if (out) *out = entry.value;
      return true;
    }
  }
  return false;
}

const DynBitset& Proc::awareness() const { return sim_->awareness_of(id_); }

bool Proc::remotely_read(VarId v) const {
  return sim_->remotely_read(id_, v);
}

// ---------------------------------------------------------------------------
// Simulator: construction and accessors
// ---------------------------------------------------------------------------

Simulator::Simulator(std::size_t n_procs, SimConfig config)
    : config_(config),
      programs_(n_procs),
      spares_(n_procs),
      owed_(n_procs, 0),
      recovery_(n_procs),
      touched_(n_procs) {
  procs_.reserve(n_procs);
  for (std::size_t i = 0; i < n_procs; ++i)
    procs_.push_back(
        std::make_unique<Proc>(this, static_cast<ProcId>(i), n_procs));
  // The standard instrumentation, in a fixed order: cost flags must be on
  // the event before the trace recorder copies it.
  if (config_.track_costs) add_observer(std::make_unique<CostObserver>());
  if (config_.track_awareness)
    add_observer(std::make_unique<AwarenessObserver>());
  if (config_.check_exclusion)
    add_observer(std::make_unique<ExclusionChecker>());
  if (config_.record_trace) add_observer(std::make_unique<TraceRecorder>());
  fp_rebuild();
}

void Simulator::add_observer(std::unique_ptr<SimObserver> observer) {
  TPA_CHECK(observer != nullptr, "null observer");
  TPA_CHECK(seq_ == 0,
            "observer '" << observer->name()
                         << "' must attach before the execution starts");
  observer->on_attach(*this);
  if (auto* c = dynamic_cast<CostObserver*>(observer.get())) cost_ = c;
  if (auto* a = dynamic_cast<AwarenessObserver*>(observer.get()))
    awareness_ = a;
  if (auto* t = dynamic_cast<TraceRecorder*>(observer.get())) recorder_ = t;
  observers_.push_back(std::move(observer));
}

VarId Simulator::alloc_var(Value init, ProcId owner) {
  TPA_CHECK(owner == kNoProc ||
                (owner >= 0 && owner < static_cast<ProcId>(num_procs())),
            "invalid owner " << owner);
  Variable v;
  v.value = init;
  v.initial = init;
  v.owner = owner;
  vars_.push_back(v);
  fp_grow_var();
  return static_cast<VarId>(vars_.size() - 1);
}

void Simulator::poke(VarId v, Value value) {
  TPA_CHECK(v >= 0 && v < static_cast<VarId>(vars_.size()),
            "invalid var id " << v);
  TPA_CHECK(seq_ == 0, "poke(v" << v << ") after the execution started");
  vars_[static_cast<std::size_t>(v)].value = value;
  vars_[static_cast<std::size_t>(v)].initial = value;
  fp_dirty_var(v);
}

void Simulator::spawn(ProcId p, Task<> program) {
  Proc& proc = this->proc(p);
  if (restoring_) {
    // A builder run inside restore(): park the unstarted program as p's
    // spare if the slot is free, otherwise drop it.
    Task<>& spare = spares_[static_cast<std::size_t>(p)];
    if (!spare.valid()) spare = std::move(program);
    return;
  }
  fp_dirty_proc(p);
  TPA_CHECK(!programs_[static_cast<std::size_t>(p)].valid(),
            "process p" << p << " already has a program");
  programs_[static_cast<std::size_t>(p)] = std::move(program);
  programs_[static_cast<std::size_t>(p)].start();
  if (!proc.has_pending_) {
    proc.done_ = true;
    programs_[static_cast<std::size_t>(p)].rethrow_if_failed();
  } else {
    note_new_pending(proc);
  }
}

void Simulator::set_recovery(ProcId p, RecoveryFactory factory) {
  proc(p);  // validate the id
  TPA_CHECK(factory != nullptr, "null recovery factory for p" << p);
  RecoveryFactory& slot = recovery_[static_cast<std::size_t>(p)];
  // A builder run inside restore() keeps the registered factory: a kept
  // recovered frame may point into the host objects it captures.
  if (restoring_ && slot != nullptr) return;
  slot = std::move(factory);
  fp_dirty_proc(p);
}

bool Simulator::has_recovery(ProcId p) const {
  proc(p);  // validate the id
  return recovery_[static_cast<std::size_t>(p)] != nullptr;
}

bool Simulator::can_crash(ProcId pid) const {
  const Proc& p = proc(pid);
  if (p.crashed_) return false;
  // Never spawned: there is nothing to crash.
  if (!programs_[static_cast<std::size_t>(pid)].valid()) return false;
  // A finished program with a drained buffer has no state left to lose.
  return !p.done_ || !p.buffer_.empty();
}

bool Simulator::crash(ProcId pid) {
  if (!can_crash(pid)) return false;
  Proc& p = proc(pid);
  fp_dirty_proc(pid);
  notify_directive({ActionKind::kCrash, pid});

  if (config_.crash_model == CrashModel::kBufferFlushed) {
    // The buffer drains to shared memory at the crash: each entry commits
    // in order as an ordinary WriteCommit, so observers (awareness
    // snapshots, cost directories, the trace) stay consistent.
    while (!p.buffer_.empty()) do_commit(p);
  }

  Event e;
  e.kind = EventKind::kCrash;
  e.proc = pid;
  e.passage = p.cur_.index;
  // Buffer-lost: the uncommitted writes vanish; record how many.
  e.value = static_cast<Value>(p.buffer_.size());
  p.buffer_.clear();

  // All volatile state dies with the process: the coroutine frame (which
  // recursively destroys nested task frames), the pending op, and the
  // in-flight passage (aborted, not recorded in finished_passages).
  programs_[static_cast<std::size_t>(pid)] = Task<>();
  owed_[static_cast<std::size_t>(pid)] = 0;
  p.pending_ = SimOp{OpKind::kRead};
  p.has_pending_ = false;
  p.resume_point_ = {};
  p.op_results_.clear();
  p.op_hash_ = kLaneBasis;
  p.status_ = Status::kNcs;
  p.mode_ = Mode::kRead;
  p.cur_ = PassageStats{};
  p.cur_.index = p.passages_done_;
  p.met_.reset();
  p.crashed_ = true;
  // Without a recovery section the crash is fail-stop: the process counts
  // as done so schedules can still complete.
  p.done_ = !has_recovery(pid);
  dispatch(p, e, {});
  return true;
}

bool Simulator::recover(ProcId pid) {
  Proc& p = proc(pid);
  if (!p.crashed_ || recovery_[static_cast<std::size_t>(pid)] == nullptr)
    return false;
  fp_dirty_proc(pid);
  notify_directive({ActionKind::kRecover, pid});

  Event e;
  e.kind = EventKind::kRecover;
  e.proc = pid;
  e.passage = p.cur_.index;
  p.crashed_ = false;
  p.done_ = false;
  p.incarnations_++;
  dispatch(p, e, {});

  // Spawn a fresh incarnation of the recovery section; like spawn(), it
  // runs to its first suspension point.
  auto& program = programs_[static_cast<std::size_t>(pid)];
  program = recovery_[static_cast<std::size_t>(pid)](p);
  program.start();
  if (!p.has_pending_) {
    p.done_ = true;
    program.rethrow_if_failed();
  } else {
    note_new_pending(p);
  }
  return true;
}

Proc& Simulator::proc(ProcId p) {
  TPA_CHECK(p >= 0 && p < static_cast<ProcId>(procs_.size()),
            "invalid proc id " << p);
  return *procs_[static_cast<std::size_t>(p)];
}

const Proc& Simulator::proc(ProcId p) const {
  TPA_CHECK(p >= 0 && p < static_cast<ProcId>(procs_.size()),
            "invalid proc id " << p);
  return *procs_[static_cast<std::size_t>(p)];
}

const Variable& Simulator::variable(VarId v) const {
  TPA_CHECK(v >= 0 && v < static_cast<VarId>(vars_.size()),
            "invalid var id " << v);
  return vars_[static_cast<std::size_t>(v)];
}

Value Simulator::value(VarId v) const { return variable(v).value; }
ProcId Simulator::var_owner(VarId v) const { return variable(v).owner; }
ProcId Simulator::last_writer(VarId v) const { return variable(v).last_writer; }

std::vector<ProcId> Simulator::active() const {
  std::vector<ProcId> out;
  for (const auto& p : procs_)
    if (p->status() != Status::kNcs) out.push_back(p->id());
  return out;
}

std::vector<ProcId> Simulator::finished() const {
  std::vector<ProcId> out;
  for (const auto& p : procs_)
    if (p->passages_done() > 0) out.push_back(p->id());
  return out;
}

std::vector<ProcId> Simulator::var_owners() const {
  std::vector<ProcId> out;
  out.reserve(vars_.size());
  for (const auto& v : vars_) out.push_back(v.owner);
  return out;
}

std::size_t Simulator::total_contention() const { return touched_.count(); }

const Execution& Simulator::execution() const {
  static const Execution kEmpty;
  return recorder_ != nullptr ? recorder_->execution() : kEmpty;
}

std::uint64_t Simulator::num_events() const {
  return recorder_ != nullptr ? recorder_->execution().events.size() : 0;
}

const DynBitset& Simulator::awareness_of(ProcId p) const {
  proc(p);  // validate the id
  static const DynBitset kEmpty;
  return awareness_ != nullptr ? awareness_->awareness(p) : kEmpty;
}

bool Simulator::remotely_read(ProcId p, VarId v) const {
  return cost_ != nullptr && cost_->remotely_read(p, v);
}

// ---------------------------------------------------------------------------
// Simulator: stepping
// ---------------------------------------------------------------------------

void Simulator::dispatch(Proc& p, Event& e, const StepContext& ctx) {
  e.seq = seq_++;
  work_events_++;
  if (events_sink_ != nullptr) ++*events_sink_;
  touched_.set(static_cast<std::size_t>(p.id()));
  for (auto& o : observers_) o->on_event(*this, p, e, ctx);
}

void Simulator::notify_directive(const Directive& d) {
  for (auto& o : observers_) o->on_directive(*this, d);
}

namespace {

/// A respawned frame did not reach the state the snapshot records: the
/// builder or a program is not deterministic. A std::logic_error but not a
/// CheckFailure, so the explorer's and fuzzer's violation catches — which
/// a lazy fast-forward runs inside — never report it as a verdict.
[[noreturn]] void restore_diverged(const Proc& p, const char* what) {
  std::ostringstream os;
  os << "restore diverged for p" << p.id() << ": " << what
     << " (the scenario builder or a program is not deterministic)";
  throw std::logic_error(os.str());
}

/// The pending op a frame parks, minus the result the machine fills in.
bool same_op(const SimOp& a, const SimOp& b) {
  return a.kind == b.kind && a.var == b.var && a.value == b.value &&
         a.expected == b.expected;
}

}  // namespace

void Simulator::resume(Proc& p) {
  if (owed_[static_cast<std::size_t>(p.id())]) fast_forward(p);
  fp_dirty_proc(p.id());
  p.op_results_.push_back(p.pending_.result);
  // at() calls the program makes below may replace the folded lane.
  p.op_hash_ =
      fold_lane(p.op_hash_, static_cast<std::uint64_t>(p.pending_.result));
  p.has_pending_ = false;
  auto h = p.resume_point_;
  p.resume_point_ = {};
  h.resume();
  if (!p.has_pending_) {
    p.done_ = true;
    programs_[static_cast<std::size_t>(p.id())].rethrow_if_failed();
  } else {
    note_new_pending(p);
  }
}

void Simulator::note_new_pending(Proc& p) {
  for (auto& o : observers_) o->on_pending(*this, p);
}

bool Simulator::deliver(ProcId pid) {
  Proc& p = proc(pid);
  if (p.done_ || !p.has_pending_) return false;
  // Every deliver path below mutates p's blob (mode, buffer, pending op,
  // status, or the op history via resume()).
  fp_dirty_proc(pid);
  notify_directive({ActionKind::kDeliver, pid});

  if (p.mode_ == Mode::kWrite) {
    // Mid-fence: the only permitted steps are committing the next buffered
    // write, or EndFence once the buffer is empty.
    if (!p.buffer_.empty()) {
      do_commit(p);
      return true;
    }
    Event end;
    end.kind = EventKind::kEndFence;
    end.proc = pid;
    end.passage = p.cur_.index;
    end.implied_by_cas = p.pending_.kind == OpKind::kCas;
    p.cur_.events++;
    p.mode_ = Mode::kRead;
    if (p.pending_.kind == OpKind::kFence) {
      p.fences_total_++;
      p.cur_.fences++;
      dispatch(p, end, {});
      resume(p);
    } else {
      TPA_CHECK(p.pending_.kind == OpKind::kCas,
                "write mode with pending " << to_string(p.pending_.kind));
      dispatch(p, end, {});
      perform_cas(p);
    }
    return true;
  }

  switch (p.pending_.kind) {
    case OpKind::kRead:
      perform_read(p);
      return true;
    case OpKind::kWrite:
      perform_write_issue(p);
      return true;
    case OpKind::kFence: {
      Event begin;
      begin.kind = EventKind::kBeginFence;
      begin.proc = pid;
      begin.passage = p.cur_.index;
      p.cur_.events++;
      p.mode_ = Mode::kWrite;
      dispatch(p, begin, {});
      return true;
    }
    case OpKind::kCas:
      if (p.buffer_.empty()) {
        perform_cas(p);
      } else {
        // CAS drains the buffer first; model the drain as an implied fence.
        Event begin;
        begin.kind = EventKind::kBeginFence;
        begin.proc = pid;
        begin.passage = p.cur_.index;
        begin.implied_by_cas = true;
        p.cur_.events++;
        p.mode_ = Mode::kWrite;
        dispatch(p, begin, {});
      }
      return true;
    case OpKind::kEnter:
    case OpKind::kCs:
    case OpKind::kExit:
      perform_transition(p);
      return true;
  }
  TPA_FAIL("unreachable op kind");
}

bool Simulator::apply(const Directive& d) {
  switch (d.kind) {
    case ActionKind::kDeliver: return deliver(d.proc);
    case ActionKind::kCommit: return commit(d.proc, d.var);
    case ActionKind::kCrash: return crash(d.proc);
    case ActionKind::kRecover: return recover(d.proc);
  }
  return false;
}

bool Simulator::can_act(ProcId pid) const {
  const Proc& p = proc(pid);
  // A crashed process' only possible step is recovering (if it can).
  if (p.crashed_) return has_recovery(pid);
  return (!p.done_ && p.has_pending_) || !p.buffer_.empty();
}

bool Simulator::commit(ProcId pid, VarId v) {
  Proc& p = proc(pid);
  if (p.buffer_.empty()) return false;
  std::size_t index = 0;
  if (v != kNoVar) {
    bool found = false;
    for (std::size_t i = 0; i < p.buffer_.size(); ++i) {
      if (p.buffer_[i].var == v) {
        index = i;
        found = true;
        break;
      }
    }
    if (!found) return false;
    TPA_CHECK(config_.pso || index == 0,
              "TSO: only the buffer head may commit (v" << v << " is at "
                  << index << " in p" << pid << "'s buffer)");
  }
  notify_directive({ActionKind::kCommit, pid, v});
  do_commit(p, index);
  return true;
}

void Simulator::do_commit(Proc& p, std::size_t index) {
  TPA_CHECK(index < p.buffer_.size(),
            "commit index out of range for p" << p.id());
  const BufferedWrite entry = p.buffer_[index];
  p.buffer_.erase(p.buffer_.begin() + static_cast<std::ptrdiff_t>(index));
  fp_dirty_proc(p.id());
  fp_dirty_var(entry.var);

  Variable& var = vars_[static_cast<std::size_t>(entry.var)];
  Event e;
  e.kind = EventKind::kWriteCommit;
  e.proc = p.id();
  e.var = entry.var;
  e.value = entry.value;
  e.passage = p.cur_.index;
  e.accesses_var = true;
  e.remote = var.owner != p.id();

  StepContext ctx;
  ctx.prev_writer = var.last_writer;
  var.value = entry.value;
  var.last_writer = p.id();
  dispatch(p, e, ctx);
}

void Simulator::perform_read(Proc& p) {
  const VarId v = p.pending_.var;
  TPA_CHECK(v >= 0 && v < static_cast<VarId>(vars_.size()),
            "read of invalid var " << v);
  Event e;
  e.kind = EventKind::kRead;
  e.proc = p.id();
  e.var = v;
  e.passage = p.cur_.index;
  StepContext ctx;

  Value buffered;
  if (p.buffered_value(v, &buffered)) {
    // Reads from the own write buffer are not variable accesses.
    e.value = buffered;
    e.from_buffer = true;
    p.pending_.result = buffered;
  } else {
    const Variable& var = vars_[static_cast<std::size_t>(v)];
    e.value = var.value;
    e.accesses_var = true;
    e.remote = var.owner != p.id();
    ctx.prev_writer = var.last_writer;
    p.pending_.result = var.value;
  }
  p.cur_.events++;
  dispatch(p, e, ctx);
  resume(p);
}

void Simulator::perform_write_issue(Proc& p) {
  const VarId v = p.pending_.var;
  TPA_CHECK(v >= 0 && v < static_cast<VarId>(vars_.size()),
            "write of invalid var " << v);
  Event e;
  e.kind = EventKind::kWriteIssue;
  e.proc = p.id();
  e.var = v;
  e.value = p.pending_.value;
  e.passage = p.cur_.index;
  // TSO: at most one buffered write per variable — an older buffered write
  // to the same variable is replaced in place (Section 2, item 2).
  bool replaced = false;
  for (auto& entry : p.buffer_) {
    if (entry.var == v) {
      entry.value = p.pending_.value;
      replaced = true;
      break;
    }
  }
  if (!replaced) p.buffer_.push_back({v, p.pending_.value});
  p.cur_.events++;
  dispatch(p, e, {});
  resume(p);
}

void Simulator::perform_cas(Proc& p) {
  TPA_CHECK(p.buffer_.empty(), "CAS with non-empty buffer for p" << p.id());
  const VarId v = p.pending_.var;
  TPA_CHECK(v >= 0 && v < static_cast<VarId>(vars_.size()),
            "cas of invalid var " << v);
  Variable& var = vars_[static_cast<std::size_t>(v)];

  Event e;
  e.kind = EventKind::kCas;
  e.proc = p.id();
  e.var = v;
  e.passage = p.cur_.index;
  e.accesses_var = true;
  e.remote = var.owner != p.id();
  e.value2 = var.value;
  e.cas_success = var.value == p.pending_.expected;
  e.value = e.cas_success ? p.pending_.value : var.value;

  StepContext ctx;
  ctx.prev_writer = var.last_writer;
  if (e.cas_success) {
    var.value = p.pending_.value;
    var.last_writer = p.id();
    fp_dirty_var(v);
  }

  p.cur_.cas_ops++;
  p.cur_.events++;
  p.pending_.result = e.value2;
  dispatch(p, e, ctx);
  resume(p);
}

void Simulator::perform_transition(Proc& p) {
  Event e;
  e.proc = p.id();
  switch (p.pending_.kind) {
    case OpKind::kEnter: {
      TPA_CHECK(p.status_ == Status::kNcs,
                "Enter while p" << p.id() << " is " << to_string(p.status_));
      p.status_ = Status::kEntry;
      p.cur_ = PassageStats{};
      p.cur_.index = p.passages_done_;
      // Contention bookkeeping (Section 1): everyone active right now is
      // part of this passage's interval; this passage raises the point
      // contention of every passage in flight (including its own).
      p.met_.reset();
      p.met_.set(static_cast<std::size_t>(p.id()));
      std::uint32_t active_now = 1;  // p itself
      for (const auto& other : procs_) {
        if (other->id() == p.id()) continue;
        if (other->status() == Status::kNcs) continue;
        ++active_now;
        p.met_.set(static_cast<std::size_t>(other->id()));
        other->met_.set(static_cast<std::size_t>(p.id()));
      }
      for (const auto& other : procs_) {
        if (other->status() == Status::kNcs) continue;  // p itself is kEntry
        other->cur_.point_contention =
            std::max(other->cur_.point_contention, active_now);
      }
      e.kind = EventKind::kEnter;
      break;
    }
    case OpKind::kCs:
      TPA_CHECK(p.status_ == Status::kEntry,
                "CS while p" << p.id() << " is " << to_string(p.status_));
      p.status_ = Status::kExit;
      e.kind = EventKind::kCs;
      break;
    case OpKind::kExit:
      TPA_CHECK(p.status_ == Status::kExit,
                "Exit while p" << p.id() << " is " << to_string(p.status_));
      p.status_ = Status::kNcs;
      e.kind = EventKind::kExit;
      break;
    default:
      TPA_FAIL("not a transition: " << to_string(p.pending_.kind));
  }
  e.passage = p.cur_.index;
  p.cur_.events++;
  if (p.pending_.kind == OpKind::kExit) {
    p.cur_.interval_contention =
        static_cast<std::uint32_t>(p.met_.count());
    p.finished_.push_back(p.cur_);
    p.passages_done_++;
  }
  dispatch(p, e, {});
  resume(p);
}

// ---------------------------------------------------------------------------
// Pending classification
// ---------------------------------------------------------------------------

PendingClass Simulator::classify_pending(ProcId pid) const {
  const Proc& p = proc(pid);
  if (p.done_ || !p.has_pending_) return PendingClass::kNone;

  if (p.mode_ == Mode::kWrite) {
    if (p.buffer_.empty()) return PendingClass::kEndFence;
    const BufferedWrite& head = p.buffer_.front();
    const Variable& var = vars_[static_cast<std::size_t>(head.var)];
    const bool remote = var.owner != pid;
    const bool critical = remote && var.last_writer != pid;
    return critical ? PendingClass::kCommitCritical
                    : PendingClass::kCommitNonCritical;
  }

  switch (p.pending_.kind) {
    case OpKind::kWrite:
      return PendingClass::kWriteIssue;
    case OpKind::kRead: {
      const VarId v = p.pending_.var;
      if (p.buffered_value(v, nullptr)) return PendingClass::kLocalRead;
      const Variable& var = vars_[static_cast<std::size_t>(v)];
      if (var.owner == pid) return PendingClass::kLocalRead;
      // Without the CostObserver there is no remote-read history; every
      // remote read conservatively classifies as critical.
      return remotely_read(pid, v) ? PendingClass::kNonCriticalRead
                                   : PendingClass::kCriticalRead;
    }
    case OpKind::kFence:
      return PendingClass::kBeginFence;
    case OpKind::kCas:
      return PendingClass::kCas;
    case OpKind::kEnter:
      return PendingClass::kEnter;
    case OpKind::kCs:
      return PendingClass::kCs;
    case OpKind::kExit:
      return PendingClass::kExit;
  }
  TPA_FAIL("unreachable op kind");
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

namespace {

/// Two independently seeded 64-bit accumulators, each word pushed through a
/// splitmix64-style finalizer. 128 bits keep the pairwise collision odds
/// negligible across any realistic visited-set size (docs/EXPLORER.md).
struct FpMix {
  std::uint64_t lo = 0x9e3779b97f4a7c15ULL;
  std::uint64_t hi = 0xc2b2ae3d27d4eb4fULL;

  static std::uint64_t scramble(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void mix(std::uint64_t x) {
    lo = scramble(lo ^ x);
    hi = scramble(hi + x + 0x9e3779b97f4a7c15ULL);
  }
};

// The incremental fingerprint is a commutative combination of per-component
// hashes: component c with hash h contributes fp_tag_x(tag(c), h) to an XOR
// accumulator and fp_tag_s(tag(c), h) to a SUM accumulator. XOR and
// addition are invertible, so when an event changes a component, the old
// contribution folds out and the new one folds in — O(1) per event, no walk
// over the machine state. Each component hash is itself a sequential FNV-1a
// chain (order-sensitive inside the component, e.g. across buffer entries),
// and the two tagged scrambles are independent, so the pair (x, s) loses
// none of the old sequential walk's discriminating power in practice.

constexpr std::uint64_t kFpBasis = 0xcbf29ce484222325ULL;  // FNV-1a offset

inline std::uint64_t fp_fold(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= 0x100000001b3ULL;
  return h;
}

/// Tag namespaces keep a variable component and a process-position
/// component with the same index from ever colliding.
inline std::uint64_t fp_var_tag(std::size_t v) { return (1ULL << 32) + v; }
inline std::uint64_t fp_proc_tag(std::size_t pos) {
  return (2ULL << 32) + pos;
}

inline std::uint64_t fp_tag_x(std::uint64_t tag, std::uint64_t h) {
  return FpMix::scramble(h + tag * 0x9e3779b97f4a7c15ULL +
                         0x6a09e667f3bcc909ULL);
}
inline std::uint64_t fp_tag_s(std::uint64_t tag, std::uint64_t h) {
  return FpMix::scramble(h ^ (tag * 0xc2b2ae3d27d4eb4fULL +
                              0xbb67ae8584caa73bULL));
}

inline std::uint64_t fp_pid(ProcId p, const ProcId* rename) {
  if (p == kNoProc) return ~0ULL;
  return static_cast<std::uint64_t>(
      rename != nullptr ? rename[static_cast<std::size_t>(p)] : p);
}

/// The committed-memory component of one variable. Variable ids are
/// structural (builders allocate them in a fixed order) and are not
/// renamed; the process-id fields are.
std::uint64_t fp_var_component(const Variable& v, const ProcId* rename) {
  std::uint64_t h = kFpBasis;
  h = fp_fold(h, static_cast<std::uint64_t>(v.value));
  h = fp_fold(h, fp_pid(v.owner, rename));
  h = fp_fold(h, fp_pid(v.last_writer, rename));
  return h;
}

/// One process' *live* blob: control flags, incarnation count, write buffer
/// in FIFO order, and the parked pending op — everything of the full blob
/// except the labelled lane. Deliberately free of process ids, so a
/// renaming permutes blob *positions*, never contents. This is the
/// progress-fingerprint component: an unlabelled lane grows monotonically,
/// so leaving it out is exactly what lets abstract states repeat along a
/// run.
std::uint64_t fp_proc_blob_live(const Proc& p, bool program_valid,
                                bool has_recovery) {
  std::uint64_t h = kFpBasis;
  h = fp_fold(h, (static_cast<std::uint64_t>(p.status()) << 8) |
                     (static_cast<std::uint64_t>(p.mode()) << 6) |
                     (static_cast<std::uint64_t>(p.done()) << 5) |
                     (static_cast<std::uint64_t>(p.crashed()) << 4) |
                     (static_cast<std::uint64_t>(p.has_pending()) << 3) |
                     (static_cast<std::uint64_t>(program_valid) << 2) |
                     (static_cast<std::uint64_t>(has_recovery) << 1));
  h = fp_fold(h, p.incarnations());
  h = fp_fold(h, p.buffer().size());
  for (const BufferedWrite& w : p.buffer()) {
    h = fp_fold(h, static_cast<std::uint64_t>(w.var));
    h = fp_fold(h, static_cast<std::uint64_t>(w.value));
  }
  if (p.has_pending()) {
    h = fp_fold(h, (static_cast<std::uint64_t>(p.pending().kind) << 32) |
                       static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(p.pending().var)));
    h = fp_fold(h, static_cast<std::uint64_t>(p.pending().value));
    h = fp_fold(h, static_cast<std::uint64_t>(p.pending().expected));
  }
  return h;
}

/// The full blob: live blob plus the labelled lane (the coroutine-frame
/// surrogate: the declared location and its locals, or the op-result stream
/// the frame is a deterministic function of) folded last, so both hashes
/// come out of one pass over the process.
inline std::uint64_t fp_proc_blob_full(std::uint64_t live, const Proc& p) {
  return fp_fold(live, p.op_history_hash());
}

std::uint64_t fp_proc_blob(const Proc& p, bool program_valid,
                           bool has_recovery) {
  return fp_proc_blob_full(fp_proc_blob_live(p, program_valid, has_recovery),
                           p);
}

/// Domain tag mixed into progress fingerprints, so a progress key can never
/// collide with a full-state key even for states with empty histories.
constexpr std::uint64_t kFpProgressDomain = 0x70726f6772657373ULL;  // ascii

/// The shared finalizer: accumulators plus everything that is global to the
/// state — config bits the transition relation consults, the component
/// counts, and the scheduler's current process. `domain` separates the
/// progress key space (0 = full-state fingerprints, byte-identical to the
/// pre-liveness scheme).
Fingerprint fp_finalize(const SimConfig& cfg, std::size_t n_vars,
                        std::size_t n_procs, std::uint64_t x, std::uint64_t s,
                        std::uint64_t current_code,
                        std::uint64_t domain = 0) {
  FpMix m;
  m.mix((static_cast<std::uint64_t>(cfg.pso) << 1) |
        static_cast<std::uint64_t>(cfg.crash_model ==
                                   CrashModel::kBufferFlushed));
  m.mix(n_vars);
  m.mix(n_procs);
  m.mix(x);
  m.mix(s);
  m.mix(current_code);
  if (domain != 0) m.mix(domain);
  return {m.lo, m.hi};
}

}  // namespace

void Simulator::fp_dirty_proc(ProcId p) const {
  if (restoring_) return;  // restore() ends with a full fp_rebuild()
  const auto i = static_cast<std::size_t>(p);
  if (!fp_proc_stale_[i]) {
    fp_proc_stale_[i] = 1;
    fp_dirty_procs_.push_back(p);
  }
}

void Simulator::fp_dirty_var(VarId v) const {
  if (restoring_) return;
  const auto i = static_cast<std::size_t>(v);
  if (!fp_var_stale_[i]) {
    fp_var_stale_[i] = 1;
    fp_dirty_vars_.push_back(v);
  }
}

void Simulator::fp_grow_var() {
  if (restoring_) return;
  const std::size_t v = fp_var_.size();
  const std::uint64_t h = fp_var_component(vars_[v], nullptr);
  fp_var_.push_back(h);
  fp_var_stale_.push_back(0);
  fp_x_ ^= fp_tag_x(fp_var_tag(v), h);
  fp_s_ += fp_tag_s(fp_var_tag(v), h);
  // Variables carry no history, so their component is shared verbatim with
  // the progress lanes.
  fp_lx_ ^= fp_tag_x(fp_var_tag(v), h);
  fp_ls_ += fp_tag_s(fp_var_tag(v), h);
}

void Simulator::fp_rebuild() const {
  fp_x_ = 0;
  fp_s_ = 0;
  fp_lx_ = 0;
  fp_ls_ = 0;
  fp_var_.resize(vars_.size());
  fp_var_stale_.assign(vars_.size(), 0);
  fp_dirty_vars_.clear();
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    const std::uint64_t h = fp_var_component(vars_[v], nullptr);
    fp_var_[v] = h;
    fp_x_ ^= fp_tag_x(fp_var_tag(v), h);
    fp_s_ += fp_tag_s(fp_var_tag(v), h);
    fp_lx_ ^= fp_tag_x(fp_var_tag(v), h);
    fp_ls_ += fp_tag_s(fp_var_tag(v), h);
  }
  fp_proc_.resize(procs_.size());
  fp_proc_live_.resize(procs_.size());
  fp_proc_stale_.assign(procs_.size(), 0);
  fp_dirty_procs_.clear();
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const std::uint64_t live = fp_proc_blob_live(
        *procs_[i], programs_[i].valid(), recovery_[i] != nullptr);
    const std::uint64_t h = fp_proc_blob_full(live, *procs_[i]);
    fp_proc_[i] = h;
    fp_proc_live_[i] = live;
    fp_x_ ^= fp_tag_x(fp_proc_tag(i), h);
    fp_s_ += fp_tag_s(fp_proc_tag(i), h);
    fp_lx_ ^= fp_tag_x(fp_proc_tag(i), live);
    fp_ls_ += fp_tag_s(fp_proc_tag(i), live);
  }
}

void Simulator::fp_flush() const {
  for (const VarId v : fp_dirty_vars_) {
    const auto i = static_cast<std::size_t>(v);
    const std::uint64_t tag = fp_var_tag(i);
    fp_x_ ^= fp_tag_x(tag, fp_var_[i]);
    fp_s_ -= fp_tag_s(tag, fp_var_[i]);
    fp_lx_ ^= fp_tag_x(tag, fp_var_[i]);
    fp_ls_ -= fp_tag_s(tag, fp_var_[i]);
    fp_var_[i] = fp_var_component(vars_[i], nullptr);
    fp_x_ ^= fp_tag_x(tag, fp_var_[i]);
    fp_s_ += fp_tag_s(tag, fp_var_[i]);
    fp_lx_ ^= fp_tag_x(tag, fp_var_[i]);
    fp_ls_ += fp_tag_s(tag, fp_var_[i]);
    fp_var_stale_[i] = 0;
  }
  fp_dirty_vars_.clear();
  for (const ProcId p : fp_dirty_procs_) {
    const auto i = static_cast<std::size_t>(p);
    const std::uint64_t tag = fp_proc_tag(i);
    fp_x_ ^= fp_tag_x(tag, fp_proc_[i]);
    fp_s_ -= fp_tag_s(tag, fp_proc_[i]);
    fp_lx_ ^= fp_tag_x(tag, fp_proc_live_[i]);
    fp_ls_ -= fp_tag_s(tag, fp_proc_live_[i]);
    const std::uint64_t live = fp_proc_blob_live(
        *procs_[i], programs_[i].valid(), recovery_[i] != nullptr);
    fp_proc_live_[i] = live;
    fp_proc_[i] = fp_proc_blob_full(live, *procs_[i]);
    fp_x_ ^= fp_tag_x(tag, fp_proc_[i]);
    fp_s_ += fp_tag_s(tag, fp_proc_[i]);
    fp_lx_ ^= fp_tag_x(tag, live);
    fp_ls_ += fp_tag_s(tag, live);
    fp_proc_stale_[i] = 0;
  }
  fp_dirty_procs_.clear();
}

Fingerprint Simulator::fingerprint(ProcId current) const {
  fp_flush();
  const Fingerprint out = fp_finalize(config_, vars_.size(), procs_.size(),
                                      fp_x_, fp_s_, fp_pid(current, nullptr));
  if (config_.fingerprint == FingerprintMode::kAudit) {
    const Fingerprint oracle = fingerprint_oracle(current);
    TPA_CHECK(out == oracle,
              "incremental fingerprint diverged from the full re-walk "
              "oracle (seq=" << seq_ << ", current=p" << current << ")");
  }
  return out;
}

Fingerprint Simulator::fingerprint_oracle(ProcId current,
                                          const ProcId* rename) const {
  std::uint64_t x = 0, s = 0;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    const std::uint64_t h = fp_var_component(vars_[v], rename);
    x ^= fp_tag_x(fp_var_tag(v), h);
    s += fp_tag_s(fp_var_tag(v), h);
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const std::uint64_t h =
        fp_proc_blob(*procs_[i], programs_[i].valid(), recovery_[i] != nullptr);
    // A renaming permutes blob *positions* (the tag), never blob contents.
    const std::size_t pos =
        rename != nullptr ? static_cast<std::size_t>(rename[i]) : i;
    x ^= fp_tag_x(fp_proc_tag(pos), h);
    s += fp_tag_s(fp_proc_tag(pos), h);
  }
  return fp_finalize(config_, vars_.size(), procs_.size(), x, s,
                     fp_pid(current, rename));
}

Fingerprint Simulator::fingerprint_symmetric(ProcId current) const {
  fp_flush();
  const std::size_t n = procs_.size();
  // Renaming-invariant signature per process: (blob hash, hash of the
  // variables it last wrote, is-current flag). Sorting on it yields a
  // canonical order in O(vars + n log n). Processes that tie on the whole
  // signature are genuinely interchangeable — equal blobs, referenced by no
  // variable (a variable has exactly one last writer, so two processes can
  // only share a writer-reference hash when neither is referenced, modulo
  // hash collision), and not current — so any tie-break yields the same
  // canonical fingerprint.
  fp_wref_.assign(n, kFpBasis);
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    const ProcId w = vars_[v].last_writer;
    if (w != kNoProc)
      fp_wref_[static_cast<std::size_t>(w)] =
          fp_fold(fp_wref_[static_cast<std::size_t>(w)], v);
    // Owners are not folded in: symmetric scenarios may not allocate
    // DSM-owned variables (validated before exploration starts).
  }
  fp_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) fp_order_[i] = static_cast<ProcId>(i);
  std::sort(fp_order_.begin(), fp_order_.end(), [&](ProcId a, ProcId b) {
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    if (fp_proc_[ia] != fp_proc_[ib]) return fp_proc_[ia] < fp_proc_[ib];
    if (fp_wref_[ia] != fp_wref_[ib]) return fp_wref_[ia] < fp_wref_[ib];
    return (a == current) < (b == current);
  });
  fp_rank_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos)
    fp_rank_[static_cast<std::size_t>(fp_order_[pos])] =
        static_cast<ProcId>(pos);
  return fingerprint_oracle(current, fp_rank_.data());
}

Fingerprint Simulator::fingerprint_progress(ProcId current) const {
  fp_flush();
  const Fingerprint out =
      fp_finalize(config_, vars_.size(), procs_.size(), fp_lx_, fp_ls_,
                  fp_pid(current, nullptr), kFpProgressDomain);
  if (config_.fingerprint == FingerprintMode::kAudit) {
    const Fingerprint oracle = fingerprint_progress_oracle(current);
    TPA_CHECK(out == oracle,
              "incremental progress fingerprint diverged from the full "
              "re-walk oracle (seq=" << seq_ << ", current=p" << current
                                     << ")");
  }
  return out;
}

bool Simulator::progress_unchanged_since_baseline() const {
  if (!fp_dirty_vars_.empty()) return false;
  for (const ProcId p : fp_dirty_procs_) {
    const auto i = static_cast<std::size_t>(p);
    if (fp_proc_blob_live(*procs_[i], programs_[i].valid(),
                          recovery_[i] != nullptr) != fp_proc_live_[i])
      return false;
  }
  return true;
}

Fingerprint Simulator::fingerprint_progress_oracle(ProcId current,
                                                   const ProcId* rename) const {
  std::uint64_t x = 0, s = 0;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    const std::uint64_t h = fp_var_component(vars_[v], rename);
    x ^= fp_tag_x(fp_var_tag(v), h);
    s += fp_tag_s(fp_var_tag(v), h);
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const std::uint64_t h = fp_proc_blob_live(
        *procs_[i], programs_[i].valid(), recovery_[i] != nullptr);
    const std::size_t pos =
        rename != nullptr ? static_cast<std::size_t>(rename[i]) : i;
    x ^= fp_tag_x(fp_proc_tag(pos), h);
    s += fp_tag_s(fp_proc_tag(pos), h);
  }
  return fp_finalize(config_, vars_.size(), procs_.size(), x, s,
                     fp_pid(current, rename), kFpProgressDomain);
}

Fingerprint Simulator::fingerprint_progress_symmetric(ProcId current) const {
  fp_flush();
  const std::size_t n = procs_.size();
  // Same canonicalization as fingerprint_symmetric, but the signature sorts
  // on the *live* blob: two processes with equal abstract state but distinct
  // op histories must land in the same canonical slot, or a renamed revisit
  // of an abstract state would hash differently and cycles through it would
  // be missed.
  fp_wref_.assign(n, kFpBasis);
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    const ProcId w = vars_[v].last_writer;
    if (w != kNoProc)
      fp_wref_[static_cast<std::size_t>(w)] =
          fp_fold(fp_wref_[static_cast<std::size_t>(w)], v);
  }
  fp_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) fp_order_[i] = static_cast<ProcId>(i);
  std::sort(fp_order_.begin(), fp_order_.end(), [&](ProcId a, ProcId b) {
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    if (fp_proc_live_[ia] != fp_proc_live_[ib])
      return fp_proc_live_[ia] < fp_proc_live_[ib];
    if (fp_wref_[ia] != fp_wref_[ib]) return fp_wref_[ia] < fp_wref_[ib];
    return (a == current) < (b == current);
  });
  fp_rank_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos)
    fp_rank_[static_cast<std::size_t>(fp_order_[pos])] =
        static_cast<ProcId>(pos);
  return fingerprint_progress_oracle(current, fp_rank_.data());
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

SimSnapshot Simulator::snapshot() const {
  SimSnapshot s;
  snapshot_into(s);
  return s;
}

void Simulator::snapshot_into(SimSnapshot& s) const {
  s.seq = seq_;
  s.var_values.clear();
  s.var_writers.clear();
  s.var_values.reserve(vars_.size());
  s.var_writers.reserve(vars_.size());
  for (const Variable& v : vars_) {
    s.var_values.push_back(v.value);
    s.var_writers.push_back(v.last_writer);
  }
  // Resize rather than clear: a recycled snapshot's ProcStates keep their
  // vector capacities (buffer, op_results, ...) across round-trips, which is
  // what makes pooling them in the explorer pay off.
  s.procs.resize(procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const Proc& p = *procs_[i];
    SimSnapshot::ProcState& ps = s.procs[i];
    ps.status = p.status_;
    ps.mode = p.mode_;
    ps.buffer = p.buffer_;
    ps.pending = p.pending_;
    ps.has_pending = p.has_pending_;
    ps.done = p.done_;
    ps.crashed = p.crashed_;
    ps.incarnations = p.incarnations_;
    ps.op_results = p.op_results_;
    ps.op_hash = p.op_hash_;
    ps.fences_total = p.fences_total_;
    ps.passages_done = p.passages_done_;
    ps.cur = p.cur_;
    ps.met = p.met_;
    ps.finished = p.finished_;
  }
  s.touched = touched_;
  s.observers.clear();
  s.observers.reserve(observers_.size());
  for (const auto& o : observers_) s.observers.push_back(o->snapshot());
}

bool Simulator::feed(Proc& p, const std::vector<Value>& results) {
  for (const Value r : results) {
    if (!p.has_pending_) return false;
    p.pending_.result = r;
    p.has_pending_ = false;
    const auto h = p.resume_point_;
    p.resume_point_ = {};
    h.resume();
  }
  return true;
}

void Simulator::fast_forward(Proc& p) {
  owed_[static_cast<std::size_t>(p.id())] = 0;
  // The frame sits at its first suspension point; the state's pending op
  // (result included) is what the caller is about to hand it. Replaying
  // re-runs the frame's at() calls, and feeding folds nothing: the lane
  // restore() installed is the one to keep.
  const SimOp want = p.pending_;
  const std::uint64_t lane = p.op_hash_;
  if (!feed(p, p.op_results_) || !p.has_pending_ || !same_op(p.pending_, want))
    restore_diverged(p, "fed its recorded op results at its first resume, "
                        "the respawned frame is not pending on the recorded "
                        "op");
  p.pending_ = want;
  p.op_hash_ = lane;
}

void Simulator::restore(const SimSnapshot& snap,
                        const std::function<void(Simulator&)>& build) {
  const std::size_t n = procs_.size();
  TPA_CHECK(snap.procs.size() == n,
            "snapshot has " << snap.procs.size() << " procs, simulator has "
                            << n);
  TPA_CHECK(snap.observers.size() == observers_.size(),
            "snapshot has " << snap.observers.size()
                            << " observer states, simulator has "
                            << observers_.size());
  // restoring_ freezes the incremental fingerprint (rebuilt in one pass at
  // the end) and turns spawn()/set_recovery() into slot fillers; it must
  // drop on every exit, a throwing builder included.
  struct Restoring {
    bool& flag;
    explicit Restoring(bool& f) : flag(f) { flag = true; }
    ~Restoring() { flag = false; }
  } restoring(restoring_);

  // Keep every frame that has not moved; tear down the rest. The builder
  // is needed only for an original incarnation that has no spare left, or
  // on a simulator it never ran on (no variables yet).
  bool need_build = vars_.empty();
  respawn_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Proc& p = *procs_[i];
    const SimSnapshot::ProcState& ps = snap.procs[i];
    // Unmoved: same incarnation, flags and op-result stream (a kept frame
    // that still owes its results owes exactly these).
    if (p.incarnations_ == ps.incarnations && p.crashed_ == ps.crashed &&
        p.done_ == ps.done && p.has_pending_ == ps.has_pending &&
        p.op_results_ == ps.op_results)
      continue;
    respawn_[i] = 1;
    programs_[i] = Task<>();
    owed_[i] = 0;
    if (!ps.crashed && ps.incarnations == 0 && !spares_[i].valid())
      need_build = true;
  }
  if (need_build) {
    vars_.clear();
    seq_ = 0;  // the builder may poke() initial values
    build(*this);
  }
  if (vars_.size() != snap.var_values.size()) {
    std::ostringstream os;
    os << "restore diverged: the builder allocated " << vars_.size()
       << " vars, the snapshot has " << snap.var_values.size();
    throw std::logic_error(os.str());
  }

  for (std::size_t i = 0; i < n; ++i) {
    Proc& p = *procs_[i];
    const SimSnapshot::ProcState& ps = snap.procs[i];
    if (respawn_[i]) {
      p.pending_ = SimOp{OpKind::kRead};
      p.has_pending_ = false;
      p.resume_point_ = {};
      p.done_ = false;
      if (ps.crashed) {
        // No live coroutine at all until the process recovers.
        TPA_CHECK(ps.op_results.empty(),
                  "restore: crashed p" << p.id() << " has recorded op results");
      } else {
        Task<>& program = programs_[i];
        if (ps.incarnations > 0) {
          if (recovery_[i] == nullptr)
            restore_diverged(p, "recovered, but the builder registered no "
                                "recovery section");
          program = recovery_[i](p);
        } else {
          program = std::move(spares_[i]);  // empty: the builder spawns none
        }
        if (program.valid()) program.start();
        if (ps.has_pending && !ps.op_results.empty()) {
          // Owed: fed at the first resume, or never.
          if (!p.has_pending_)
            restore_diverged(p, "ran out of pending ops");
          owed_[i] = 1;
        } else {
          // Nothing to defer: a finished frame is never resumed again.
          if (!feed(p, ps.op_results))
            restore_diverged(p, "ran out of pending ops");
          if (program.valid() && !p.has_pending_) {
            p.done_ = true;
            program.rethrow_if_failed();
          }
          if (p.done_ != ps.done || p.has_pending_ != ps.has_pending ||
              (ps.has_pending && !same_op(p.pending_, ps.pending)))
            restore_diverged(p, "the replayed frame does not match the "
                                "recorded state");
        }
      }
      p.op_results_ = ps.op_results;
    }
    p.op_hash_ = ps.op_hash;
    p.status_ = ps.status;
    p.mode_ = ps.mode;
    p.buffer_ = ps.buffer;
    p.pending_ = ps.pending;
    p.has_pending_ = ps.has_pending;
    p.done_ = ps.done;
    p.crashed_ = ps.crashed;
    p.incarnations_ = ps.incarnations;
    p.fences_total_ = ps.fences_total;
    p.passages_done_ = ps.passages_done;
    p.cur_ = ps.cur;
    p.met_ = ps.met;
    p.finished_ = ps.finished;
  }
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    vars_[v].value = snap.var_values[v];
    vars_[v].last_writer = snap.var_writers[v];
  }
  seq_ = snap.seq;
  touched_ = snap.touched;
  // Incremental-fingerprint caches were frozen (fp_dirty_* no-ops) during
  // the restore; recompute them from the restored state in one pass.
  fp_rebuild();
  for (std::size_t i = 0; i < observers_.size(); ++i)
    observers_[i]->restore(snap.observers[i].get());
}

}  // namespace tpa::tso

#include "tso/fuzz.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "tso/schedulers.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace tpa::tso {

std::string FuzzResult::to_json() const {
  std::ostringstream os;
  os << "{";
  json_fields(os);
  os << ",\"violating_run\":" << violating_run << ",\"schedule_digest\":"
     << schedule_digest << "}";
  return os.str();
}

namespace {

// FNV-1a, folded over one directive at a time.
void digest_directive(std::uint64_t* h, const Directive& d) {
  auto mix = [h](std::uint64_t byte) {
    *h ^= byte;
    *h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(d.kind));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.proc)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.var)));
}

/// One fuzz run in flight: the applied schedule plus its outcome. A pass
/// reuses one object for every run, so clear() keeps all capacity.
struct RunOutcome {
  std::vector<Directive> schedule;
  bool violated = false;
  bool complete = false;
  int crashes = 0;  ///< crash directives applied so far this run
  std::string violation;
  // Per-run scratch.
  std::vector<Directive> seed_schedule;  ///< the mutated corpus entry
  std::vector<ProcId> actors;
  std::vector<ProcId> crashable;

  void clear() {
    schedule.clear();
    violated = false;
    complete = false;
    crashes = 0;
  }
};

/// Runs the completion invariant `hook` (if set) on `sim`; a CheckFailure
/// it raises is a violation, its message stored in `*violation`.
bool hook_fails(const Simulator& sim, const ScheduleHook& hook,
                std::string* violation) {
  if (!hook) return false;
  try {
    hook(sim);
  } catch (const CheckFailure& e) {
    *violation = e.what();
    return true;
  }
  return false;
}

struct LenientStatus {
  bool violated = false;
  bool complete = false;
};

/// The body of replay_lenient, onto `sim` at its initial state. `*applied`
/// is overwritten with the directives that applied (ending in the violating
/// one, if any) and `*violation` receives a violation's message; callers
/// that replay many schedules keep both buffers and restore `sim` in place.
LenientStatus replay_lenient_onto(Simulator& sim,
                                  const std::vector<Directive>& directives,
                                  const ScheduleHook& on_complete,
                                  std::vector<Directive>* applied,
                                  std::string* violation) {
  LenientStatus st;
  applied->clear();
  for (const Directive& d : directives) {
    bool ok = false;
    try {
      ok = sim.apply(d);
    } catch (const CheckFailure& e) {
      applied->push_back(d);
      st.violated = true;
      *violation = e.what();
      return st;
    }
    if (ok) applied->push_back(d);
  }
  st.complete = all_done(sim);
  if (st.complete) st.violated = hook_fails(sim, on_complete, violation);
  return st;
}

/// Drives `sim` with uniformly random actor choice until completion, the
/// step cap, or a violation. Buffered writes commit with `commit_prob` per
/// step (a finished program's buffer always drains when the process is
/// picked); under PSO the committed entry is chosen uniformly.
void continue_random(Simulator& sim, Rng& rng, double commit_prob,
                     double crash_prob, int max_crashes,
                     std::uint64_t max_steps, RunOutcome* out) {
  const std::size_t n = sim.num_procs();
  std::vector<ProcId>& actors = out->actors;
  while (out->schedule.size() < max_steps) {
    actors.clear();
    for (std::size_t q = 0; q < n; ++q) {
      const Proc& proc = sim.proc(static_cast<ProcId>(q));
      if (proc.crashed()) {
        if (sim.has_recovery(static_cast<ProcId>(q)))
          actors.push_back(static_cast<ProcId>(q));
      } else if ((!proc.done() && proc.has_pending()) ||
                 !proc.buffer().empty()) {
        actors.push_back(static_cast<ProcId>(q));
      }
    }
    if (actors.empty()) {
      out->complete = true;
      return;
    }
    // Fault injection. The short-circuit guard consumes no randomness when
    // crash_prob is 0, keeping crash-free schedule digests unchanged.
    if (crash_prob > 0 && out->crashes < max_crashes &&
        rng.chance(crash_prob)) {
      std::vector<ProcId>& crashable = out->crashable;
      crashable.clear();
      for (std::size_t q = 0; q < n; ++q)
        if (sim.can_crash(static_cast<ProcId>(q)))
          crashable.push_back(static_cast<ProcId>(q));
      if (!crashable.empty()) {
        const Directive d{ActionKind::kCrash,
                          crashable[rng.below(crashable.size())]};
        bool ok = false;
        try {
          ok = sim.apply(d);
        } catch (const CheckFailure& e) {
          out->schedule.push_back(d);
          out->violated = true;
          out->violation = e.what();
          return;
        }
        TPA_CHECK(ok, "fuzz: p" << d.proc << " could not crash");
        out->schedule.push_back(d);
        out->crashes++;
        continue;
      }
    }
    const ProcId p = actors[rng.below(actors.size())];
    const Proc& proc = sim.proc(p);
    Directive d{ActionKind::kDeliver, p, kNoVar};
    if (proc.crashed()) {
      d.kind = ActionKind::kRecover;
    } else {
      const bool deliverable = !proc.done() && proc.has_pending();
      if (!deliverable ||
          (!proc.buffer().empty() && rng.chance(commit_prob))) {
        d.kind = ActionKind::kCommit;
        if (sim.config().pso && proc.buffer().size() > 1)
          d.var = proc.buffer()[rng.below(proc.buffer().size())].var;
      }
    }
    bool ok = false;
    try {
      ok = sim.apply(d);
    } catch (const CheckFailure& e) {
      out->schedule.push_back(d);
      out->violated = true;
      out->violation = e.what();
      return;
    }
    TPA_CHECK(ok, "fuzz: chosen actor p" << d.proc << " could not act");
    out->schedule.push_back(d);
  }
}

/// Base probability of committing a buffered write per step.
constexpr double kBaseCommitProb = 0.3;
/// Completed schedules the mutation corpus retains (a ring).
constexpr std::size_t kCorpusSize = 16;

/// Per-run commit probability: half the runs use kBaseCommitProb, the rest
/// sweep the whole [0,1) delay spectrum.
double pick_commit_prob(Rng& rng) {
  return rng.chance(0.5) ? kBaseCommitProb : rng.uniform();
}

/// The body of replay_lasso, onto `sim` at its initial state: `*r` is
/// overwritten, its `stem` buffer reused.
void replay_lasso_onto(Simulator& sim, const std::vector<Directive>& stem,
                       const std::vector<Directive>& cycle, LassoReplay* r) {
  r->closes = false;
  r->kind = VerdictKind::kClean;
  std::string violation;
  if (replay_lenient_onto(sim, stem, {}, &r->stem, &violation).violated ||
      cycle.empty())
    return;  // not a liveness lasso
  const std::size_t n = sim.num_procs();
  // The scheduled process is part of the explorer's on-stack key, so the
  // oracle folds it in too: the process of the last non-crash directive
  // (crashes do not transfer scheduling).
  ProcId current = kNoProc;
  for (const Directive& d : r->stem)
    if (d.kind != ActionKind::kCrash) current = d.proc;
  const Fingerprint entry = sim.fingerprint_progress(current);
  std::vector<Status> status0(n);
  std::vector<char> enabled(n, 0), scheduled(n, 0), changed(n, 0);
  for (std::size_t q = 0; q < n; ++q) {
    status0[q] = sim.proc(static_cast<ProcId>(q)).status();
    enabled[q] = sim.can_act(static_cast<ProcId>(q)) ? 1 : 0;
  }
  for (const Directive& d : cycle) {
    bool ok = false;
    try {
      ok = sim.apply(d);
    } catch (const CheckFailure&) {
      return;  // a safety violation inside the cycle is not a lasso
    }
    if (!ok) return;  // the cycle must apply strictly
    if (d.kind != ActionKind::kCrash) current = d.proc;
    if (d.proc != kNoProc && static_cast<std::size_t>(d.proc) < n)
      scheduled[static_cast<std::size_t>(d.proc)] = 1;
    for (std::size_t q = 0; q < n; ++q)
      if (sim.proc(static_cast<ProcId>(q)).status() != status0[q])
        changed[q] = 1;
  }
  const Fingerprint back = sim.fingerprint_progress(current);
  if (!(back == entry)) return;  // does not re-close the abstract state
  // Weak fairness: every process enabled at the cycle entry must be
  // scheduled somewhere in the cycle, or the lasso describes an unfair
  // scheduler and proves nothing about the algorithm.
  for (std::size_t q = 0; q < n; ++q)
    if (enabled[q] && !scheduled[q]) return;
  r->closes = true;
  // Classification by section-watching: a closing cycle restores every
  // status, so any observed change means a full passage through the
  // critical section happened (progress). A process parked in Entry for the
  // whole cycle is starved; nobody moving at all is a livelock.
  bool starved = false;
  bool any_change = false;
  for (std::size_t q = 0; q < n; ++q) {
    any_change |= changed[q] != 0;
    if (status0[q] == Status::kEntry && !changed[q]) starved = true;
  }
  r->kind = starved ? VerdictKind::kStarvation
                    : (any_change ? VerdictKind::kClean
                                  : VerdictKind::kLivelock);
}

}  // namespace

LenientReplay replay_lenient(std::size_t n_procs, SimConfig sim_config,
                             const ScenarioBuilder& build,
                             const std::vector<Directive>& directives,
                             const ScheduleHook& on_complete) {
  LenientReplay r;
  r.sim = std::make_unique<Simulator>(n_procs, sim_config);
  build(*r.sim);
  const LenientStatus st = replay_lenient_onto(*r.sim, directives, on_complete,
                                               &r.applied, &r.violation);
  r.violated = st.violated;
  r.complete = st.complete;
  return r;
}

ShrinkOutcome shrink_witness(std::size_t n_procs, SimConfig sim_config,
                             const ScenarioBuilder& build,
                             std::vector<Directive> witness,
                             const ScheduleHook& on_complete) {
  ShrinkOutcome out;
  // Every oracle call replays on this one simulator, restored in place to
  // its root state — also after a replay that raised mid-step.
  Simulator sim(n_procs, sim_config);
  build(sim);
  const SimSnapshot root = sim.snapshot();
  std::vector<Directive> cand;
  std::vector<Directive> applied;
  std::string msg;
  auto violates = [&](const std::vector<Directive>& c) {
    if (out.replays++ > 0) sim.restore(root, build);
    return replay_lenient_onto(sim, c, on_complete, &applied, &msg).violated;
  };

  if (!violates(witness)) {
    out.witness = std::move(witness);  // not reproducible: hands off
    return out;
  }
  witness.swap(applied);  // drop directives that never applied
  out.violation = msg;

  std::size_t chunk = std::max<std::size_t>(1, witness.size() / 2);
  while (true) {
    bool removed = false;
    for (std::size_t start = 0; start < witness.size();) {
      const std::size_t stop = std::min(witness.size(), start + chunk);
      cand.assign(witness.begin(),
                  witness.begin() + static_cast<std::ptrdiff_t>(start));
      cand.insert(cand.end(), witness.begin() + static_cast<std::ptrdiff_t>(stop),
                  witness.end());
      if (violates(cand)) {
        // The lenient replay may have dropped even more than the chunk.
        witness.swap(applied);
        out.violation.swap(msg);
        removed = true;  // re-test the same start against the new content
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed) break;  // 1-minimal: no single directive is removable
    } else {
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }
  out.witness = std::move(witness);
  return out;
}

LassoReplay replay_lasso(std::size_t n_procs, SimConfig sim_config,
                         const ScenarioBuilder& build,
                         const std::vector<Directive>& stem,
                         const std::vector<Directive>& cycle) {
  Simulator sim(n_procs, sim_config);
  build(sim);
  LassoReplay r;
  replay_lasso_onto(sim, stem, cycle, &r);
  return r;
}

LassoShrinkOutcome shrink_lasso(std::size_t n_procs, SimConfig sim_config,
                                const ScenarioBuilder& build,
                                std::vector<Directive> witness,
                                std::size_t cycle_start, VerdictKind kind) {
  LassoShrinkOutcome out;
  if (cycle_start >= witness.size()) {  // no cycle part: nothing to shrink
    out.cycle_start = cycle_start;
    out.witness = std::move(witness);
    return out;
  }
  auto b = witness.begin();
  std::vector<Directive> stem(b, b + static_cast<std::ptrdiff_t>(cycle_start));
  std::vector<Directive> cycle(b + static_cast<std::ptrdiff_t>(cycle_start),
                               witness.end());
  // As in shrink_witness, one simulator restored in place to its root
  // serves every oracle call.
  Simulator sim(n_procs, sim_config);
  build(sim);
  const SimSnapshot root = sim.snapshot();
  LassoReplay r;
  // Accept a candidate only if the cycle still closes *and* classifies as
  // the same kind — a starvation witness must not degrade into a livelock
  // or a mere progress cycle mid-shrink. On acceptance r.stem holds the
  // stem directives that applied.
  auto accepts = [&](const std::vector<Directive>& st,
                     const std::vector<Directive>& cy) {
    if (out.replays++ > 0) sim.restore(root, build);
    replay_lasso_onto(sim, st, cy, &r);
    return r.closes && r.kind == kind;
  };
  if (!accepts(stem, cycle)) {
    out.cycle_start = cycle_start;
    out.witness = std::move(witness);  // not reproducible: hands off
    return out;
  }
  stem.swap(r.stem);  // drop stem directives that never applied
  // ddmin one component while holding the other fixed. Stem candidates go
  // through the lenient replay, so an accepted candidate may shed even more
  // directives than the removed chunk; cycle candidates are strict.
  std::vector<Directive> cand;
  auto ddmin = [&](std::vector<Directive>& seq, bool is_stem) {
    bool shrunk_any = false;
    std::size_t chunk = std::max<std::size_t>(1, seq.size() / 2);
    while (true) {
      bool removed = false;
      for (std::size_t start = 0; start < seq.size();) {
        const std::size_t stop = std::min(seq.size(), start + chunk);
        cand.assign(seq.begin(),
                    seq.begin() + static_cast<std::ptrdiff_t>(start));
        cand.insert(cand.end(),
                    seq.begin() + static_cast<std::ptrdiff_t>(stop),
                    seq.end());
        const bool ok = is_stem ? accepts(cand, cycle) : accepts(stem, cand);
        if (ok) {
          seq.swap(is_stem ? r.stem : cand);
          removed = true;
          shrunk_any = true;  // re-test the same start against the new seq
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) {
        if (!removed) break;  // 1-minimal within this component
      } else {
        chunk = std::max<std::size_t>(1, chunk / 2);
      }
    }
    return shrunk_any;
  };
  // Cycle first (it is what makes the witness a lasso), then the stem, and
  // around again: a shorter stem can land on a state from which more of the
  // cycle is removable.
  while (true) {
    bool any = ddmin(cycle, /*is_stem=*/false);
    if (ddmin(stem, /*is_stem=*/true)) any = true;
    if (!any) break;
  }
  out.witness = std::move(stem);
  out.cycle_start = out.witness.size();
  out.witness.insert(out.witness.end(), cycle.begin(), cycle.end());
  return out;
}

FuzzResult fuzz(std::size_t n_procs, SimConfig sim_config,
                const ScenarioBuilder& build, const FuzzConfig& config) {
  FuzzResult result;
  result.schedule_digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  // The fuzzer logs schedules itself and only needs the ExclusionChecker
  // (plus the core's structural checks) as its oracle: with no per-run hook,
  // run the bare core. A hook gets the caller's instrumentation unchanged.
  SimConfig run_cfg = sim_config;
  if (!config.on_complete) {
    run_cfg.track_awareness = false;
    run_cfg.record_trace = false;
    run_cfg.track_costs = false;
  }
  Rng rng(config.seed);
  std::vector<std::vector<Directive>> corpus;
  const auto deadline = deadline_after(config.time_budget_ms);
  // One simulator serves the whole pass: every run after the first starts
  // from the root state, restored in place.
  Simulator sim(n_procs, run_cfg);
  sim.count_events_into(&result.steps);
  build(sim);
  const SimSnapshot root = sim.snapshot();
  RunOutcome out;

  for (std::uint64_t run = 0; run < config.runs; ++run) {
    if (deadline != kNoDeadline &&
        std::chrono::steady_clock::now() >= deadline) {
      result.deadline_hit = true;
      break;
    }

    if (run > 0) sim.restore(root, build);
    out.clear();
    const double commit_prob = pick_commit_prob(rng);

    if (!corpus.empty() && rng.chance(0.75)) {
      std::vector<Directive>& seed_schedule = out.seed_schedule;
      seed_schedule = corpus[rng.below(corpus.size())];
      const auto is_crash = [](const Directive& d) {
        return d.kind == ActionKind::kCrash;
      };
      const auto seed_crashes = static_cast<std::size_t>(
          std::count_if(seed_schedule.begin(), seed_schedule.end(), is_crash));
      // The crash-relocation mutation only enters the lottery when the seed
      // schedule actually carries a crash, so crash-free configs keep the
      // exact pre-fault-injection mutation stream.
      switch (rng.below(seed_crashes > 0 ? 5u : 4u)) {
        case 0: {  // prefix truncation: keep a prefix, re-randomize the rest
          seed_schedule.resize(rng.below(seed_schedule.size() + 1));
          break;
        }
        case 1: {  // window deletion
          if (!seed_schedule.empty()) {
            const std::size_t a = rng.below(seed_schedule.size());
            const std::size_t len = 1 + rng.below(8);
            const std::size_t b = std::min(seed_schedule.size(), a + len);
            seed_schedule.erase(
                seed_schedule.begin() + static_cast<std::ptrdiff_t>(a),
                seed_schedule.begin() + static_cast<std::ptrdiff_t>(b));
          }
          break;
        }
        case 2: {  // adjacent swap across processes
          if (seed_schedule.size() >= 2) {
            const std::size_t i = rng.below(seed_schedule.size() - 1);
            if (seed_schedule[i].proc != seed_schedule[i + 1].proc)
              std::swap(seed_schedule[i], seed_schedule[i + 1]);
          }
          break;
        }
        case 3: {  // commit-delay re-parameterization: drop all commits,
                   // letting the random tail re-decide every delay
          seed_schedule.erase(
              std::remove_if(seed_schedule.begin(), seed_schedule.end(),
                             [](const Directive& d) {
                               return d.kind == ActionKind::kCommit;
                             }),
              seed_schedule.end());
          break;
        }
        case 4: {  // crash relocation: move one crash to a fresh position,
                   // probing a different crash point on the same schedule
          std::size_t k = rng.below(seed_crashes);  // the k-th crash moves
          auto it = std::find_if(seed_schedule.begin(), seed_schedule.end(),
                                 [&](const Directive& d) {
                                   return is_crash(d) && k-- == 0;
                                 });
          const Directive d = *it;
          seed_schedule.erase(it);
          const std::size_t j = rng.below(seed_schedule.size() + 1);
          seed_schedule.insert(
              seed_schedule.begin() + static_cast<std::ptrdiff_t>(j), d);
          break;
        }
      }
      // Lenient prefix replay: inapplicable mutated directives are skipped.
      out.violated = replay_lenient_onto(sim, seed_schedule, {}, &out.schedule,
                                         &out.violation)
                         .violated;
      out.crashes = static_cast<int>(
          std::count_if(out.schedule.begin(), out.schedule.end(), is_crash));
    }
    if (!out.violated)
      continue_random(sim, rng, commit_prob, config.crash_prob,
                      config.max_crashes, config.max_steps, &out);
    if (out.complete)
      out.violated = hook_fails(sim, config.on_complete, &out.violation);

    result.schedules++;
    if (!out.violated && !out.complete) result.truncated++;
    for (const Directive& d : out.schedule)
      digest_directive(&result.schedule_digest, d);
    result.schedule_digest ^= 0xabcdefULL;  // run separator
    result.schedule_digest *= 0x100000001b3ULL;

    if (out.violated) {
      result.verdict.kind = VerdictKind::kSafety;
      result.verdict.message = out.violation;
      result.violating_run = run;
      result.verdict.raw_witness = std::move(out.schedule);
      if (config.shrink) {
        ShrinkOutcome shrunk =
            shrink_witness(n_procs, run_cfg, build, result.verdict.raw_witness,
                           config.on_complete);
        result.verdict.witness = std::move(shrunk.witness);
      } else {
        result.verdict.witness = result.verdict.raw_witness;
      }
      return result;
    }
    // Copy, not move: the entry's and the schedule's capacity both survive.
    if (out.complete && !out.schedule.empty()) {
      if (corpus.size() < kCorpusSize)
        corpus.push_back(out.schedule);
      else
        corpus[run % kCorpusSize] = out.schedule;
    }
  }
  return result;
}

}  // namespace tpa::tso

// tpa_bench — the end-to-end benchmark driver: time-to-verdict over six
// workloads, plus a per-layer profile measured from outside the library.
//
//   tpa_bench --workload=<name> --seed=<n> --seconds=<s> --scratch=<dir>
//             [--trace=<spans.jsonl>] [--setup]
//
// Each run is one process with one job in flight (a closed loop). It runs
// the workload's jobs round-robin for at least --seconds and at least three
// rounds, checks every verdict, and prints one JSON object as the last line
// of stdout. Untraced, it reports `verdict_norm_s` — how long one pass over
// the workload takes, from each job's host-normalized fast-decile wall time
// (see run_untraced) — and the peak RSS. With --trace it reports the per-layer
// metrics instead: spans around every call into a layer (written to the
// given JSONL file), ablation pairs, and the layer microdriver
// (microdriver.h). --setup runs only the set-up: the registry lookups and the
// workload's smallest job, checked; tpa_bench/run.py times that from outside.
//
// Only public APIs are called, and no thread is started besides the
// explorer's own workers (two on the `parallel` workload).
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "microdriver.h"
#include "runtime/harness.h"
#include "runtime/locks.h"
#include "runtime/scenario.h"
#include "trace/atomic_io.h"
#include "trace/campaign.h"
#include "trace/format.h"
#include "tso/fuzz.h"
#include "tso/visited.h"
#include "util/check.h"
#include "util/rng.h"

namespace tpa::bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- host speed ------------------------------------------------------------

// On a shared host, other tenants slow every instruction this process runs,
// by up to 2x, for stretches of a second to minutes: a deterministic job's
// median wall time moves by 15-50% from one run to another. A fixed piece of
// integer work timed next to every job slows by about the same factor, so
// scaling each job by the probe's nominal/measured time cancels most of it.
// The probe is timed in thread CPU time: a thread of this process competing
// for the CPU still shows in the normalized times.

/// Normalized seconds are seconds on a host that runs the probe in this many
/// microseconds of CPU time, about what an unloaded x86 server core takes.
constexpr double kNominalProbeUs = 2600;

volatile std::uint64_t g_probe_sink = 0;

double thread_cpu_us() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}

/// Microseconds of thread CPU time for a fixed piece of work: a xorshift
/// chain, which tracks the core's speed, then a data-dependent switch over a
/// 16 KiB table, which also tracks contention for the branch predictors and
/// the L1/L2 caches that an SMT sibling shares. Measured against explorer and
/// fuzzer jobs over 9 minutes on a 4-core VM, normalizing by both halves
/// cut the spread of 12-second fast deciles from 10% to about 1%.
double probe_us() {
  static std::array<std::uint32_t, 4096> table{};
  const double t0 = thread_cpu_us();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  auto step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };
  for (int i = 0; i < 500'000; ++i) step();
  for (int i = 0; i < 150'000; ++i) {
    step();
    switch (x & 7) {
      case 0: acc += table[x >> 52]++; break;
      case 1: acc ^= x; break;
      case 2: acc = acc * 3 + 1; break;
      case 3: table[(x >> 40) & 4095] ^= static_cast<std::uint32_t>(acc); break;
      case 4: acc += static_cast<std::uint64_t>(std::popcount(x)); break;
      case 5: acc -= table[acc & 4095]; break;
      case 6: acc = std::rotl(acc, 1); break;
      default: acc += 7;
    }
  }
  g_probe_sink = x + acc;
  return thread_cpu_us() - t0;
}

// ---- tracing ---------------------------------------------------------------

/// One timed call into a layer. Spans are kept in memory and written when
/// the run ends, so tracing costs two clock reads and a vector append.
struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< index of the enclosing span, -1 for a job root
  std::uint64_t job;
};

class Tracer {
 public:
  int open(const char* name) {
    spans_.push_back({name, now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back(), job_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  void begin_job(std::uint64_t id) { job_ = id; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::uint64_t job_ = 0;
};

Tracer* g_tracer = nullptr;  // set only while a traced repetition runs

class Span {
 public:
  explicit Span(const char* name)
      : index_(g_tracer != nullptr ? g_tracer->open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) g_tracer->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ---- checks and per-layer accounting ---------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 20)
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

struct NativeStats {
  double rate_1t = 0, rate_2t = 0, fences_1t = 0, rmws_1t = 0;
};

/// Counts and wall times gathered from the results the layers return.
/// Only traced repetitions feed it.
struct Totals {
  std::uint64_t events = 0, schedules = 0, truncated = 0, snapshots = 0,
                restores = 0, dedup_hits = 0, dedup_states = 0,
                evictions = 0, dedup_entries = 0, dedup_bytes = 0;
  double explore_s = 0;
  std::uint64_t fuzz_runs = 0, fuzz_events = 0;
  double fuzz_s = 0;
  std::vector<double> runs_to_hit, shrink_replays, witness_len;
  double raw_len = 0, shrunk_len = 0;
  std::uint64_t lasso_len = 0, lasso_replays = 0, campaign_bytes = 0;
  std::map<std::string, NativeStats> native;

  void add(const tso::ExplorerResult& r, double wall_s) {
    events += r.steps;
    schedules += r.schedules;
    truncated += r.truncated;
    snapshots += r.snapshots;
    restores += r.restores;
    dedup_hits += r.dedup_hits;
    dedup_states += r.dedup_states;
    evictions += r.dedup_evictions;
    dedup_entries = std::max(dedup_entries, r.dedup_entries);
    dedup_bytes = std::max(dedup_bytes, r.dedup_bytes);
    explore_s += wall_s;
  }
  void add(const tso::FuzzResult& r, double wall_s) {
    fuzz_runs += r.schedules;
    fuzz_events += r.steps;
    fuzz_s += wall_s;
  }
};

/// What a job repetition sees: where its checks and counts go, the run's
/// seed, its repetition index, and a directory for files it writes.
struct Ctx {
  Checks& checks;
  Totals& totals;
  std::uint64_t seed;
  std::uint64_t rep;
  fs::path scratch;
};

using RunFn = std::function<void(Ctx&)>;

struct Job {
  std::string name;
  RunFn run;
  /// Variants the traced run interleaves with `run` to price one mechanism:
  /// "liveness_off" and "campaign_off" on certify, "threads_1" on parallel.
  std::vector<std::pair<std::string, RunFn>> ablations = {};
};

struct Workload {
  std::vector<Job> jobs;
  std::size_t warmup = 0;  ///< the smallest job: runs untimed first
  int threads = 1;         ///< threads the explorer uses
  std::vector<const runtime::Scenario*> scenarios;  ///< for the microdriver
};

const runtime::Scenario& scenario(const std::string& name) {
  const runtime::Scenario* s = runtime::find_scenario(name);
  TPA_CHECK(s != nullptr, "scenario '" << name << "' is not in the registry");
  return *s;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (a << 32) ^ b;
  return splitmix64(state);
}

fs::path fresh_dir(const Ctx& ctx, const std::string& tag) {
  static std::uint64_t counter = 0;
  fs::path dir = ctx.scratch / (tag + "-" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- explorer jobs ---------------------------------------------------------

/// No job comes near this; it only turns a hang into a failed check.
constexpr std::uint64_t kWatchdogMs = 120'000;

struct Scope {
  const char* scenario;
  int preemptions;
  int max_crashes;
  std::uint64_t max_steps;
  bool symmetry = false;
  std::uint64_t max_bytes = tso::VisitedSet::kUnlimitedBytes;
};

std::string scope_name(const Scope& s) {
  std::ostringstream os;
  os << s.scenario << " p" << s.preemptions;
  if (s.max_crashes > 0) os << " c" << s.max_crashes;
  os << " s" << s.max_steps;
  if (s.symmetry) os << " sym";
  if (s.max_bytes != tso::VisitedSet::kUnlimitedBytes)
    os << " " << (s.max_bytes >> 20) << "MiB";
  return os.str();
}

tso::ExplorerConfig scope_config(const Scope& s) {
  tso::ExplorerConfig cfg;
  cfg.preemptions = s.preemptions;
  cfg.max_crashes = s.max_crashes;
  cfg.max_steps = s.max_steps;
  cfg.dedup = tso::DedupMode::kState;
  if (s.symmetry) cfg.symmetric_processes = tso::SymmetryMode::kCanonical;
  cfg.dedup_max_bytes = s.max_bytes;
  cfg.time_budget_ms = kWatchdogMs;
  return cfg;
}

struct Counts {
  std::uint64_t schedules, truncated, steps;
  bool operator==(const Counts&) const = default;
};

struct CleanExpect {
  bool repeatable = true;  ///< counts must repeat exactly across reps
  std::optional<std::pair<std::uint64_t, std::uint64_t>> exact = {};
  bool campaign = false;   ///< checkpoint to a fresh campaign file
};

/// One exploration of a scope that must certify clean: exhausted, within
/// the watchdog, and — sequentially — with the same counts every time.
RunFn clean_explore(const runtime::Scenario* s, const std::string& name,
                    tso::ExplorerConfig cfg, CleanExpect expect) {
  auto first = std::make_shared<std::optional<Counts>>();
  return [=](Ctx& ctx) {
    tso::ExplorerConfig c = cfg;
    fs::path dir;
    if (expect.campaign) {
      dir = fresh_dir(ctx, "campaign");
      c.campaign_path = (dir / "explore.campaign").string();
    }
    const auto t0 = Clock::now();
    tso::ExplorerResult r;
    {
      Span span("explore");
      r = s->explore(c);
    }
    ctx.totals.add(r, seconds_since(t0));
    ctx.checks.expect(!r.verdict.found() && r.exhausted && !r.deadline_hit,
                      name + ": not a clean exhausted verdict: " +
                          r.verdict.message);
    const Counts counts{r.schedules, r.truncated, r.steps};
    if (expect.exact)
      ctx.checks.expect(r.schedules == expect.exact->first &&
                            r.truncated == expect.exact->second,
                        name + ": raw schedule counts changed");
    if (expect.repeatable) {
      if (!first->has_value()) *first = counts;
      ctx.checks.expect(**first == counts, name + ": counts did not repeat");
    }
    if (expect.campaign) {
      trace::Campaign camp;
      {
        Span span("campaign_io");
        camp = trace::read_campaign_file(c.campaign_path);
      }
      ctx.checks.expect(camp.complete && !camp.verdict.found() &&
                            camp.frontier.empty(),
                        name + ": final campaign is not complete and clean");
      ctx.totals.campaign_bytes += fs::file_size(c.campaign_path);
      fs::remove_all(dir);
    }
  };
}

Job prove_job(const Scope& scope) {
  const std::string name = scope_name(scope);
  return {name, clean_explore(&scenario(scope.scenario), name,
                              scope_config(scope), {})};
}

Job certify_job(const Scope& scope) {
  const runtime::Scenario* s = &scenario(scope.scenario);
  tso::ExplorerConfig cfg = scope_config(scope);
  cfg.liveness = tso::LivenessMode::kCheck;
  const std::string name = scope_name(scope) + " live";
  tso::ExplorerConfig no_liveness = cfg;
  no_liveness.liveness = tso::LivenessMode::kOff;
  return {name,
          clean_explore(s, name, cfg, {.campaign = true}),
          {{"liveness_off", clean_explore(s, name + " (liveness off)",
                                          no_liveness, {.campaign = true})},
           {"campaign_off",
            clean_explore(s, name + " (no campaign)", cfg, {})}}};
}

/// tas-loop-2p must starve: the explorer reports a lasso, shrink_lasso
/// shrinks it, and replay_lasso closes the shrunk lasso with the same kind.
Job starvation_job() {
  const Scope scope{"tas-loop-2p", 3, 0, 600};
  const runtime::Scenario* s = &scenario(scope.scenario);
  const std::string name = scope_name(scope) + " live";
  RunFn run = [s, scope, name](Ctx& ctx) {
    tso::ExplorerConfig cfg = scope_config(scope);
    cfg.liveness = tso::LivenessMode::kCheck;
    cfg.shrink = false;
    const fs::path dir = fresh_dir(ctx, "campaign");
    cfg.campaign_path = (dir / "explore.campaign").string();
    const auto t0 = Clock::now();
    tso::ExplorerResult r;
    {
      Span span("explore");
      r = s->explore(cfg);
    }
    ctx.totals.add(r, seconds_since(t0));
    const tso::Verdict& v = r.verdict;
    ctx.checks.expect(v.kind == tso::VerdictKind::kStarvation &&
                          v.is_lasso() && !r.deadline_hit,
                      name + ": no starvation lasso");
    trace::Campaign camp;
    {
      Span span("campaign_io");
      camp = trace::read_campaign_file(cfg.campaign_path);
    }
    ctx.checks.expect(camp.complete &&
                          camp.verdict.kind == tso::VerdictKind::kStarvation,
                      name + ": final campaign does not record the lasso");
    ctx.totals.campaign_bytes += fs::file_size(cfg.campaign_path);
    fs::remove_all(dir);
    if (!v.is_lasso()) return;

    tso::LassoShrinkOutcome shrunk;
    {
      Span span("shrink_lasso");
      shrunk = tso::shrink_lasso(s->n_procs, s->sim, s->build, v.witness,
                                 v.cycle_start, v.kind);
    }
    ctx.checks.expect(shrunk.cycle_start < shrunk.witness.size() &&
                          shrunk.witness.size() <= v.witness.size(),
                      name + ": shrunk lasso is malformed");
    const auto at = shrunk.witness.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(shrunk.cycle_start, shrunk.witness.size()));
    const std::vector<tso::Directive> stem(shrunk.witness.begin(), at);
    const std::vector<tso::Directive> cycle(at, shrunk.witness.end());
    tso::LassoReplay replayed;
    {
      Span span("replay");
      replayed = tso::replay_lasso(s->n_procs, s->sim, s->build, stem, cycle);
    }
    ctx.checks.expect(replayed.closes && replayed.kind == v.kind,
                      name + ": shrunk lasso does not close as starvation");
    ctx.totals.lasso_len += shrunk.witness.size();
    ctx.totals.lasso_replays += shrunk.replays;
  };
  return {name, std::move(run)};
}

Job parallel_job(bool dedup) {
  const Scope scope{"bakery-tso-3p", 2, 0, 100};
  const runtime::Scenario* s = &scenario(scope.scenario);
  tso::ExplorerConfig cfg = scope_config(scope);
  cfg.dedup = dedup ? tso::DedupMode::kState : tso::DedupMode::kOff;
  cfg.threads = 2;
  const std::string name =
      scope_name(scope) + (dedup ? " dedup" : " raw") + " t2";
  // The raw tree is partitioned exactly, so its counts are the sequential
  // ones at any thread count; with dedup, which worker prunes first varies.
  CleanExpect expect;
  expect.repeatable = !dedup;
  if (!dedup) expect.exact = {{7802, 26851}};
  tso::ExplorerConfig single = cfg;
  single.threads = 1;
  return {name,
          clean_explore(s, name, cfg, expect),
          {{"threads_1",
            clean_explore(s, name + " (1 thread)", single, expect)}}};
}

// ---- fuzzer jobs -----------------------------------------------------------

constexpr std::uint64_t kHuntSeeds = 0x68756e74;
/// Hunts per job: a batch of seeds is less of a lottery than one.
constexpr std::uint64_t kHuntsPerJob = 8;

struct HuntTarget {
  const char* scenario;
  double crash_prob;
};

/// kHuntsPerJob bug hunts. Each fuzzes until the first violation (shrinking
/// off), shrinks the witness with ddmin, round-trips it through the witness
/// text format, and replays it strictly: the replay must raise the same
/// violation.
Job hunt_job(const HuntTarget& target, std::uint64_t index) {
  const runtime::Scenario* s = &scenario(target.scenario);
  const std::string name = std::string("hunt ") + target.scenario;
  auto hunt = [s, target, index, name](Ctx& ctx, std::uint64_t k) {
    // Time-to-find is roughly exponential in the fuzz seed: the few hundred
    // hunts a run fits would vary by 10% or more from one seed draw to the
    // next. So every repetition hunts the same kHuntsPerJob seeds, and
    // --seed has no effect here: the workload measures the code, not the
    // draw.
    tso::FuzzConfig cfg;
    cfg.seed = mix_seed(kHuntSeeds, index, k);
    cfg.runs = 200'000;
    cfg.shrink = false;
    cfg.crash_prob = target.crash_prob;
    cfg.time_budget_ms = kWatchdogMs;
    const auto t0 = Clock::now();
    tso::FuzzResult r;
    {
      Span span("fuzz");
      r = s->fuzz(cfg);
    }
    ctx.totals.add(r, seconds_since(t0));
    ctx.checks.expect(r.verdict.kind == tso::VerdictKind::kSafety,
                      name + ": no violation found");
    if (!r.verdict.found()) return;

    tso::ShrinkOutcome shrunk;
    {
      Span span("shrink_witness");
      shrunk = tso::shrink_witness(s->n_procs, s->sim, s->build,
                                   r.verdict.witness);
    }
    ctx.checks.expect(!shrunk.violation.empty() &&
                          shrunk.witness.size() <= r.verdict.witness.size(),
                      name + ": shrinking lost the violation");

    trace::Witness w;
    w.scenario = s->name;
    w.n_procs = s->n_procs;
    w.pso = s->sim.pso;
    w.crash_model = s->sim.crash_model;
    w.violation = runtime::violation_detail(shrunk.violation);
    w.directives = shrunk.witness;
    trace::Witness back;
    {
      Span span("witness_io");
      std::stringstream text;
      trace::write_witness(text, w);
      back = trace::read_witness(text);
    }
    ctx.checks.expect(back.scenario == w.scenario &&
                          back.violation == w.violation &&
                          same_directives(back.directives, w.directives),
                      name + ": witness did not round-trip");

    std::string replayed;
    {
      Span span("replay");
      try {
        s->replay(back.directives);
      } catch (const CheckFailure& e) {
        replayed = runtime::violation_detail(e.what());
      }
    }
    ctx.checks.expect(replayed == w.violation,
                      name + ": strict replay gave '" + replayed +
                          "', expected '" + w.violation + "'");

    ctx.totals.runs_to_hit.push_back(static_cast<double>(r.violating_run + 1));
    ctx.totals.shrink_replays.push_back(static_cast<double>(shrunk.replays));
    ctx.totals.witness_len.push_back(
        static_cast<double>(shrunk.witness.size()));
    ctx.totals.raw_len += static_cast<double>(r.verdict.witness.size());
    ctx.totals.shrunk_len += static_cast<double>(shrunk.witness.size());
  };
  RunFn run = [hunt](Ctx& ctx) {
    for (std::uint64_t k = 0; k < kHuntsPerJob; ++k) hunt(ctx, k);
  };
  return {name, std::move(run)};
}

/// A clean fuzz pass of `runs` runs. Repetitions 2k and 2k+1 share a seed,
/// and the second must reproduce the first's schedule digest.
Job fuzz_job(const HuntTarget& target, std::uint64_t index,
             std::uint64_t runs) {
  const runtime::Scenario* s = &scenario(target.scenario);
  const std::string name = std::string("fuzz ") + target.scenario;
  auto digests = std::make_shared<std::map<std::uint64_t, std::uint64_t>>();
  RunFn run = [=](Ctx& ctx) {
    tso::FuzzConfig cfg;
    cfg.seed = mix_seed(ctx.seed, index, ctx.rep / 2);
    cfg.runs = runs;
    cfg.crash_prob = target.crash_prob;
    cfg.time_budget_ms = kWatchdogMs;
    const auto t0 = Clock::now();
    tso::FuzzResult r;
    {
      Span span("fuzz");
      r = s->fuzz(cfg);
    }
    ctx.totals.add(r, seconds_since(t0));
    ctx.checks.expect(!r.verdict.found() && !r.deadline_hit &&
                          r.schedules == runs,
                      name + ": not a clean complete pass: " +
                          r.verdict.message);
    const auto [it, fresh] = digests->emplace(cfg.seed, r.schedule_digest);
    if (!fresh)
      ctx.checks.expect(it->second == r.schedule_digest,
                        name + ": schedule digest changed for the same seed");
  };
  return {name, std::move(run)};
}

// ---- native jobs -----------------------------------------------------------

Job native_job(const runtime::RtLockFactory& f, int threads,
               std::uint64_t passages) {
  const std::string name =
      "native " + f.name + " t" + std::to_string(threads);
  RunFn run = [&f, threads, passages, name](Ctx& ctx) {
    auto lock = f.make(threads);
    runtime::StressResult r;
    {
      Span span("run_stress");
      r = runtime::run_stress(*lock, threads, passages, kWatchdogMs);
    }
    ctx.checks.expect(r.exclusion_ok && !r.deadline_hit &&
                          r.total_ops == passages * static_cast<std::uint64_t>(
                                                        threads),
                      name + ": exclusion violated or run cut short");
    NativeStats& n = ctx.totals.native[f.name];
    if (threads == 1) {
      n.rate_1t = r.ops_per_sec;
      n.fences_1t = r.fences_per_op;
      n.rmws_1t = r.rmws_per_op;
    } else {
      n.rate_2t = r.ops_per_sec;
    }
  };
  return {name, std::move(run)};
}

// ---- the workloads ---------------------------------------------------------

const char* const kWorkloads[] = {"prove", "certify", "hunt",
                                  "fuzz",  "parallel", "native"};

void add_scenarios(Workload& w, std::initializer_list<const char*> names) {
  for (const char* n : names) w.scenarios.push_back(&scenario(n));
}

Workload make_workload(const std::string& name) {
  // Scopes are sized so one job takes 0.05-0.3 s on a 4-core x86 VM: a run
  // then holds 20 or more samples of every job, enough for a fast decile.
  Workload w;
  if (name == "prove") {
    // The 1 MiB copy of the bakery scope evicts most of what it inserts,
    // where the others only insert.
    for (const Scope& s : {Scope{"bakery-tso-3p", 2, 0, 80},
                           Scope{"bakery-tso-3p", 2, 0, 80, false, 1u << 20},
                           Scope{"tournament-3p", 2, 0, 100},
                           Scope{"recoverable-2p", 1, 1, 150},
                           Scope{"ticket-3p", 2, 0, 300, true}})
      w.jobs.push_back(prove_job(s));
    w.warmup = 3;
    add_scenarios(w, {"bakery-tso-3p", "tournament-3p", "recoverable-2p",
                      "ticket-3p"});
  } else if (name == "certify") {
    for (const Scope& s : {Scope{"bakery-tso-3p", 2, 0, 80},
                           Scope{"tournament-3p", 2, 0, 100},
                           Scope{"ticket-3p", 2, 0, 300, true}})
      w.jobs.push_back(certify_job(s));
    w.jobs.push_back(starvation_job());
    w.warmup = 3;
    add_scenarios(w, {"bakery-tso-3p", "tournament-3p", "ticket-3p",
                      "tas-loop-2p"});
  } else if (name == "hunt") {
    const HuntTarget targets[] = {{"bakery-none-2p", 0},
                                  {"bakery-none-3p", 0},
                                  {"bakery-tso-pso-2p", 0},
                                  {"recoverable-nofence-2p", 0.02}};
    for (std::uint64_t i = 0; i < std::size(targets); ++i)
      w.jobs.push_back(hunt_job(targets[i], i));
    w.warmup = 0;
    for (const HuntTarget& t : targets) add_scenarios(w, {t.scenario});
  } else if (name == "fuzz") {
    const HuntTarget targets[] = {{"bakery-tso-3p", 0},
                                  {"ticket-3p", 0},
                                  {"mcs-2p", 0},
                                  {"recoverable-2p", 0.01}};
    for (std::uint64_t i = 0; i < std::size(targets); ++i)
      w.jobs.push_back(fuzz_job(targets[i], i, 20'000));
    w.warmup = 2;
    for (const HuntTarget& t : targets) add_scenarios(w, {t.scenario});
  } else if (name == "parallel") {
    w.jobs.push_back(parallel_job(false));
    w.jobs.push_back(parallel_job(true));
    w.warmup = 1;
    w.threads = 2;
    add_scenarios(w, {"bakery-tso-3p"});
  } else if (name == "native") {
    for (const auto& f : runtime::rt_lock_zoo()) {
      w.jobs.push_back(native_job(f, 1, 250'000));
      w.jobs.push_back(native_job(f, 2, 50'000));
    }
    w.warmup = 0;
    // No simulator code runs here; the microdriver measures the simulated
    // counterparts of the native locks.
    add_scenarios(w, {"bakery-tso-2p", "mcs-2p", "tas-2p", "ticket-3p",
                      "tournament-3p"});
  } else {
    TPA_FAIL("unknown workload '" << name << "'");
  }
  return w;
}

// ---- measurement loops -----------------------------------------------------

/// The 10th-percentile sample (the smallest of fewer than ten).
double fast_decile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 10];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// High-water resident set of this process image, from /proc. (getrusage's
/// ru_maxrss also counts the parent's footprint from before exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  TPA_FAIL("no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  fs::path scratch = ".";
  std::string trace_path;  ///< empty: untraced
  bool setup_only = false;
};

constexpr int kMinRounds = 3;

double timed(const RunFn& run, Ctx& ctx) {
  const auto t0 = Clock::now();
  run(ctx);
  return seconds_since(t0);
}

/// Untraced closed loop: whole rounds over the job list until --seconds
/// have passed and every job has kMinRounds samples. A host-speed probe runs
/// after every job, and each job's wall time is normalized by the mean of
/// the probes on either side of it. `verdict_norm_s` is the sum over jobs of
/// each job's fast-decile normalized time: one pass over the workload.
///
/// Why the fast decile: the probe tracks the host's speed only while the
/// slowdown is in the core; stretches where other tenants contend for memory
/// or I/O slow the jobs but not the probe. Those stretches only ever add
/// time, so the 10th percentile of 20 or more samples leaves them out. Over
/// ten 15-second runs per workload, the quartile spread of `verdict_norm_s`
/// was 0.5-6%; with medians instead of fast deciles it was 20-30%.
std::vector<Metric> run_untraced(const Workload& w, const Options& opt,
                                 Checks& checks, std::size_t* samples) {
  std::vector<std::vector<double>> wall(w.jobs.size()), norm(w.jobs.size());
  std::vector<double> probes{probe_us()};
  const auto start = Clock::now();
  for (std::uint64_t round = 0;
       round < kMinRounds || seconds_since(start) < opt.seconds; ++round) {
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      Totals unused;
      Ctx ctx{checks, unused, opt.seed, round, opt.scratch};
      const double t = timed(w.jobs[j].run, ctx);
      probes.push_back(probe_us());
      const double speed = (probes[probes.size() - 2] + probes.back()) / 2;
      wall[j].push_back(t);
      norm[j].push_back(t * kNominalProbeUs / speed);
    }
  }
  double verdict_s = 0;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    verdict_s += fast_decile(norm[j]);
    std::printf("  job %-32s wall median %.5f s, normalized p10 %.5f s, "
                "of %zu\n",
                w.jobs[j].name.c_str(), median(wall[j]), fast_decile(norm[j]),
                wall[j].size());
  }
  std::printf("  host probe: median %.1f us (nominal %.0f)\n",
              median(probes), kNominalProbeUs);
  *samples = wall.size() * wall.front().size();
  return {{"verdict_norm_s", verdict_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// Self time per layer: each span's duration minus its children's.
std::map<std::string, double> self_seconds(const std::vector<SpanRecord>& spans,
                                           double* root_s) {
  std::vector<double> child(spans.size(), 0);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> self;
  *root_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self[spans[i].name] += (dur - child[i]) / 1e9;
    if (spans[i].parent < 0) *root_s += dur / 1e9;
  }
  return self;
}

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ostringstream out;
  for (const SpanRecord& s : spans)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}\n";
  trace::atomic_write_file(path, out.str());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Traced run: every round runs each job untraced, traced, and under each of
/// its ablations, rotating the order so drift does not favour one side.
std::vector<Metric> run_traced(const Workload& w, const Options& opt,
                               Checks& checks, std::size_t* samples) {
  Tracer tracer;
  Totals traced;
  double untraced_s = 0, traced_s = 0;
  std::map<std::string, double> base_s, ablated_s;  // per ablation tag
  std::vector<double> probes;
  std::uint64_t job_id = 0, rounds = 0;
  const auto start = Clock::now();
  for (; rounds < 1 || seconds_since(start) < opt.seconds; ++rounds) {
    for (const Job& job : w.jobs) {
      // Step 0 is the untraced base run, step 1 the traced one, then one
      // step per ablation.
      const std::size_t steps = 2 + job.ablations.size();
      double base = 0;
      std::vector<double> ablated(job.ablations.size(), 0);
      for (std::size_t k = 0; k < steps; ++k) {
        probes.push_back(probe_us());
        const std::size_t step = (k + rounds) % steps;
        if (step == 1) {
          Ctx ctx{checks, traced, opt.seed, rounds, opt.scratch};
          tracer.begin_job(job_id++);
          g_tracer = &tracer;
          const auto t0 = Clock::now();
          {
            Span root("job");
            job.run(ctx);
          }
          traced_s += seconds_since(t0);
          g_tracer = nullptr;
          continue;
        }
        Totals unused;
        Ctx ctx{checks, unused, opt.seed, rounds, opt.scratch};
        if (step == 0) {
          base = timed(job.run, ctx);
          untraced_s += base;
        } else {
          ablated[step - 2] = timed(job.ablations[step - 2].second, ctx);
        }
      }
      for (std::size_t a = 0; a < job.ablations.size(); ++a) {
        base_s[job.ablations[a].first] += base;
        ablated_s[job.ablations[a].first] += ablated[a];
      }
    }
  }
  *samples = rounds * w.jobs.size();
  write_spans(opt.trace_path, tracer.spans());

  probes.push_back(probe_us());
  const LayerCosts lc = measure_layers(
      w.scenarios, opt.seed, static_cast<std::size_t>(traced.dedup_entries),
      opt.scratch.string());
  probes.push_back(probe_us());
  checks.attempted += lc.checks;
  checks.failed += lc.failed;
  // Times and rates are normalized to the nominal host like the end-to-end
  // metrics, with the run's median probe.
  const double host_us = median(probes);
  const double scale = kNominalProbeUs / host_us;
  auto time = [&](double v) { return v * scale; };
  auto rate = [&](double v) { return v / scale; };

  double root_s = 0;
  const auto self = self_seconds(tracer.spans(), &root_s);
  auto share = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names)
      if (auto it = self.find(n); it != self.end()) s += it->second;
    return ratio(s, root_s);
  };
  // Wall time a mechanism adds, as a share of the run without it.
  auto overhead = [&](const char* tag) {
    return ablated_s[tag] > 0 ? base_s[tag] / ablated_s[tag] - 1 : 0.0;
  };
  const double per_pass = 1.0 / static_cast<double>(rounds);
  auto count = [&](std::uint64_t v) {
    return static_cast<double>(v) * per_pass;
  };
  const Totals& t = traced;

  std::vector<Metric> m = {
      {"self.explore", share({"explore"}), "ratio"},
      {"self.fuzz", share({"fuzz"}), "ratio"},
      {"self.shrink", share({"shrink_witness", "shrink_lasso"}), "ratio"},
      {"self.replay", share({"replay"}), "ratio"},
      {"self.witness_io", share({"witness_io"}), "ratio"},
      {"self.campaign_io", share({"campaign_io"}), "ratio"},
      {"self.run_stress", share({"run_stress"}), "ratio"},
      {"self.driver", share({"job"}), "ratio"},
      {"explore.events", count(t.events), "count"},
      {"explore.schedules", count(t.schedules), "count"},
      {"explore.truncated", count(t.truncated), "count"},
      {"explore.snapshots", count(t.snapshots), "count"},
      {"explore.restores", count(t.restores), "count"},
      {"explore.events_per_s", rate(ratio(t.events, t.explore_s)), "1/s"},
      {"explore.states_per_s", rate(ratio(t.dedup_states, t.explore_s)),
       "1/s"},
      {"explore.parallel_speedup",
       ratio(ablated_s["threads_1"], base_s["threads_1"]), "ratio"},
      {"sim.apply_ns", time(lc.apply_ns), "ns"},
      {"sim.events_per_run", lc.events_per_run, "count"},
      {"fingerprint.full_ns", time(lc.fp_full_ns), "ns"},
      {"fingerprint.symmetric_ns", time(lc.fp_symmetric_ns), "ns"},
      {"fingerprint.progress_ns", time(lc.fp_progress_ns), "ns"},
      {"snapshot.take_ns", time(lc.snapshot_take_ns), "ns"},
      {"snapshot.restore_ns", time(lc.snapshot_restore_ns), "ns"},
      // An estimate: microdriver per-call costs times the explorer's counts.
      {"snapshot.share",
       ratio((static_cast<double>(t.snapshots) * lc.snapshot_take_ns +
              static_cast<double>(t.restores) * lc.snapshot_restore_ns) /
                 1e9,
             t.explore_s),
       "ratio"},
      {"visited.probe_ns", time(lc.visited_probe_ns), "ns"},
      {"visited.insert_ns", time(lc.visited_insert_ns), "ns"},
      {"visited.hit_ratio",
       ratio(t.dedup_hits, t.dedup_hits + t.dedup_states), "ratio"},
      {"visited.entries", static_cast<double>(t.dedup_entries), "count"},
      {"visited.bytes", static_cast<double>(t.dedup_bytes), "bytes"},
      {"visited.evictions", count(t.evictions), "count"},
      {"liveness.overhead", overhead("liveness_off"), "ratio"},
      {"liveness.lasso_len", count(t.lasso_len), "count"},
      {"liveness.lasso_shrink_replays", count(t.lasso_replays), "count"},
      {"campaign.overhead", overhead("campaign_off"), "ratio"},
      {"campaign.bytes", count(t.campaign_bytes), "bytes"},
      {"campaign.roundtrip_us", time(lc.campaign_roundtrip_us), "us"},
      {"fuzz.runs_per_s", rate(ratio(t.fuzz_runs, t.fuzz_s)), "1/s"},
      {"fuzz.events_per_s", rate(ratio(t.fuzz_events, t.fuzz_s)), "1/s"},
      {"fuzz.runs_to_hit_p50", median(t.runs_to_hit), "count"},
      {"shrink.replays_p50", median(t.shrink_replays), "count"},
      {"shrink.ratio", ratio(t.raw_len, t.shrunk_len), "ratio"},
      {"witness.len_p50", median(t.witness_len), "count"},
      {"witness.roundtrip_us", time(lc.witness_roundtrip_us), "us"},
      {"replay.strict_us", time(lc.replay_strict_us), "us"},
      {"trace.overhead", ratio(traced_s, untraced_s), "ratio"},
      {"host.probe_us", host_us, "us"},
  };
  for (const auto& f : runtime::rt_lock_zoo()) {
    NativeStats n;
    if (auto it = t.native.find(f.name); it != t.native.end()) n = it->second;
    const std::string p = "native." + f.name;
    m.push_back({p + ".rate_1t", rate(n.rate_1t), "1/s"});
    m.push_back({p + ".rate_2t", rate(n.rate_2t), "1/s"});
    m.push_back({p + ".fences_1t", n.fences_1t, "count"});
    m.push_back({p + ".rmws_1t", n.rmws_1t, "count"});
  }
  return m;
}

// ---- entry point -----------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") opt->workload = val;
    else if (key == "--seed") opt->seed = std::stoull(val);
    else if (key == "--seconds") opt->seconds = std::stod(val);
    else if (key == "--scratch") opt->scratch = val;
    else if (key == "--trace") opt->trace_path = val;
    else if (key == "--setup") opt->setup_only = true;
    else return false;
  }
  return std::find(std::begin(kWorkloads), std::end(kWorkloads),
                   opt->workload) != std::end(kWorkloads);
}

int run(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: tpa_bench --workload=<prove|certify|hunt|fuzz|"
                 "parallel|native> --seed=<n> [--seconds=<s>] "
                 "[--scratch=<dir>] [--trace=<spans.jsonl>] [--setup]\n");
    return 2;
  }
  fs::create_directories(opt.scratch);
  const Workload w = make_workload(opt.workload);
  Checks checks;
  // Set-up ends with the workload's smallest job, checked but untimed. The
  // probes around it let run.py normalize the cold start's wall time.
  double setup_probe_us = probe_us();
  {
    Totals unused;
    Ctx ctx{checks, unused, opt.seed, ~0ull, opt.scratch};
    w.jobs[w.warmup].run(ctx);
  }
  setup_probe_us = (setup_probe_us + probe_us()) / 2;
  std::vector<Metric> metrics;
  std::size_t samples = 0;
  if (!opt.setup_only) {
    metrics = opt.trace_path.empty()
                  ? run_untraced(w, opt, checks, &samples)
                  : run_traced(w, opt, checks, &samples);
  }

  for (const Metric& m : metrics)
    std::printf("  %-34s %s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit);
  std::ostringstream json;
  json << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"attempted\":" << checks.attempted
       << ",\"failed\":" << checks.failed << ",\"samples\":" << samples
       << ",\"jobs\":" << w.jobs.size() << ",\"threads\":" << w.threads
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"setup_probe_us\":" << fmt(setup_probe_us)
       << ",\"nominal_probe_us\":" << fmt(kNominalProbeUs) << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
         << fmt(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit
         << "\"}";
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tpa::bench

int main(int argc, char** argv) {
  try {
    return tpa::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tpa_bench: %s\n", e.what());
    return 1;
  }
}

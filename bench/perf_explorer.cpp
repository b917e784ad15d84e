// PERF2 — parallel schedule exploration (google-benchmark): wall-clock
// scaling of the work-queue explorer on the paper's bakery lock, TSO
// fencing, 3 processes, preemption bound 3 (the smallest bound where the
// schedule tree is deep enough for frontier partitioning to pay off). All
// scenarios come from the public registry (runtime/scenario.h), so the
// benchmarks measure exactly the configurations the tests pin.
//
// BM_ParallelExplore/threads:N reports real time (UseRealTime) for the same
// bounded workload at 1/2/4 worker threads; the `schedules/s` counter is the
// comparable throughput figure. The frontier partition is exact, so the
// workers never duplicate or skip subtrees; the measured 2-thread speedup is
// recorded as `explore.parallel_speedup` by tpa_bench (`--workload
// parallel --trace 1`, see tpa_bench/README.md). The explored-schedule count
// is identical across thread counts whenever the run is exhausted rather
// than budget-capped.
//
// BM_StateDedup measures what visited-set pruning (DedupMode::kState) and
// its symmetry-canonicalized variant buy on the interchangeable-process
// ticket lock: fewer schedules per exhausted bound, at the price of
// fingerprint upkeep and visited-set probes. BM_FuzzThroughput tracks the
// randomized pipeline (runs/s on a safe lock, i.e. no early exit).
//
// Before the google-benchmark suite runs, main() measures two head-to-head
// comparisons on exhausted bounds and writes them for machine consumption by
// CI trend tracking:
//   BENCH_explorer_dedup.json     dedup off vs on across bakery /
//                                 tournament / recoverable / ticket+symmetry
//                                 scopes, each recording events_reduction
//                                 and verdicts_match
//   BENCH_explorer_liveness.json  liveness off vs on on clean scopes, plus
//                                 the tas-loop-2p starvation lasso
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scenario.h"
#include "trace/atomic_io.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "tso/sim.h"
#include "util/check.h"

using namespace tpa;

namespace {

const runtime::Scenario& scenario(const char* name) {
  const runtime::Scenario* s = runtime::find_scenario(name);
  if (s == nullptr) {
    std::fprintf(stderr, "scenario %s missing from the registry\n", name);
    std::abort();
  }
  return *s;
}

void BM_ParallelExplore(benchmark::State& state) {
  const auto& s = scenario("bakery-tso-3p");
  tso::ExplorerConfig cfg;
  cfg.preemptions = 3;
  // The full bound has ~2M schedules (about a minute sequentially); a fixed
  // budget keeps one iteration at a few seconds while giving every thread
  // count the same amount of work to chew through.
  cfg.max_schedules = 100'000;
  cfg.threads = static_cast<int>(state.range(0));
  std::uint64_t schedules = 0;
  for (auto _ : state) {
    const auto r = s.explore(cfg);
    benchmark::DoNotOptimize(r.verdict.found());
    schedules += r.schedules + r.truncated;
  }
  state.counters["schedules/s"] = benchmark::Counter(
      static_cast<double>(schedules), benchmark::Counter::kIsRate);
}

void BM_StateDedup(benchmark::State& state) {
  const auto& s = scenario("ticket-3p");
  tso::ExplorerConfig cfg;
  cfg.preemptions = 1;
  switch (state.range(0)) {
    case 0: state.SetLabel("off"); break;
    case 1:
      cfg.dedup = tso::DedupMode::kState;
      state.SetLabel("state");
      break;
    default:
      cfg.dedup = tso::DedupMode::kState;
      cfg.symmetric_processes = tso::SymmetryMode::kCanonical;
      state.SetLabel("state+symmetry");
      break;
  }
  std::uint64_t steps = 0, schedules = 0;
  for (auto _ : state) {
    const auto r = s.explore(cfg);
    benchmark::DoNotOptimize(r.verdict.found());
    steps += r.steps;
    schedules += r.schedules + r.truncated;
  }
  state.counters["events/schedule"] =
      static_cast<double>(steps) / static_cast<double>(schedules);
}

void BM_FuzzThroughput(benchmark::State& state) {
  const auto& s = scenario("bakery-tso-2p");
  tso::FuzzConfig cfg;
  cfg.seed = 0x5eed;
  cfg.runs = 2'000;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const auto r = s.fuzz(cfg);
    benchmark::DoNotOptimize(r.schedule_digest);
    runs += r.schedules;
  }
  state.counters["runs/s"] = benchmark::Counter(static_cast<double>(runs),
                                                benchmark::Counter::kIsRate);
}

/// CPU time consumed so far by the calling thread, in milliseconds.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// One exhausted explore() in the given mode, timed. `cpu_ms` is the
/// calling thread's CPU time, which covers the whole run only when the
/// exploration is sequential (threads == 1 explores on the caller).
struct ModeResult {
  tso::ExplorerResult result;
  double wall_ms = 0;
  double cpu_ms = 0;
};

ModeResult run_mode(const runtime::Scenario& s,
                    const tso::ExplorerConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = thread_cpu_ms();
  ModeResult m;
  m.result = s.explore(cfg);
  m.cpu_ms = thread_cpu_ms() - c0;
  m.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return m;
}

/// Best-of-`reps` wall time (the min filters scheduler noise; the counters
/// are deterministic, so any rep's result serves as the representative).
ModeResult run_mode_best_of(const runtime::Scenario& s,
                            const tso::ExplorerConfig& cfg, int reps) {
  ModeResult best = run_mode(s, cfg);
  for (int r = 1; r < reps; ++r) {
    ModeResult m = run_mode(s, cfg);
    if (m.wall_ms < best.wall_ms) best = std::move(m);
  }
  return best;
}

void emit_json(std::ostream& out, const char* mode, const ModeResult& m) {
  out << "    {\"mode\":\"" << mode << "\""
      << ",\"schedules\":" << m.result.schedules
      << ",\"truncated\":" << m.result.truncated
      << ",\"events_executed\":" << m.result.steps
      << ",\"snapshots\":" << m.result.snapshots
      << ",\"restores\":" << m.result.restores
      << ",\"dedup_hits\":" << m.result.dedup_hits
      << ",\"dedup_states\":" << m.result.dedup_states
      << ",\"dedup_entries\":" << m.result.dedup_entries
      << ",\"dedup_bytes\":" << m.result.dedup_bytes
      << ",\"dedup_evictions\":" << m.result.dedup_evictions
      << ",\"wall_ms\":" << m.wall_ms << ",\"cpu_ms\":" << m.cpu_ms << "}";
}

/// Publishes bench JSON via tmp+fsync+rename (trace/atomic_io.h): an
/// interrupted bench run leaves the previous trend file intact, never a
/// truncated one.
int publish_json(const char* path, const std::string& content) {
  try {
    trace::atomic_write_file(path, content);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "cannot write %s: %s\n", path, e.what());
    return 1;
  }
  return 0;
}

/// One dedup ablation scope: the scenario plus the bound it runs under.
struct DedupScope {
  const char* scenario;
  int preemptions;
  int max_crashes;
  std::uint64_t max_steps;
  bool symmetry;  ///< canonicalize fingerprints (scenario must declare it)
};

bool same_witness(const std::vector<tso::Directive>& a,
                  const std::vector<tso::Directive>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].kind != b[i].kind || a[i].proc != b[i].proc ||
        a[i].var != b[i].var)
      return false;
  return true;
}

/// Dedup-off vs dedup-on across the scope list, written to
/// BENCH_explorer_dedup.json. `events_reduction` is the executed-machine-
/// event ratio and `wall_ratio` the on/off wall-clock ratio (< 1 means
/// dedup is faster); `verdicts_match` asserts the soundness contract
/// (identical verdict, violation message, witness, and exhaustion) scope by
/// scope. With `max_wall_ratio` >= 0 the run doubles as a regression gate:
/// nonzero exit when any scope's wall_ratio exceeds it.
int write_dedup_comparison(const char* path, int reps,
                           double max_wall_ratio) {
  // Spin-heavy truncated schedules dominate the 3p bakery/tournament trees
  // at the default step cap; capping at 200 keeps both modes exhausted in
  // seconds while preserving the comparison (both modes share the cap).
  const DedupScope scopes[] = {
      {"bakery-tso-3p", 2, 0, 200, false},
      {"tournament-3p", 2, 0, 200, false},
      {"recoverable-2p", 1, 1, 600, false},
      {"ticket-3p", 2, 0, 600, true},
  };

  std::ostringstream out;
  out << "{\n  \"bench\": \"explorer-dedup\",\n  \"scopes\": [\n";
  bool all_match = true;
  bool all_fast = true;
  double best_3p_reduction = 0;
  for (std::size_t i = 0; i < std::size(scopes); ++i) {
    const DedupScope& scope = scopes[i];
    const auto& s = scenario(scope.scenario);
    tso::ExplorerConfig cfg;
    cfg.preemptions = scope.preemptions;
    cfg.max_crashes = scope.max_crashes;
    cfg.max_steps = scope.max_steps;
    const ModeResult off = run_mode_best_of(s, cfg, reps);
    cfg.dedup = tso::DedupMode::kState;
    if (scope.symmetry)
      cfg.symmetric_processes = tso::SymmetryMode::kCanonical;
    const ModeResult on = run_mode_best_of(s, cfg, reps);

    const double ratio =
        static_cast<double>(off.result.steps) /
        static_cast<double>(on.result.steps ? on.result.steps : 1);
    const double wall_ratio =
        on.wall_ms / (off.wall_ms > 0 ? off.wall_ms : 1e-9);
    const bool match =
        off.result.verdict.found() == on.result.verdict.found() &&
        off.result.verdict.message == on.result.verdict.message &&
        same_witness(off.result.verdict.witness, on.result.verdict.witness) &&
        off.result.exhausted == on.result.exhausted;
    all_match = all_match && match;
    const bool fast = max_wall_ratio < 0 || wall_ratio <= max_wall_ratio;
    all_fast = all_fast && fast;
    if (s.n_procs >= 3 && ratio > best_3p_reduction)
      best_3p_reduction = ratio;

    out << "  {\"scenario\":\"" << scope.scenario << "\""
        << ",\"preemptions\":" << scope.preemptions
        << ",\"max_crashes\":" << scope.max_crashes
        << ",\"max_steps\":" << scope.max_steps << ",\"symmetry\":"
        << (scope.symmetry ? "true" : "false") << ",\n   \"modes\": [\n";
    emit_json(out, "off", off);
    out << ",\n";
    emit_json(out, scope.symmetry ? "state+symmetry" : "state", on);
    out << "\n   ],\n   \"events_reduction\": " << ratio
        << ",\n   \"wall_ratio\": " << wall_ratio
        << ",\n   \"verdicts_match\": " << (match ? "true" : "false")
        << "\n  }" << (i + 1 < std::size(scopes) ? "," : "") << "\n";

    std::printf(
        "dedup %-16s pre=%d: %llu events vs %llu (%.2fx reduction), "
        "wall %.0fms vs %.0fms (ratio %.2f%s), verdicts %s\n",
        scope.scenario, scope.preemptions,
        static_cast<unsigned long long>(on.result.steps),
        static_cast<unsigned long long>(off.result.steps), ratio, on.wall_ms,
        off.wall_ms, wall_ratio, fast ? "" : " — TOO SLOW",
        match ? "match" : "DIVERGED");
  }
  out << "  ],\n  \"best_3p_events_reduction\": " << best_3p_reduction
      << ",\n  \"verdicts_match\": " << (all_match ? "true" : "false")
      << ",\n  \"dedup_faster_everywhere\": " << (all_fast ? "true" : "false")
      << "\n}\n";
  if (const int rc = publish_json(path, out.str()); rc != 0) return rc;
  std::printf("dedup ablation -> %s (best 3p reduction %.2fx)\n", path,
              best_3p_reduction);
  return all_match && all_fast ? 0 : 1;
}

/// Liveness-off vs liveness-on (LivenessMode::kCheck) across clean scopes,
/// written to BENCH_explorer_liveness.json. On a clean scope the checker
/// must be a bystander: schedule/truncated counts stay identical (its
/// verifications never fire thanks to the weak-fairness pre-filter) and the
/// per-node progress-key + on-stack-index bookkeeping is the entire cost —
/// `cpu_ratio` (on/off thread CPU time) pins it. With `max_cpu_ratio` >= 0
/// the run doubles as a regression gate: nonzero exit when any scope exceeds
/// it (the perf-smoke budget is 1.10, i.e. <= 10% overhead). A final
/// detection scope records the tas-loop-2p starvation lasso end-to-end
/// (found + shrunk), ungated on time.
int write_liveness_comparison(const char* path, int reps,
                              double max_cpu_ratio) {
  const DedupScope scopes[] = {
      {"bakery-tso-3p", 2, 0, 200, false},
      {"tournament-3p", 2, 0, 200, false},
      {"ticket-3p", 2, 0, 600, false},
  };

  std::ostringstream out;
  out << "{\n  \"bench\": \"explorer-liveness\",\n  \"scopes\": [\n";
  bool all_clean = true;
  bool all_fast = true;
  for (std::size_t i = 0; i < std::size(scopes); ++i) {
    const DedupScope& scope = scopes[i];
    const auto& s = scenario(scope.scenario);
    tso::ExplorerConfig cfg;
    cfg.preemptions = scope.preemptions;
    cfg.max_steps = scope.max_steps;
    cfg.dedup = tso::DedupMode::kState;
    tso::ExplorerConfig cfg_on = cfg;
    cfg_on.liveness = tso::LivenessMode::kCheck;
    // The gated statistic is the *median of per-pair ratios*: each rep runs
    // both modes back to back and contributes one on/off ratio, so slow
    // load drift cancels inside the pair, and a load spike that lands on a
    // couple of pairs is discarded by the median — where a ratio of
    // best-of-N minima lets one spiked side bias the whole scope. Both
    // sides are timed in thread CPU time (the scopes are sequential): on a
    // shared host, wall time also counts the slices other tenants steal.
    // Pairs alternate which mode runs first, so whatever the earlier run
    // of a pair leaves behind (warm caches, a grown heap) favours neither.
    ModeResult off, on;
    std::vector<double> ratios;
    for (int r = 0; r < reps; ++r) {
      ModeResult o, m;
      if (r % 2 == 0) {
        o = run_mode(s, cfg);
        m = run_mode(s, cfg_on);
      } else {
        m = run_mode(s, cfg_on);
        o = run_mode(s, cfg);
      }
      ratios.push_back(m.cpu_ms / (o.cpu_ms > 0 ? o.cpu_ms : 1e-9));
      if (r == 0 || o.cpu_ms < off.cpu_ms) off = std::move(o);
      if (r == 0 || m.cpu_ms < on.cpu_ms) on = std::move(m);
    }
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    const double cpu_ratio = ratios[ratios.size() / 2];
    const bool clean = !off.result.verdict.found() &&
                       !on.result.verdict.found() &&
                       off.result.schedules == on.result.schedules &&
                       off.result.truncated == on.result.truncated;
    all_clean = all_clean && clean;
    const bool fast = max_cpu_ratio < 0 || cpu_ratio <= max_cpu_ratio;
    all_fast = all_fast && fast;

    out << "  {\"scenario\":\"" << scope.scenario << "\""
        << ",\"preemptions\":" << scope.preemptions
        << ",\"max_steps\":" << scope.max_steps << ",\n   \"modes\": [\n";
    emit_json(out, "off", off);
    out << ",\n";
    emit_json(out, "check", on);
    out << "\n   ],\n   \"cpu_ratio\": " << cpu_ratio
        << ",\n   \"counts_match\": " << (clean ? "true" : "false") << "\n  },"
        << "\n";

    std::printf(
        "liveness %-16s pre=%d: cpu %.0fms vs %.0fms (ratio %.2f%s), "
        "counts %s\n",
        scope.scenario, scope.preemptions, on.cpu_ms, off.cpu_ms,
        cpu_ratio, fast ? "" : " — TOO SLOW", clean ? "match" : "DIVERGED");
  }

  // Detection end-to-end: the unfair spin lock's starvation lasso is found,
  // shrunk, and carries a valid cycle marker.
  const auto& tas = scenario("tas-loop-2p");
  tso::ExplorerConfig detect;
  detect.preemptions = 4;
  detect.dedup = tso::DedupMode::kState;
  detect.liveness = tso::LivenessMode::kCheck;
  const ModeResult found = run_mode_best_of(tas, detect, reps);
  const bool starved =
      found.result.verdict.kind == tso::VerdictKind::kStarvation &&
      found.result.verdict.is_lasso() &&
      found.result.verdict.cycle_start < found.result.verdict.witness.size();
  all_clean = all_clean && starved;
  out << "  {\"scenario\":\"tas-loop-2p\",\"preemptions\":4,\"modes\": [\n";
  emit_json(out, "detect", found);
  out << "\n   ],\n   \"verdict\":\""
      << tso::to_string(found.result.verdict.kind)
      << "\",\n   \"witness_directives\":"
      << found.result.verdict.witness.size()
      << ",\n   \"cycle_start\":" << found.result.verdict.cycle_start
      << "\n  }\n";
  out << "  ],\n  \"starvation_found\": " << (starved ? "true" : "false")
      << ",\n  \"clean_counts_match\": " << (all_clean ? "true" : "false")
      << ",\n  \"within_budget\": " << (all_fast ? "true" : "false")
      << "\n}\n";
  if (const int rc = publish_json(path, out.str()); rc != 0) return rc;
  std::printf("liveness overhead -> %s (starvation lasso %s, %zu directives)\n",
              path, starved ? "found" : "MISSING",
              found.result.verdict.witness.size());
  return all_clean && all_fast ? 0 : 1;
}

}  // namespace

BENCHMARK(BM_ParallelExplore)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StateDedup)
    ->ArgName("dedup")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FuzzThroughput)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Gate mode (the `perf-smoke` ctest): only the dedup ablation runs, and
  // any scope where dedup is slower wall-clock than raw enumeration fails
  // the run. The generous 1.0x default just pins "dedup must not lose";
  // best-of-3 per mode per scope keeps one noisy scheduler slice from
  // failing the gate.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--dedup-gate";
    if (arg.rfind(prefix, 0) != 0) continue;
    double threshold = 1.0;
    if (arg.size() > prefix.size() && arg[prefix.size()] == '=')
      threshold = std::atof(arg.c_str() + prefix.size() + 1);
    return write_dedup_comparison("BENCH_explorer_dedup.json", /*reps=*/3,
                                  threshold);
  }
  // Same shape for the liveness checker (perf.LivenessWallClockGate): clean
  // scopes must stay within the overhead budget, and the detection scope
  // must produce the starvation lasso.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--liveness-gate";
    if (arg.rfind(prefix, 0) != 0) continue;
    double threshold = 1.10;
    if (arg.size() > prefix.size() && arg[prefix.size()] == '=')
      threshold = std::atof(arg.c_str() + prefix.size() + 1);
    // 15 interleaved pairs per scope: the gate compares ~5-7% real overhead
    // against a 10% budget, so its median needs more pairs than the
    // ungated trend run below.
    return write_liveness_comparison("BENCH_explorer_liveness.json",
                                     /*reps=*/15, threshold);
  }

  if (const int rc = write_dedup_comparison("BENCH_explorer_dedup.json",
                                            /*reps=*/3, /*max_wall_ratio=*/-1);
      rc != 0)
    return rc;
  if (const int rc =
          write_liveness_comparison("BENCH_explorer_liveness.json",
                                    /*reps=*/3, /*max_cpu_ratio=*/-1);
      rc != 0)
    return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

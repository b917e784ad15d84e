// Self-fault-injection harness: kill the tool, then hold it to the
// uninterrupted answer.
//
// For every scenario in the registry this runner first computes the
// uninterrupted reference result in-process, then runs the same exploration
// as a durable campaign in a forked child and SIGKILLs the child at a
// randomized (fixed-seed) point — including, statistically, mid-checkpoint
// write, since the child checkpoints every 10ms and each checkpoint
// serializes and fsyncs the whole frontier. After each kill the
// campaign file must still parse (atomic tmp+fsync+rename publication:
// either the previous checkpoint or the new one, never a torn file). The
// child is restarted with resume() until a final un-killed leg completes,
// and the terminal campaign must carry the reference verdict, witness, and
// — dedup off — the exact schedule/truncated counts. Across all scopes, at
// least one killed leg must have left a mid-run checkpoint behind: parity
// alone would also hold if no periodic checkpoint were ever written.
//
// Plain main() rather than gtest: the fork/exec-free child must _exit()
// without running atexit handlers, which is awkward inside a test fixture.
// Registered with ctest under the `robustness` label (an ASan/UBSan twin
// runs when the toolchain supports it).
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scenario.h"
#include "trace/campaign.h"
#include "tso/explorer.h"
#include "tso/fuzz.h"
#include "util/check.h"

namespace {

using tpa::CheckFailure;
using tpa::runtime::find_scenario;
using tpa::runtime::Scenario;
using tpa::tso::DedupMode;
using tpa::tso::ExplorerConfig;
using tpa::tso::ExplorerResult;
using tpa::tso::ResumeOptions;

struct Scope {
  const char* scenario;
  int preemptions;
  int max_crashes;
  std::uint64_t dedup_max_bytes;  ///< ~0: dedup off; else kState + budget
  int kills;                      ///< SIGKILL rounds before the final leg
  std::uint64_t max_sleep_ms;     ///< cap on the randomized kill delay
  /// Liveness checking (implies state dedup). Parity for these scopes is
  /// verdict *kind* plus lasso validity, not byte equality: the liveness
  /// keying cadence restarts at every resume root, so an interrupted
  /// campaign may close a different — equally real — fair cycle than the
  /// uninterrupted run.
  bool liveness = false;
};

// Every registry scenario appears at a scope sized for a few seconds of
// total harness wall time: 3-process scopes at preemption bound 1, the
// slow 2-process scopes with capped kill delays (a kill early in the run
// still lands among hundreds of 1ms-spaced checkpoint writes). The
// recoverable scopes carry a crash budget — the fault model the paper's
// adversary uses — and the final scope re-runs tas-2p with the memory
// governor capped, where parity is verdict-only (a resumed visited set
// restarts empty, so dedup counts legitimately differ).
constexpr Scope kScopes[] = {
    {"bakery-none-2p", 2, 0, ~0ull, 6, 50},
    {"bakery-none-3p", 1, 0, ~0ull, 4, 50},
    {"bakery-tso-pso-2p", 1, 0, ~0ull, 6, 50},
    {"bakery-tso-2p", 2, 0, ~0ull, 8, 150},
    {"bakery-tso-3p", 1, 0, ~0ull, 6, 100},
    {"mcs-2p", 2, 0, ~0ull, 8, 50},
    {"tournament-3p", 1, 0, ~0ull, 6, 100},
    {"ticket-3p", 1, 0, ~0ull, 6, 50},
    {"tas-2p", 2, 0, ~0ull, 8, 50},
    {"recoverable-nofence-2p", 2, 1, ~0ull, 6, 50},
    {"recoverable-2p", 1, 1, ~0ull, 8, 120},
    {"tas-2p", 2, 0, 64 * 1024, 8, 50},
    {"tas-loop-2p", 4, 0, ~0ull, 6, 50, true},
};

// The checkpoint cadence. Writes serialize the full frontier and fsync, so
// a 1ms cadence turns exploration I/O-bound on the bigger scopes; 10ms
// still yields hundreds of mid-run checkpoints for the kills to land in.
constexpr std::uint64_t kIntervalMs = 10;

int failures = 0;
/// Killed legs that left a mid-run checkpoint behind: an in-flight file
/// whose frontier is more than the lone root node the campaign starts
/// with. With no watchdog configured, only a periodic checkpoint writes
/// one, so a zero count means the cadence never fired — which resume
/// parity alone cannot notice (resuming from the root is the whole run).
int midrun_kills = 0;

void fail(const Scope& scope, const std::string& why) {
  std::fprintf(stderr, "FAIL %s pre=%d cr=%d%s: %s\n", scope.scenario,
               scope.preemptions, scope.max_crashes,
               scope.dedup_max_bytes != ~0ull ? " governed" : "",
               why.c_str());
  ++failures;
}

ExplorerConfig scope_config(const Scope& scope) {
  ExplorerConfig cfg;
  cfg.preemptions = scope.preemptions;
  cfg.max_crashes = scope.max_crashes;
  if (scope.dedup_max_bytes != ~0ull) {
    cfg.dedup = DedupMode::kState;
    cfg.dedup_max_bytes = scope.dedup_max_bytes;
  }
  if (scope.liveness) {
    cfg.dedup = DedupMode::kState;
    cfg.liveness = tpa::tso::LivenessMode::kCheck;
  }
  return cfg;
}

/// The child's whole life: start or resume the campaign, then _exit before
/// any atexit/static-destructor machinery (the parent may have SIGKILLed
/// siblings mid-anything; this child must not depend on inherited state).
[[noreturn]] void run_child(const Scenario& s, const Scope& scope,
                            const std::string& path) {
  try {
    tpa::trace::Campaign probe;
    if (tpa::trace::try_read_campaign_file(path, &probe)) {
      ResumeOptions opts;
      opts.checkpoint_interval_ms = kIntervalMs;
      (void)tpa::runtime::resume(path, opts);
    } else {
      ExplorerConfig cfg = scope_config(scope);
      cfg.campaign_path = path;
      cfg.checkpoint_interval_ms = kIntervalMs;
      (void)s.explore(cfg);
    }
    _exit(0);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "child %s: %s\n", scope.scenario, e.what());
    _exit(3);
  }
}

bool same_directives(const std::vector<tpa::tso::Directive>& a,
                     const std::vector<tpa::tso::Directive>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].kind != b[i].kind || a[i].proc != b[i].proc ||
        a[i].var != b[i].var)
      return false;
  return true;
}

/// One scope: reference run, kill rounds, final leg, parity check. Returns
/// the number of legs that were actually SIGKILLed mid-flight.
int run_scope(const Scope& scope, const std::string& dir, std::mt19937& rng) {
  const Scenario* s = find_scenario(scope.scenario);
  if (s == nullptr) {
    fail(scope, "scenario not in registry");
    return 0;
  }
  const ExplorerResult ref = s->explore(scope_config(scope));

  const std::string path = dir + "/" + scope.scenario + "-pre" +
                           std::to_string(scope.preemptions) +
                           (scope.dedup_max_bytes != ~0ull ? "-gov" : "") +
                           ".tpc";
  std::remove(path.c_str());

  int killed = 0;
  for (int round = 0; round < scope.kills; ++round) {
    const pid_t pid = fork();
    if (pid < 0) {
      fail(scope, "fork failed");
      return killed;
    }
    if (pid == 0) run_child(*s, scope, path);

    std::uniform_int_distribution<std::uint64_t> delay(
        0, scope.max_sleep_ms * 1000);
    std::this_thread::sleep_for(std::chrono::microseconds(delay(rng)));
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    const bool was_killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    if (was_killed) {
      ++killed;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail(scope, "child failed with status " + std::to_string(status));
      return killed;
    }

    // Durability after every kill: whatever is on disk parses — a kill
    // mid-checkpoint-write must leave the previous checkpoint intact.
    tpa::trace::Campaign snap;
    std::string error;
    if (tpa::trace::try_read_campaign_file(path, &snap, &error)) {
      if (snap.complete) break;  // finished before (or despite) the kill
      const bool root_only =
          snap.frontier.size() == 1 && snap.frontier[0].dirs.empty();
      if (was_killed && !root_only) ++midrun_kills;
    } else if (error.find("cannot open") == std::string::npos) {
      fail(scope, "torn campaign file after kill: " + error);
      return killed;
    }
    // else: killed before the very first checkpoint — next leg starts fresh.
  }

  // The final, un-killed leg drives the campaign to completion.
  const pid_t pid = fork();
  if (pid < 0) {
    fail(scope, "fork failed");
    return killed;
  }
  if (pid == 0) run_child(*s, scope, path);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail(scope, "final leg failed with status " + std::to_string(status));
    return killed;
  }

  tpa::trace::Campaign done;
  try {
    done = tpa::trace::read_campaign_file(path);
  } catch (const CheckFailure& e) {
    fail(scope, std::string("terminal campaign unreadable: ") + e.what());
    return killed;
  }
  if (!done.complete) {
    fail(scope, "final leg did not complete the campaign");
    return killed;
  }
  if (scope.liveness) {
    // Kind parity + replayability (see the Scope field comment for why not
    // byte parity): both the interrupted and the reference run must find
    // the same class of verdict, and each recorded lasso must replay as a
    // strictly-closing fair cycle of that class on a fresh simulator.
    if (done.verdict.kind != ref.verdict.kind) {
      fail(scope, std::string("liveness verdict kind diverged: ") +
                      tpa::tso::to_string(done.verdict.kind) +
                      " vs reference " + tpa::tso::to_string(ref.verdict.kind));
      return killed;
    }
    const tpa::tso::Verdict* lassos[] = {&done.verdict, &ref.verdict};
    for (const tpa::tso::Verdict* v : lassos) {
      if (!v->is_lasso()) {
        fail(scope, "liveness verdict without a lasso witness");
        return killed;
      }
      const auto at = v->witness.begin() +
                      static_cast<std::ptrdiff_t>(v->cycle_start);
      const std::vector<tpa::tso::Directive> stem(v->witness.begin(), at);
      const std::vector<tpa::tso::Directive> cycle(at, v->witness.end());
      const tpa::tso::LassoReplay rep =
          tpa::tso::replay_lasso(s->n_procs, s->sim, s->build, stem, cycle);
      if (!rep.closes || rep.kind != v->kind) {
        fail(scope, "recorded lasso does not replay as its verdict kind");
        return killed;
      }
    }
  } else if (done.verdict.found() != ref.verdict.found() ||
             done.verdict.message != ref.verdict.message) {
    fail(scope, "verdict diverged: '" + done.verdict.message + "' vs reference '" +
                    ref.verdict.message + "'");
    return killed;
  } else if (!same_directives(done.verdict.witness, ref.verdict.witness)) {
    fail(scope, "witness diverged from the uninterrupted run");
    return killed;
  }
  if (!scope.liveness && done.exhausted != ref.exhausted) {
    fail(scope, "exhausted flag diverged");
    return killed;
  }
  // Exact count parity holds whenever dedup is off; under the governor a
  // resumed visited set restarts empty, so only the verdict is pinned.
  if (scope.dedup_max_bytes == ~0ull && !scope.liveness &&
      (done.schedules != ref.schedules || done.truncated != ref.truncated)) {
    fail(scope, "counts diverged: " + std::to_string(done.schedules) + "/" +
                    std::to_string(done.truncated) + " vs reference " +
                    std::to_string(ref.schedules) + "/" +
                    std::to_string(ref.truncated));
    return killed;
  }

  std::printf("ok   %-22s pre=%d cr=%d%s kills=%d schedules=%llu%s\n",
              scope.scenario, scope.preemptions, scope.max_crashes,
              scope.dedup_max_bytes != ~0ull ? " governed" : "", killed,
              static_cast<unsigned long long>(done.schedules),
              done.verdict.found() ? " (violation reproduced)" : "");
  std::remove(path.c_str());
  return killed;
}

}  // namespace

int main() {
  char dir_template[] = "/tmp/tpa_crash_harness_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "FAIL cannot create scratch directory\n");
    return 1;
  }

  // Fixed seed: the kill schedule is randomized but reproducible run to run.
  std::mt19937 rng(0x7c0ffee5u);
  int total_kills = 0;
  for (const Scope& scope : kScopes) total_kills += run_scope(scope, dir, rng);

  if (total_kills == 0) {
    std::fprintf(stderr,
                 "FAIL no leg was ever killed mid-flight — the harness is "
                 "not exercising recovery\n");
    ++failures;
  }
  if (midrun_kills == 0) {
    std::fprintf(stderr,
                 "FAIL no killed leg left a mid-run checkpoint — periodic "
                 "checkpoints are not being written\n");
    ++failures;
  }
  rmdir(dir);
  if (failures != 0) {
    std::fprintf(stderr, "%d scope(s) failed\n", failures);
    return 1;
  }
  std::printf(
      "all scopes recovered to the uninterrupted verdict (%d kills, %d of "
      "them leaving a mid-run checkpoint)\n",
      total_kills, midrun_kills);
  return 0;
}

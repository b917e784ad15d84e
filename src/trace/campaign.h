// Campaign file format v2 — the durable state of an exploration campaign.
//
// A campaign file is everything a fresh process needs to continue (or just
// report) an exploration another process started: the scenario identity, the
// RNG-free explorer configuration (guarded by a hash so a resume with
// mismatched parameters is rejected instead of silently diverging), the
// aggregate RunStats of the work already completed, and the *frontier* — the
// roots of the still-unexplored subtrees, each a directive prefix plus the
// adversary budgets remaining at that node. The frontier is the same exact
// partition representation the parallel explorer's work queue uses: the
// listed subtrees and the completed work tile the schedule tree with no
// overlap, so resuming from any checkpoint reproduces the uninterrupted
// run's verdict, witness and (dedup off) schedule/truncated counts exactly.
//
// Files are only ever published through trace::atomic_write_file
// (tmp + fsync + rename), so a SIGKILL at any point — including mid-write —
// leaves either the previous checkpoint or the new one, never a torn file.
// See docs/ROBUSTNESS.md for the format grammar and the resume semantics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tso/event.h"
#include "tso/explorer.h"

namespace tpa::trace {

/// One unexplored subtree root: the directive prefix from the initial state
/// plus the scheduler/adversary context at its end. Frontier order is DFS
/// completion order, so replaying nodes front to back preserves the
/// first-in-DFS-order witness rule.
struct CampaignNode {
  tso::ProcId current = tso::kNoProc;  ///< scheduled process after `dirs`
  int preemptions = 0;                 ///< preemption budget remaining
  int crashes_left = 0;                ///< crash budget remaining
  std::vector<tso::Directive> dirs;    ///< prefix from the initial state
};

/// A parsed (or to-be-written) campaign file.
struct Campaign {
  // -- identity -------------------------------------------------------------
  std::string scenario;  ///< registry id; may be empty for raw tso runs
  std::size_t n_procs = 0;
  bool pso = false;
  tso::CrashModel crash_model = tso::CrashModel::kBufferLost;

  // -- the RNG-free explorer configuration ----------------------------------
  // Exactly the ExplorerConfig fields that determine the schedule tree and
  // its verdict. Wall-clock knobs (time budget, checkpoint interval) are
  // deliberately absent: a resume may pick fresh ones without changing what
  // is explored.
  int preemptions = 2;
  std::uint64_t max_steps = 600;
  std::uint64_t max_schedules = 2'000'000;
  int max_crashes = 0;
  tso::DedupMode dedup = tso::DedupMode::kOff;
  tso::SymmetryMode symmetry = tso::SymmetryMode::kOff;
  tso::LivenessMode liveness = tso::LivenessMode::kOff;
  std::uint64_t dedup_max_bytes = ~0ull;
  bool shrink = true;
  // The file still carries a `checkpoint 1` line, hashed like the fields
  // above: it once selected snapshot restores over prefix replay, and
  // keeping it keeps every v2 file reading, hashing and resuming unchanged.
  // Snapshot restores are now the only strategy, so `checkpoint 0` files
  // are rejected.

  // -- aggregate stats of the completed work --------------------------------
  std::uint64_t schedules = 0;
  std::uint64_t steps = 0;
  std::uint64_t truncated = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t restores = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t dedup_states = 0;
  std::uint64_t dedup_evictions = 0;

  // -- terminal state -------------------------------------------------------
  /// True once the exploration finished (exhausted, budget-capped, or
  /// violation found). A complete campaign has an empty frontier and resume
  /// simply returns the recorded result.
  bool complete = false;
  bool exhausted = true;
  /// The recorded outcome: kind, message, witness and (for liveness
  /// verdicts) the lasso cycle entry. Clean unless the campaign ended in a
  /// violation. raw_witness is not persisted — a campaign records only the
  /// final (shrunk) witness.
  tso::Verdict verdict;

  // -- remaining work -------------------------------------------------------
  std::vector<CampaignNode> frontier;  ///< empty iff complete
};

/// The FNV-1a hash over the identity + configuration fields above. Written
/// into the file and re-verified on read, so a campaign resumed against an
/// edited config (or a corrupted file) fails loudly instead of producing a
/// verdict for a different exploration.
std::uint64_t campaign_config_hash(const Campaign& c);

/// Serializes the campaign in the line-oriented v2 text format (grammar in
/// docs/ROBUSTNESS.md). The config-hash line is always recomputed. v2 added
/// the `liveness` config line (part of the hash) and the structured
/// verdict/cycle-start terminal fields.
void write_campaign(std::ostream& os, const Campaign& campaign);

/// Parses write_campaign output; raises CheckFailure on malformed input or
/// a config-hash mismatch. v1 files (no liveness line, pre-verdict terminal
/// fields) are rejected with an explicit stale-version message: their hash
/// does not cover the liveness mode a resume would need. So are files
/// recorded in the removed replay mode (`checkpoint 0`).
Campaign read_campaign(std::istream& is);

/// String-based conveniences over the stream versions.
std::string campaign_to_string(const Campaign& campaign);
Campaign campaign_from_string(const std::string& text);

/// Publishes the campaign at `path` via atomic_write_file — a kill at any
/// point leaves the previous checkpoint intact.
void write_campaign_file(const std::string& path, const Campaign& campaign);

/// Strict read of a campaign file; raises CheckFailure when the file is
/// missing or malformed.
Campaign read_campaign_file(const std::string& path);

/// Lenient counterpart: returns false — with a diagnostic in `*error` when
/// given — instead of raising. `*out` is only assigned on success.
bool try_read_campaign_file(const std::string& path, Campaign* out,
                            std::string* error = nullptr);

}  // namespace tpa::trace

// Layer microdriver: per-call host costs of the simulator, fingerprint,
// snapshot, visited-set, witness, replay and campaign layers, measured
// through their public APIs on seeded random schedules of a workload's own
// scenarios. The end-to-end jobs can only be timed as a whole from outside;
// these costs say which layer a change in their wall time came from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.h"

namespace tpa::bench {

struct LayerCosts {
  double apply_ns = 0;           ///< per deliver/commit/crash/recover
  double events_per_run = 0;     ///< directives per random schedule
  double fp_full_ns = 0;         ///< Simulator::fingerprint after one event
  double fp_symmetric_ns = 0;    ///< Simulator::fingerprint_symmetric
  double fp_progress_ns = 0;     ///< Simulator::fingerprint_progress
  double snapshot_take_ns = 0;   ///< snapshot_into a pooled SimSnapshot
  double snapshot_restore_ns = 0;
  double visited_probe_ns = 0;   ///< VisitedSet::subsumed, hits and misses
  double visited_insert_ns = 0;
  double witness_roundtrip_us = 0;  ///< write_witness + read_witness
  double replay_strict_us = 0;      ///< Scenario::replay of one schedule
  double campaign_roundtrip_us = 0; ///< write + read of a campaign file
  std::uint64_t checks = 0;  ///< round trips compared against their input
  std::uint64_t failed = 0;
};

/// Averages each cost over `scenarios` (equal weight per scenario). The
/// visited set is pre-filled with `visited_prefill` entries, so probes see
/// the table size the workload's explorations end with. Campaign files go
/// under `scratch_dir`.
LayerCosts measure_layers(
    const std::vector<const runtime::Scenario*>& scenarios, std::uint64_t seed,
    std::size_t visited_prefill, const std::string& scratch_dir);

/// Directive-by-directive equality (tso::Directive has no operator==).
bool same_directives(const std::vector<tso::Directive>& a,
                     const std::vector<tso::Directive>& b);

}  // namespace tpa::bench

// Wall-clock watchdog deadlines from millisecond budgets.
//
// Every `time_budget_ms` knob in the library (explorer, fuzzer, native
// stress harness) turns its budget into a steady_clock deadline here. The
// naive `now() + milliseconds(budget)` wraps: the uint64 -> int64 conversion
// turns UINT64_MAX into -1 ms, and any budget beyond ~9.2e12 ms overflows
// the nanosecond time_point — either way the deadline lands in the past and
// the run stops at once. deadline_after() saturates instead.
#pragma once

#include <chrono>
#include <cstdint>

namespace tpa {

/// Sentinel for "no deadline": no steady_clock reading ever reaches it.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// The instant `budget_ms` from now, or kNoDeadline when the budget is 0
/// (the knobs' "disabled") or too large for steady_clock to represent.
inline std::chrono::steady_clock::time_point deadline_after(
    std::uint64_t budget_ms) {
  if (budget_ms == 0) return kNoDeadline;
  const auto now = std::chrono::steady_clock::now();
  // Truncating the headroom to whole milliseconds keeps `now + budget`
  // strictly inside the representable range below.
  const auto headroom =
      std::chrono::duration_cast<std::chrono::milliseconds>(kNoDeadline - now);
  if (budget_ms >= static_cast<std::uint64_t>(headroom.count()))
    return kNoDeadline;
  return now + std::chrono::milliseconds(budget_ms);
}

}  // namespace tpa

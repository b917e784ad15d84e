#include "tso/schedule.h"

#include <sstream>

#include "util/check.h"

namespace tpa::tso {

std::unique_ptr<Simulator> replay(std::size_t n_procs, SimConfig config,
                                  const ScenarioBuilder& build,
                                  const std::vector<Directive>& directives,
                                  const std::vector<bool>* erased) {
  auto sim = std::make_unique<Simulator>(n_procs, config);
  build(*sim);
  for (const auto& d : directives) {
    if (erased && (*erased)[static_cast<std::size_t>(d.proc)]) continue;
    const bool ok = sim->apply(d);
    TPA_CHECK(ok, "replay directive could not be applied: proc=" << d.proc);
  }
  return sim;
}

ReplayCheck verify_replay_equivalence(const Execution& original,
                                      const Execution& replayed,
                                      const std::vector<bool>& erased) {
  // Index of the next replayed event, per process.
  std::vector<std::vector<const Event*>> by_proc(erased.size());
  for (const auto& e : replayed.events)
    by_proc[static_cast<std::size_t>(e.proc)].push_back(&e);

  std::vector<std::size_t> next(erased.size(), 0);
  auto mismatch = [](const Event& a, const Event& b) {
    std::ostringstream os;
    os << "original {" << a.to_string() << "} vs replayed {" << b.to_string()
       << "}";
    return os.str();
  };

  for (const auto& e : original.events) {
    const auto pid = static_cast<std::size_t>(e.proc);
    if (erased[pid]) continue;
    if (next[pid] >= by_proc[pid].size())
      return {false, "replay is missing events of p" + std::to_string(e.proc)};
    const Event& r = *by_proc[pid][next[pid]++];
    if (e.kind != r.kind || e.var != r.var || e.value != r.value ||
        e.from_buffer != r.from_buffer || e.critical != r.critical ||
        e.cas_success != r.cas_success)
      return {false, mismatch(e, r)};
  }
  for (std::size_t pid = 0; pid < erased.size(); ++pid) {
    if (erased[pid]) {
      if (!by_proc[pid].empty())
        return {false,
                "erased process p" + std::to_string(pid) + " took events"};
    } else if (next[pid] != by_proc[pid].size()) {
      return {false,
              "replay has extra events of p" + std::to_string(pid)};
    }
  }
  return {};
}

}  // namespace tpa::tso

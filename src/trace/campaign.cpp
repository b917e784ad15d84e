#include "trace/campaign.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "trace/atomic_io.h"
#include "util/check.h"

namespace tpa::trace {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // Field separator, so adjacent fields cannot alias across the boundary.
  h ^= 0x1f;
  h *= 0x100000001b3ull;
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

void write_directive(std::ostream& os, const tso::Directive& d) {
  switch (d.kind) {
    case tso::ActionKind::kDeliver:
      os << "d " << d.proc << "\n";
      break;
    case tso::ActionKind::kCommit:
      os << "c " << d.proc;
      if (d.var != tso::kNoVar) os << " " << d.var;
      os << "\n";
      break;
    case tso::ActionKind::kCrash:
      os << "x " << d.proc << "\n";
      break;
    case tso::ActionKind::kRecover:
      os << "r " << d.proc << "\n";
      break;
  }
}

bool is_directive_key(const std::string& key) {
  return key == "d" || key == "c" || key == "x" || key == "r";
}

tso::Directive parse_directive(const std::string& key, std::istringstream& ls,
                               const std::string& line) {
  tso::Directive d;
  d.kind = key == "d"   ? tso::ActionKind::kDeliver
           : key == "c" ? tso::ActionKind::kCommit
           : key == "x" ? tso::ActionKind::kCrash
                        : tso::ActionKind::kRecover;
  TPA_CHECK(static_cast<bool>(ls >> d.proc),
            "campaign: bad directive line '" << line << "'");
  d.var = tso::kNoVar;
  if (key == "c") {
    tso::VarId v;
    if (ls >> v) d.var = v;
  }
  return d;
}

std::string chomp(std::string line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
    line.pop_back();
  return line;
}

}  // namespace

std::uint64_t campaign_config_hash(const Campaign& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  h = fnv1a(h, c.scenario);
  h = fnv1a_u64(h, c.n_procs);
  h = fnv1a_u64(h, c.pso ? 1 : 0);
  h = fnv1a(h, tso::to_string(c.crash_model));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(c.preemptions));
  h = fnv1a_u64(h, c.max_steps);
  h = fnv1a_u64(h, c.max_schedules);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(c.max_crashes));
  h = fnv1a(h, tso::to_string(c.dedup));
  h = fnv1a(h, tso::to_string(c.symmetry));
  h = fnv1a(h, tso::to_string(c.liveness));
  h = fnv1a_u64(h, c.dedup_max_bytes);
  h = fnv1a_u64(h, c.shrink ? 1 : 0);
  h = fnv1a_u64(h, 1);  // the `checkpoint 1` line (see Campaign)
  return h;
}

void write_campaign(std::ostream& os, const Campaign& c) {
  os << "tpa-campaign v2\n";
  if (!c.scenario.empty()) os << "scenario " << c.scenario << "\n";
  os << "procs " << c.n_procs << "\n";
  os << "pso " << (c.pso ? 1 : 0) << "\n";
  os << "crash-model " << tso::to_string(c.crash_model) << "\n";
  os << "preemptions " << c.preemptions << "\n";
  os << "max-steps " << c.max_steps << "\n";
  os << "max-schedules " << c.max_schedules << "\n";
  os << "max-crashes " << c.max_crashes << "\n";
  os << "dedup " << tso::to_string(c.dedup) << "\n";
  os << "symmetry " << tso::to_string(c.symmetry) << "\n";
  os << "liveness " << tso::to_string(c.liveness) << "\n";
  os << "dedup-max-bytes " << c.dedup_max_bytes << "\n";
  os << "shrink " << (c.shrink ? 1 : 0) << "\n";
  os << "checkpoint 1\n";
  os << "config-hash " << std::hex << campaign_config_hash(c) << std::dec
     << "\n";
  os << "schedules " << c.schedules << "\n";
  os << "steps " << c.steps << "\n";
  os << "truncated " << c.truncated << "\n";
  os << "snapshots " << c.snapshots << "\n";
  os << "restores " << c.restores << "\n";
  os << "dedup-hits " << c.dedup_hits << "\n";
  os << "dedup-states " << c.dedup_states << "\n";
  os << "dedup-evictions " << c.dedup_evictions << "\n";
  os << "complete " << (c.complete ? 1 : 0) << "\n";
  os << "exhausted " << (c.exhausted ? 1 : 0) << "\n";
  if (c.verdict.found()) {
    os << "verdict " << tso::to_string(c.verdict.kind) << "\n";
    std::string msg = c.verdict.message;
    for (char& ch : msg)
      if (ch == '\n' || ch == '\r') ch = ' ';
    os << "violation " << msg << "\n";
    if (c.verdict.is_lasso())
      os << "cycle-start " << c.verdict.cycle_start << "\n";
    if (!c.verdict.witness.empty()) {
      os << "witness\n";
      for (const auto& d : c.verdict.witness) write_directive(os, d);
    }
  }
  for (const auto& node : c.frontier) {
    os << "node " << node.current << " " << node.preemptions << " "
       << node.crashes_left << "\n";
    for (const auto& d : node.dirs) write_directive(os, d);
  }
  os << "end\n";
}

Campaign read_campaign(std::istream& is) {
  Campaign c;
  std::string line;
  TPA_CHECK(static_cast<bool>(std::getline(is, line)),
            "campaign: empty input");
  // v1 files predate the liveness config field: their hash cannot cover the
  // liveness mode a resume needs, so they are stale, not parseable-as-v2.
  TPA_CHECK(chomp(line) != "tpa-campaign v1",
            "campaign: stale v1 file — the format gained the liveness "
            "config field in v2; restart the campaign");
  TPA_CHECK(chomp(line) == "tpa-campaign v2",
            "campaign: bad header '" << chomp(line) << "'");

  // Directive lines attach to whichever section is open: the witness, or
  // the most recently declared frontier node.
  enum class Section { kNone, kWitness, kNode };
  Section section = Section::kNone;
  bool saw_end = false;
  bool saw_hash = false;
  std::uint64_t stored_hash = 0;
  auto read_flag = [&](std::istringstream& ls, const char* what) {
    int v = 0;
    TPA_CHECK(static_cast<bool>(ls >> v), "campaign: bad " << what << " line");
    return v != 0;
  };
  while (std::getline(is, line)) {
    line = chomp(line);
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (is_directive_key(key)) {
      const tso::Directive d = parse_directive(key, ls, line);
      if (section == Section::kWitness) {
        c.verdict.witness.push_back(d);
      } else {
        TPA_CHECK(section == Section::kNode,
                  "campaign: directive line '" << line
                                               << "' outside any section");
        c.frontier.back().dirs.push_back(d);
      }
      continue;
    }
    if (key == "witness") {
      section = Section::kWitness;
    } else if (key == "node") {
      CampaignNode node;
      TPA_CHECK(static_cast<bool>(ls >> node.current >> node.preemptions >>
                                  node.crashes_left),
                "campaign: bad node line '" << line << "'");
      c.frontier.push_back(std::move(node));
      section = Section::kNode;
    } else if (key == "scenario") {
      ls >> std::ws;
      std::getline(ls, c.scenario);
    } else if (key == "procs") {
      TPA_CHECK(static_cast<bool>(ls >> c.n_procs),
                "campaign: bad procs line '" << line << "'");
    } else if (key == "pso") {
      c.pso = read_flag(ls, "pso");
    } else if (key == "crash-model") {
      std::string name;
      TPA_CHECK(static_cast<bool>(ls >> name),
                "campaign: bad crash-model line '" << line << "'");
      c.crash_model = tso::crash_model_from_string(name);
    } else if (key == "preemptions") {
      TPA_CHECK(static_cast<bool>(ls >> c.preemptions),
                "campaign: bad preemptions line '" << line << "'");
    } else if (key == "max-steps") {
      TPA_CHECK(static_cast<bool>(ls >> c.max_steps),
                "campaign: bad max-steps line '" << line << "'");
    } else if (key == "max-schedules") {
      TPA_CHECK(static_cast<bool>(ls >> c.max_schedules),
                "campaign: bad max-schedules line '" << line << "'");
    } else if (key == "max-crashes") {
      TPA_CHECK(static_cast<bool>(ls >> c.max_crashes),
                "campaign: bad max-crashes line '" << line << "'");
    } else if (key == "dedup") {
      std::string name;
      TPA_CHECK(static_cast<bool>(ls >> name),
                "campaign: bad dedup line '" << line << "'");
      c.dedup = tso::dedup_mode_from_string(name);
    } else if (key == "symmetry") {
      std::string name;
      TPA_CHECK(static_cast<bool>(ls >> name),
                "campaign: bad symmetry line '" << line << "'");
      c.symmetry = tso::symmetry_mode_from_string(name);
    } else if (key == "liveness") {
      std::string name;
      TPA_CHECK(static_cast<bool>(ls >> name),
                "campaign: bad liveness line '" << line << "'");
      c.liveness = tso::liveness_mode_from_string(name);
    } else if (key == "dedup-max-bytes") {
      TPA_CHECK(static_cast<bool>(ls >> c.dedup_max_bytes),
                "campaign: bad dedup-max-bytes line '" << line << "'");
    } else if (key == "shrink") {
      c.shrink = read_flag(ls, "shrink");
    } else if (key == "checkpoint") {
      TPA_CHECK(read_flag(ls, "checkpoint"),
                "campaign: 'checkpoint 0' was recorded in replay mode, and "
                "replay mode was removed — restart the campaign");
    } else if (key == "config-hash") {
      TPA_CHECK(static_cast<bool>(ls >> std::hex >> stored_hash),
                "campaign: bad config-hash line '" << line << "'");
      saw_hash = true;
    } else if (key == "schedules") {
      TPA_CHECK(static_cast<bool>(ls >> c.schedules),
                "campaign: bad schedules line '" << line << "'");
    } else if (key == "steps") {
      TPA_CHECK(static_cast<bool>(ls >> c.steps),
                "campaign: bad steps line '" << line << "'");
    } else if (key == "truncated") {
      TPA_CHECK(static_cast<bool>(ls >> c.truncated),
                "campaign: bad truncated line '" << line << "'");
    } else if (key == "snapshots") {
      TPA_CHECK(static_cast<bool>(ls >> c.snapshots),
                "campaign: bad snapshots line '" << line << "'");
    } else if (key == "restores") {
      TPA_CHECK(static_cast<bool>(ls >> c.restores),
                "campaign: bad restores line '" << line << "'");
    } else if (key == "dedup-hits") {
      TPA_CHECK(static_cast<bool>(ls >> c.dedup_hits),
                "campaign: bad dedup-hits line '" << line << "'");
    } else if (key == "dedup-states") {
      TPA_CHECK(static_cast<bool>(ls >> c.dedup_states),
                "campaign: bad dedup-states line '" << line << "'");
    } else if (key == "dedup-evictions") {
      TPA_CHECK(static_cast<bool>(ls >> c.dedup_evictions),
                "campaign: bad dedup-evictions line '" << line << "'");
    } else if (key == "complete") {
      c.complete = read_flag(ls, "complete");
    } else if (key == "exhausted") {
      c.exhausted = read_flag(ls, "exhausted");
    } else if (key == "verdict") {
      std::string name;
      TPA_CHECK(static_cast<bool>(ls >> name),
                "campaign: bad verdict line '" << line << "'");
      c.verdict.kind = tso::verdict_kind_from_string(name);
      TPA_CHECK(c.verdict.found(),
                "campaign: explicit 'verdict clean' line is not written — "
                "the file is corrupt");
    } else if (key == "violation") {
      ls >> std::ws;
      std::getline(ls, c.verdict.message);
      // v2 always writes the verdict line before the violation message; a
      // file carrying a message without a kind is malformed.
      TPA_CHECK(c.verdict.found(),
                "campaign: 'violation' line without a preceding 'verdict'");
    } else if (key == "cycle-start") {
      TPA_CHECK(static_cast<bool>(ls >> c.verdict.cycle_start),
                "campaign: bad cycle-start line '" << line << "'");
    } else {
      TPA_FAIL("campaign: unknown key '" << key << "'");
    }
  }
  TPA_CHECK(saw_end, "campaign: missing 'end' terminator");
  TPA_CHECK(c.n_procs > 0, "campaign: missing or zero 'procs'");
  TPA_CHECK(saw_hash, "campaign: missing 'config-hash'");
  TPA_CHECK(stored_hash == campaign_config_hash(c),
            "campaign: config-hash mismatch — the file was edited or the "
            "configuration fields are corrupt");
  TPA_CHECK(c.complete == c.frontier.empty(),
            "campaign: " << (c.complete ? "complete campaign carries frontier "
                                          "nodes"
                                        : "incomplete campaign has an empty "
                                          "frontier"));
  TPA_CHECK(!c.verdict.is_lasso() ||
                c.verdict.cycle_start < c.verdict.witness.size(),
            "campaign: cycle-start " << c.verdict.cycle_start
                                     << " out of range for a witness of "
                                     << c.verdict.witness.size()
                                     << " directives");
  return c;
}

std::string campaign_to_string(const Campaign& campaign) {
  std::ostringstream os;
  write_campaign(os, campaign);
  return os.str();
}

Campaign campaign_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_campaign(is);
}

void write_campaign_file(const std::string& path, const Campaign& campaign) {
  atomic_write_file(path, campaign_to_string(campaign));
}

Campaign read_campaign_file(const std::string& path) {
  std::ifstream is(path);
  TPA_CHECK(is.good(), "campaign: cannot open '" << path << "'");
  return read_campaign(is);
}

bool try_read_campaign_file(const std::string& path, Campaign* out,
                            std::string* error) {
  std::ifstream is(path);
  if (!is.good()) {
    if (error) *error = "cannot open '" + path + "'";
    return false;
  }
  try {
    Campaign c = read_campaign(is);
    *out = std::move(c);
    return true;
  } catch (const CheckFailure& e) {
    if (error) *error = e.what();
    return false;
  }
}

}  // namespace tpa::trace

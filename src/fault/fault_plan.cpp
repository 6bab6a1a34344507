#include "fault/fault_plan.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "common/spec_reader.h"

namespace eclb::fault {

namespace {

constexpr std::string_view kKindGrammar =
    "crash@T:s=ID, recover@T:s=ID, leader@T, loss@T:p=P, delay@T:d=SECS, "
    "migfail@T:p=P, derate@T:s=ID,c=CAP, part@T:g=GROUPS[,heal=T2], heal@T";

constexpr std::string_view kParamGrammar =
    "seed=N, hb=SECS (0 or >= 0.001), miss=N (>= 1), retries=N (<= 64), "
    "backoff=SECS, cap=SECS (>= 0.001)";

/// The shortest heartbeat period and retry delay, in seconds.  Each beat
/// and each retry is a kernel event: a period far below the 60 s interval
/// schedules ~interval/period of them, and 1e-9 never finishes.
constexpr double kMinProtocolSeconds = 0.001;
/// The most retries of one dropped message.  retry_backoff() loops once per
/// attempt, and a longer chain only re-sends into the backoff cap.
constexpr std::uint64_t kMaxRetries = 64;

/// Appends the run LO-HI to `group`, extending its last run when LO follows
/// it directly, so `0-4+5-9` and the ids 0..9 store (and print) as `0-9`.
void add_run(std::vector<ServerRange>* group, std::uint64_t lo,
             std::uint64_t hi) {
  if (!group->empty() && group->back().hi.index() + 1 == lo) {
    group->back().hi = common::ServerId{hi};
  } else {
    group->push_back({common::ServerId{lo}, common::ServerId{hi}});
  }
}

/// Reads a server id: an integer below ServerId::kInvalid.
bool read_server(std::string_view text, std::uint64_t* out) {
  return common::read_number(text, out) && *out < common::ServerId::kInvalid;
}

/// Parses a partition group spec: `|`-separated groups of `+`-separated
/// members, each a server ID or an inclusive range LO-HI.  Ranges are kept
/// as runs: a group's size is never the cost of reading it.
bool parse_groups(std::string_view text,
                  std::vector<std::vector<ServerRange>>* out) {
  while (true) {
    const std::size_t bar = text.find('|');
    std::string_view group_text = common::trim(text.substr(0, bar));
    std::vector<ServerRange> group;
    while (!group_text.empty()) {
      const std::size_t plus = group_text.find('+');
      const std::string_view member = group_text.substr(0, plus);
      group_text = plus == std::string_view::npos
                       ? std::string_view{}
                       : group_text.substr(plus + 1);
      const std::size_t dash = member.find('-');
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      if (!read_server(member.substr(0, dash), &lo)) return false;
      if (dash == std::string_view::npos) {
        hi = lo;
      } else if (!read_server(member.substr(dash + 1), &hi) || hi < lo) {
        return false;
      }
      add_run(&group, lo, hi);
    }
    if (group.empty()) return false;
    out->push_back(std::move(group));
    if (bar == std::string_view::npos) break;
    text = text.substr(bar + 1);
  }
  if (out->size() < 2) return false;
  // Disjointness: no server may sit in two groups (nor twice in one).
  std::vector<ServerRange> all;
  for (const auto& g : *out) all.insert(all.end(), g.begin(), g.end());
  const auto by_lo = [](const ServerRange& a, const ServerRange& b) {
    return a.lo < b.lo;
  };
  std::sort(all.begin(), all.end(), by_lo);
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].lo <= all[i - 1].hi) return false;
  }
  return true;
}

/// Appends `e` in the flag syntax (`kind@T[:k=v,...]`).
void append_event(std::ostringstream& out, const FaultEvent& e) {
  using common::format_number;
  out << to_string(e.kind) << '@' << format_number(e.at.value);
  switch (e.kind) {
    case FaultKind::kServerCrash:
    case FaultKind::kServerRecover:
      out << ":s=" << e.server.index();
      break;
    case FaultKind::kLeaderCrash: break;
    case FaultKind::kLinkLoss:
    case FaultKind::kMigrationFailureRate:
      out << ":p=" << format_number(e.value);
      break;
    case FaultKind::kLinkDelay:
      out << ":d=" << format_number(e.value);
      break;
    case FaultKind::kCapacityDerate:
      out << ":s=" << e.server.index() << ",c=" << format_number(e.value);
      break;
    case FaultKind::kPartitionStart: {
      out << ":g=";
      for (std::size_t g = 0; g < e.groups.size(); ++g) {
        if (g > 0) out << '|';
        for (std::size_t r = 0; r < e.groups[g].size(); ++r) {
          const ServerRange& run = e.groups[g][r];
          if (r > 0) out << '+';
          out << run.lo.index();
          if (run.hi != run.lo) out << '-' << run.hi.index();
        }
      }
      break;
    }
    case FaultKind::kPartitionHeal: break;
  }
}

}  // namespace

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kServerCrash: return "crash";
    case FaultKind::kServerRecover: return "recover";
    case FaultKind::kLeaderCrash: return "leader";
    case FaultKind::kLinkLoss: return "loss";
    case FaultKind::kLinkDelay: return "delay";
    case FaultKind::kMigrationFailureRate: return "migfail";
    case FaultKind::kCapacityDerate: return "derate";
    case FaultKind::kPartitionStart: return "part";
    case FaultKind::kPartitionHeal: return "heal";
  }
  return "?";
}

FaultPlan& FaultPlan::crash(common::Seconds at, common::ServerId server) {
  events_.push_back({FaultKind::kServerCrash, at, server, 0.0, {}});
  return *this;
}

FaultPlan& FaultPlan::recover(common::Seconds at, common::ServerId server) {
  events_.push_back({FaultKind::kServerRecover, at, server, 0.0, {}});
  return *this;
}

FaultPlan& FaultPlan::crash_leader(common::Seconds at) {
  events_.push_back({FaultKind::kLeaderCrash, at, common::ServerId{}, 0.0, {}});
  return *this;
}

FaultPlan& FaultPlan::link_loss(common::Seconds at, double p) {
  events_.push_back({FaultKind::kLinkLoss, at, common::ServerId{}, p, {}});
  return *this;
}

FaultPlan& FaultPlan::link_delay(common::Seconds at, common::Seconds delay) {
  events_.push_back(
      {FaultKind::kLinkDelay, at, common::ServerId{}, delay.value, {}});
  return *this;
}

FaultPlan& FaultPlan::migration_failure_rate(common::Seconds at, double p) {
  events_.push_back(
      {FaultKind::kMigrationFailureRate, at, common::ServerId{}, p, {}});
  return *this;
}

FaultPlan& FaultPlan::derate(common::Seconds at, common::ServerId server,
                             double capacity) {
  events_.push_back({FaultKind::kCapacityDerate, at, server, capacity, {}});
  return *this;
}

FaultPlan& FaultPlan::partition(
    common::Seconds at,
    const std::vector<std::vector<common::ServerId>>& groups,
    common::Seconds heal_at) {
  ECLB_ASSERT(groups.size() >= 2, "FaultPlan: a partition needs >= 2 groups");
  ECLB_ASSERT(heal_at.value > at.value, "FaultPlan: heal must follow the split");
  FaultEvent split{FaultKind::kPartitionStart, at, common::ServerId{}, 0.0, {}};
  for (const auto& members : groups) {
    auto& runs = split.groups.emplace_back();
    for (const auto id : members) add_run(&runs, id.index(), id.index());
  }
  events_.push_back(std::move(split));
  return heal(heal_at);
}

FaultPlan& FaultPlan::heal(common::Seconds at) {
  events_.push_back({FaultKind::kPartitionHeal, at, common::ServerId{}, 0.0, {}});
  return *this;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec,
                                          std::string* error) {
  FaultPlan plan;
  common::SpecReader reader("faults", spec, error);
  common::SpecItem item;
  while (reader.next(&item)) {
    const std::size_t at_pos = item.text.find('@');
    if (at_pos == std::string_view::npos) {
      // Plan parameter: key=value.
      const std::size_t eq = item.text.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        reader.fail(item, "unrecognized item",
                    "expected kind@TIME[:k=v,...] or one of " +
                        std::string(kParamGrammar));
        return std::nullopt;
      }
      const std::string_view key = common::trim(item.text.substr(0, eq));
      const std::string_view value = item.text.substr(eq + 1);
      double d = 0.0;
      std::uint64_t n = 0;
      if (key == "seed" && common::read_number(value, &n)) {
        plan.seed_ = n;
      } else if (key == "hb" && common::read_number(value, &d)) {
        if (!(d == 0.0 || d >= kMinProtocolSeconds)) {
          reader.fail(item, "hb out of range in",
                      "expected 0 (no heartbeat) or a period of at least "
                      "0.001 seconds");
          return std::nullopt;
        }
        plan.params_.heartbeat_period = common::Seconds{d};
      } else if (key == "miss" && common::read_number(value, &n) && n >= 1) {
        plan.params_.failover_after_missed = static_cast<std::size_t>(n);
      } else if (key == "retries" && common::read_number(value, &n)) {
        if (n > kMaxRetries) {
          reader.fail(item, "retries out of range in",
                      "expected an integer in [0, 64]");
          return std::nullopt;
        }
        plan.params_.max_retries = static_cast<std::size_t>(n);
      } else if ((key == "backoff" || key == "cap") &&
                 common::read_number(value, &d)) {
        if (!(d >= kMinProtocolSeconds)) {
          reader.fail(item, std::string(key) + " out of range in",
                      "expected at least 0.001 seconds");
          return std::nullopt;
        }
        (key == "backoff" ? plan.params_.retry_backoff_base
                          : plan.params_.retry_backoff_cap) = common::Seconds{d};
      } else {
        reader.fail(item, "bad parameter",
                    "expected one of " + std::string(kParamGrammar));
        return std::nullopt;
      }
      continue;
    }

    // Fault item: kind@TIME[:k=v,...]
    const std::string_view kind = common::trim(item.text.substr(0, at_pos));
    const std::string_view rest = item.text.substr(at_pos + 1);
    const std::size_t colon = rest.find(':');
    double at = 0.0;
    if (!common::read_number(rest.substr(0, colon), &at) || at < 0.0) {
      reader.fail(item, "bad time in",
                  "expected kind@TIME with TIME >= 0 seconds");
      return std::nullopt;
    }
    common::SpecArgs args;
    if (colon != std::string_view::npos &&
        !reader.split_args(rest.substr(colon + 1), item, &args)) {
      return std::nullopt;
    }

    std::optional<common::ServerId> server;
    std::optional<double> probability;
    std::optional<double> delay;
    std::optional<double> capacity;
    std::optional<double> heal_at;
    std::vector<std::vector<ServerRange>> groups;
    for (const auto& [key, value] : args) {
      double d = 0.0;
      std::uint64_t n = 0;
      const bool number = common::read_number(value, &d);
      if (key == "s" && read_server(value, &n)) {
        server = common::ServerId{n};
      } else if (key == "p" && number && d >= 0.0 && d <= 1.0) {
        probability = d;
      } else if (key == "d" && number && d >= 0.0) {
        delay = d;
      } else if (key == "c" && number && d > 0.0 && d <= 1.0) {
        capacity = d;
      } else if (key == "g" && parse_groups(value, &groups)) {
        // Parsed in place; validity checked by parse_groups.
      } else if (key == "heal" && number && d > at) {
        heal_at = d;
      } else {
        reader.fail(item, "bad argument '" + std::string(key) + "' in",
                    "expected s=ID, p=PROB, d=SECS, c=CAP, g=GROUPS "
                    "(e.g. g=0-4|5-9) or heal=T2 > T");
        return std::nullopt;
      }
    }

    const common::Seconds when{at};
    if (kind == "crash" && server.has_value()) {
      plan.crash(when, *server);
    } else if (kind == "recover" && server.has_value()) {
      plan.recover(when, *server);
    } else if (kind == "leader" && args.empty()) {
      plan.crash_leader(when);
    } else if (kind == "loss" && probability.has_value()) {
      plan.link_loss(when, *probability);
    } else if (kind == "delay" && delay.has_value()) {
      plan.link_delay(when, common::Seconds{*delay});
    } else if (kind == "migfail" && probability.has_value()) {
      plan.migration_failure_rate(when, *probability);
    } else if (kind == "derate" && server.has_value() && capacity.has_value()) {
      plan.derate(when, *server, *capacity);
    } else if (kind == "part" && !groups.empty()) {
      plan.events_.push_back({FaultKind::kPartitionStart, when,
                              common::ServerId{}, 0.0, std::move(groups)});
      if (heal_at.has_value()) plan.heal(common::Seconds{*heal_at});
    } else if (kind == "heal" && args.empty()) {
      plan.heal(when);
    } else {
      reader.fail(item, "unrecognized or incomplete item",
                  "expected one of " + std::string(kKindGrammar) +
                      " (see --help for the grammar)");
      return std::nullopt;
    }
  }
  return plan;
}

bool FaultPlan::check_servers(std::size_t servers, std::string* error) const {
  for (const FaultEvent& e : events_) {
    std::size_t highest = e.server.valid() ? e.server.index() : 0;
    for (const auto& group : e.groups) {
      for (const ServerRange& run : group) {
        highest = std::max(highest, run.hi.index());
      }
    }
    if (highest < servers) continue;
    std::ostringstream item;
    append_event(item, e);
    if (error != nullptr) {
      *error = "faults: server " + std::to_string(highest) +
               " out of range in '" + item.str() + "'; expected ids below " +
               std::to_string(servers) + ", the servers per shard";
    }
    return false;
  }
  return true;
}

std::string FaultPlan::to_spec() const {
  using common::format_number;
  std::ostringstream out;
  out << "seed=" << seed_
      << ";hb=" << format_number(params_.heartbeat_period.value)
      << ";miss=" << params_.failover_after_missed;
  if (params_.max_retries.has_value()) {
    out << ";retries=" << *params_.max_retries;
  }
  if (params_.retry_backoff_base.has_value()) {
    out << ";backoff=" << format_number(params_.retry_backoff_base->value);
  }
  if (params_.retry_backoff_cap.has_value()) {
    out << ";cap=" << format_number(params_.retry_backoff_cap->value);
  }
  for (const auto& e : events_) {
    out << ';';
    append_event(out, e);
  }
  return out.str();
}

}  // namespace eclb::fault

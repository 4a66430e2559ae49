#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/table.hpp"

namespace rupam {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kSlowdown: return "slow";
    case FaultKind::kHeartbeatDrop: return "hbdrop";
    case FaultKind::kDiskDegrade: return "degrade";
    case FaultKind::kSpotRevoke: return "spot";
  }
  return "?";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
    if (to_string(static_cast<FaultKind>(i)) == name) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << to_string(kind) << " node=" << node;
  switch (kind) {
    case FaultKind::kCrash:
      if (duration > 0.0) os << " down=" << format_fixed(duration, 3);
      break;
    case FaultKind::kRecover:
      break;
    case FaultKind::kSlowdown:
      os << " res=" << to_string(resource) << " factor=" << format_fixed(factor, 3);
      if (duration > 0.0) os << " for=" << format_fixed(duration, 3);
      break;
    case FaultKind::kHeartbeatDrop:
      if (duration > 0.0) os << " for=" << format_fixed(duration, 3);
      break;
    case FaultKind::kDiskDegrade:
      os << " factor=" << format_fixed(factor, 3);
      break;
    case FaultKind::kSpotRevoke:
      os << " notice=" << format_fixed(duration, 3);
      break;
  }
  return os.str();
}

void FaultPlan::validate(std::size_t num_nodes) const {
  for (const auto& e : events) {
    // NaN passes every range check below and breaks sort()'s ordering.
    if (!std::isfinite(e.time) || !std::isfinite(e.duration) || !std::isfinite(e.factor)) {
      throw std::invalid_argument("FaultPlan: time, duration and factor must be finite");
    }
    if (e.time < 0.0) throw std::invalid_argument("FaultPlan: negative event time");
    if (e.duration < 0.0) throw std::invalid_argument("FaultPlan: negative duration");
    if (e.node < 0 || static_cast<std::size_t>(e.node) >= num_nodes) {
      throw std::invalid_argument("FaultPlan: node " + std::to_string(e.node) +
                                  " out of range for " + std::to_string(num_nodes) +
                                  "-node cluster");
    }
    if (e.kind == FaultKind::kSlowdown || e.kind == FaultKind::kDiskDegrade) {
      if (e.factor <= 0.0 || e.factor > 1.0) {
        throw std::invalid_argument("FaultPlan: capacity factor must be in (0, 1]");
      }
    }
    if (e.kind == FaultKind::kSlowdown && e.resource != ResourceKind::kCpu &&
        e.resource != ResourceKind::kDisk && e.resource != ResourceKind::kNetwork) {
      throw std::invalid_argument("FaultPlan: slowdown resource must be cpu, disk, or net");
    }
  }
}

void FaultPlan::sort() {
  std::stable_sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.node != b.node) return a.node < b.node;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
}

namespace {

std::vector<std::string> split(const std::string& in, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : in) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

template <typename T>
T read_number(const std::string& token, const std::string& what) {
  std::optional<T> v = parse_number<T>(token);
  if (!v) throw std::invalid_argument("fault spec: bad " + what + " '" + token + "'");
  return *v;
}

}  // namespace

FaultPlan parse_fault_spec(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& item : split(spec, ';')) {
    if (item.empty()) continue;
    auto at = item.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("fault spec: missing '@time' in '" + item + "'");
    }
    FaultEvent e;
    std::string kind = item.substr(0, at);
    std::optional<FaultKind> parsed = fault_kind_from_name(kind);
    if (!parsed) throw std::invalid_argument("fault spec: unknown kind '" + kind + "'");
    e.kind = *parsed;
    auto fields = split(item.substr(at + 1), ':');
    e.time = read_number<double>(fields[0], "time");
    bool has_node = false;
    for (std::size_t i = 1; i < fields.size(); ++i) {
      auto eq = fields[i].find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("fault spec: expected key=value, got '" + fields[i] + "'");
      }
      std::string key = fields[i].substr(0, eq);
      std::string value = fields[i].substr(eq + 1);
      if (key == "node") {
        e.node = read_number<NodeId>(value, "node");
        has_node = true;
      } else if (key == "down" || key == "for" || key == "notice") {
        e.duration = read_number<double>(value, "duration");
      } else if (key == "factor") {
        e.factor = read_number<double>(value, "factor");
      } else if (key == "res") {
        if (value == "cpu") {
          e.resource = ResourceKind::kCpu;
        } else if (value == "disk") {
          e.resource = ResourceKind::kDisk;
        } else if (value == "net") {
          e.resource = ResourceKind::kNetwork;
        } else {
          throw std::invalid_argument("fault spec: res must be cpu, disk, or net (got '" +
                                      value + "')");
        }
      } else {
        throw std::invalid_argument("fault spec: unknown key '" + key + "'");
      }
    }
    if (!has_node) {
      throw std::invalid_argument("fault spec: '" + item + "' needs node=N");
    }
    plan.events.push_back(e);
  }
  plan.sort();
  return plan;
}

FaultPlan make_chaos_plan(std::uint64_t seed, std::size_t num_nodes, SimTime horizon) {
  if (num_nodes == 0) throw std::invalid_argument("make_chaos_plan: empty cluster");
  FaultPlan plan;
  Rng rng(seed, /*stream=*/0x9e3779b97f4a7c15ULL);

  // Crashes: at most half the cluster (rounded down, min 1 when the
  // cluster has more than one node), each on a distinct node with a
  // bounded downtime so capacity always returns.
  std::size_t max_crashes = num_nodes >= 2 ? num_nodes / 2 : 0;
  std::size_t n_crashes = max_crashes > 0 ? 1 + rng.uniform_index(max_crashes) : 0;
  std::set<NodeId> crashed;
  for (std::size_t i = 0; i < n_crashes; ++i) {
    NodeId node = static_cast<NodeId>(rng.uniform_index(num_nodes));
    if (!crashed.insert(node).second) continue;  // distinct nodes only
    FaultEvent e;
    e.kind = FaultKind::kCrash;
    e.node = node;
    e.time = rng.uniform(5.0, horizon * 0.6);
    e.duration = rng.uniform(20.0, 60.0);
    plan.events.push_back(e);
  }

  // Slowdowns: 1–3 transient throttles of cpu/disk/net.
  std::size_t n_slow = 1 + rng.uniform_index(3);
  constexpr ResourceKind kThrottlable[] = {ResourceKind::kCpu, ResourceKind::kDisk,
                                           ResourceKind::kNetwork};
  for (std::size_t i = 0; i < n_slow; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kSlowdown;
    e.node = static_cast<NodeId>(rng.uniform_index(num_nodes));
    e.time = rng.uniform(5.0, horizon * 0.7);
    e.duration = rng.uniform(15.0, 60.0);
    e.factor = rng.uniform(0.2, 0.7);
    e.resource = kThrottlable[rng.uniform_index(3)];
    plan.events.push_back(e);
  }

  // Heartbeat drops: 0–2 windows long enough to trip liveness (> 3
  // missed beats at the default 1 s period) but always clearing.
  std::size_t n_drops = rng.uniform_index(3);
  for (std::size_t i = 0; i < n_drops; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kHeartbeatDrop;
    e.node = static_cast<NodeId>(rng.uniform_index(num_nodes));
    e.time = rng.uniform(5.0, horizon * 0.7);
    e.duration = rng.uniform(2.0, 10.0);
    plan.events.push_back(e);
  }

  // Disk degradation: at most one failing spindle, never below 40%.
  if (rng.uniform_index(2) == 1) {
    FaultEvent e;
    e.kind = FaultKind::kDiskDegrade;
    e.node = static_cast<NodeId>(rng.uniform_index(num_nodes));
    e.time = rng.uniform(5.0, horizon * 0.5);
    e.factor = rng.uniform(0.4, 0.8);
    plan.events.push_back(e);
  }

  plan.sort();
  plan.validate(num_nodes);
  return plan;
}

}  // namespace rupam

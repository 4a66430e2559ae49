#include "obs/audit.hpp"

#include "common/json_writer.hpp"
#include "common/table.hpp"

namespace rupam {
namespace {

std::string join_nodes(const std::vector<NodeId>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(nodes[i]);
  }
  return out;
}

}  // namespace

void DecisionAudit::note_pool(PoolId id, std::string_view name) {
  if (!id.valid()) return;
  if (pool_names_.size() <= id.index()) pool_names_.resize(id.index() + 1);
  pool_names_[id.index()] = name;
}

const std::string& DecisionAudit::pool_name(PoolId id) const {
  static const std::string kUnknown;
  if (!id.valid() || id.index() >= pool_names_.size()) return kUnknown;
  return pool_names_[id.index()];
}

void DecisionAudit::write_csv(std::ostream& os) const {
  CsvWriter csv(os);
  csv.write_row({"time", "scheduler", "stage", "task", "attempt", "node", "locality", "pool",
                 "speculative", "queue", "reason", "candidates_considered", "candidate_nodes",
                 "detail"});
  for (const auto& d : decisions_) {
    csv.write_row({format_fixed(d.time, 6), d.scheduler, std::to_string(d.stage),
                   std::to_string(d.task), std::to_string(d.attempt), std::to_string(d.node),
                   std::string(to_string(d.locality)), pool_name(d.pool),
                   d.speculative ? "1" : "0",
                   std::string(to_string(d.queue)), d.reason,
                   std::to_string(d.candidates_considered), join_nodes(d.candidate_nodes),
                   d.detail});
  }
}

void DecisionAudit::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_array();
  for (const auto& d : decisions_) {
    w.begin_object();
    w.key("time").number(d.time, 9);
    w.key("scheduler").value(d.scheduler);
    w.key("stage").value(d.stage);
    w.key("task").value(static_cast<long long>(d.task));
    w.key("attempt").value(d.attempt);
    w.key("node").value(d.node);
    w.key("locality").value(to_string(d.locality));
    w.key("pool").value(pool_name(d.pool));
    w.key("speculative").value(d.speculative);
    w.key("queue").value(to_string(d.queue));
    w.key("reason").value(d.reason);
    w.key("candidates_considered").value(d.candidates_considered);
    w.key("candidate_nodes").begin_array();
    for (NodeId n : d.candidate_nodes) w.value(n);
    w.end_array();
    w.key("detail").value(d.detail);
    w.end_object();
  }
  w.end_array();
  os << "\n";
}

}  // namespace rupam

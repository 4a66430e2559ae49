#include "metrics/event_trace.hpp"

#include <charconv>
#include <stdexcept>
#include <type_traits>

#include "common/json_writer.hpp"
#include "common/table.hpp"

namespace rupam {

std::string_view to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kStageSubmitted: return "stage_submitted";
    case TraceEventType::kTaskLaunched: return "task_launched";
    case TraceEventType::kSpeculativeLaunched: return "speculative_launched";
    case TraceEventType::kTaskFinished: return "task_finished";
    case TraceEventType::kTaskFailed: return "task_failed";
    case TraceEventType::kTaskRelocated: return "task_relocated";
    case TraceEventType::kExecutorLost: return "executor_lost";
    case TraceEventType::kFaultInjected: return "fault_injected";
    case TraceEventType::kNodeDead: return "node_dead";
    case TraceEventType::kNodeRecovered: return "node_recovered";
    case TraceEventType::kNodeBlacklisted: return "node_blacklisted";
    case TraceEventType::kNodeUnblacklisted: return "node_unblacklisted";
    case TraceEventType::kPartitionResubmitted: return "partition_resubmitted";
    case TraceEventType::kNodeProvisioned: return "node_provisioned";
    case TraceEventType::kNodeJoined: return "node_joined";
    case TraceEventType::kNodeDraining: return "node_draining";
    case TraceEventType::kNodeDecommissioned: return "node_decommissioned";
    case TraceEventType::kTaskPreempted: return "task_preempted";
  }
  return "?";
}

void EventTrace::record(TraceEvent event) {
  if (!events_.empty() && event.time < events_.back().time) {
    throw std::invalid_argument("EventTrace: non-monotonic event time");
  }
  counts_[static_cast<std::size_t>(event.type)]++;
  events_.push_back(std::move(event));
}

std::size_t EventTrace::count(TraceEventType type) const {
  return counts_[static_cast<std::size_t>(type)];
}

void EventTrace::clear() {
  events_.clear();
  counts_.fill(0);
}

namespace {

/// A number to append() with `decimals` decimals.
struct Fixed {
  double value;
  int decimals;
};

/// Appends each piece to `out`: text as is, integers in decimal, Fixed as
/// printf's "%.*f".
template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces) {
  char buf[64];
  auto one = [&](const auto& piece) {
    using T = std::decay_t<decltype(piece)>;
    if constexpr (std::is_same_v<T, Fixed>) {
      out.append(buf, print_double(buf, piece.value, std::chars_format::fixed, piece.decimals));
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), piece).ptr);
    } else {
      out += piece;
    }
  };
  (one(pieces), ...);
}

/// Rows are rendered into one string, which goes to the stream whenever
/// it holds `at` bytes or more (a chunk between rows, 0 at the end).
void flush_rows(std::ostream& os, std::string& out, std::size_t at = kExportChunkBytes) {
  if (out.size() < at) return;
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  out.clear();
}

}  // namespace

void EventTrace::write_csv(std::ostream& os) const {
  std::string out = "time,type,stage,task,attempt,node,duration,detail\n";
  for (const auto& e : events_) {
    append(out, Fixed{e.time, 6}, ',', to_string(e.type), ',', e.stage, ',', e.task, ',',
           e.attempt, ',', e.node, ',', Fixed{e.duration, 6}, ',');
    append_csv_cell(out, e.detail);  // the only cell that can need quoting
    out += '\n';
    flush_rows(os, out);
  }
  flush_rows(os, out, 0);
}

// JSON escaping is shared with every other exporter (common/json_writer);
// the line format here stays hand-rolled to keep the compact one-event-
// per-line layout.
void EventTrace::write_chrome_tracing(std::ostream& os) const {
  std::string out = "[\n";
  bool first = true;
  for (const auto& e : events_) {
    // Launches are implied by the X events.
    if (e.type == TraceEventType::kTaskLaunched ||
        e.type == TraceEventType::kSpeculativeLaunched) {
      continue;
    }
    out += first ? "  {\"name\": \"" : ",\n  {\"name\": \"";
    first = false;
    double ts_us = e.time * 1e6;
    if (e.type == TraceEventType::kTaskFinished || e.type == TraceEventType::kTaskFailed) {
      // Completed attempt: a duration slice on the node's lane.
      append(out, "task ", e.task, '#', e.attempt, "\", \"cat\": \"", to_string(e.type),
             "\", \"ph\": \"X\", \"ts\": ", Fixed{ts_us - e.duration * 1e6, 3},
             ", \"dur\": ", Fixed{e.duration * 1e6, 3}, ", \"pid\": ", e.node,
             ", \"tid\": ", e.task % 64);
    } else {
      append(out, to_string(e.type), "\", \"ph\": \"i\", \"ts\": ", Fixed{ts_us, 3},
             ", \"pid\": ", e.node == kInvalidNode ? 0 : e.node,
             ", \"tid\": 0, \"s\": \"g\"");
    }
    out += ", \"args\": {\"detail\": \"";
    append_json_escaped(out, e.detail);
    out += "\"}}";
    flush_rows(os, out);
  }
  out += "\n]\n";
  flush_rows(os, out, 0);
}

}  // namespace rupam

#include "obs/spans.hpp"

#include <algorithm>
#include <numeric>
#include <ranges>
#include <tuple>

#include "common/json_writer.hpp"

namespace rupam {

std::string_view to_string(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kQueued: return "queued";
    case TaskPhase::kInputRead: return "input_read";
    case TaskPhase::kShuffleDiskRead: return "shuffle_disk_read";
    case TaskPhase::kShuffleNetRead: return "shuffle_net_read";
    case TaskPhase::kCompute: return "compute";
    case TaskPhase::kGc: return "gc";
    case TaskPhase::kShuffleWrite: return "shuffle_write";
    case TaskPhase::kSpill: return "spill";
    case TaskPhase::kOutputSend: return "output_send";
  }
  return "?";
}

void SpanTrace::set_stage_parents(StageId stage, std::vector<StageId> parents) {
  stage_parents_[stage] = std::move(parents);
}

std::size_t SpanTrace::count(TaskPhase phase) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [phase](const PhaseSpan& s) { return s.phase == phase; }));
}

namespace {

/// One task attempt: the envelope of its spans, the node of its first span
/// and its lane on that node. Its spans are order[first, first + count).
struct Attempt {
  StageId stage;
  TaskId task;
  AttemptId attempt;
  NodeId node;
  SimTime start;
  SimTime end;
  std::size_t first;
  std::size_t count = 0;
  int lane = 0;
};

double to_us(SimTime t) { return t * 1e6; }

/// The attempt slice's name, "S<stage>.T<task>#<attempt>".
std::string attempt_name(const Attempt& a) {
  return std::string("S").append(std::to_string(a.stage)).append(".T")
      .append(std::to_string(a.task)).append("#").append(std::to_string(a.attempt));
}

}  // namespace

void SpanTrace::write_perfetto(std::ostream& os) const {
  // One sort of the span indices by (stage, task, attempt, recording order)
  // lays the attempts out in key order, each one's spans contiguous and in
  // recording order.
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const PhaseSpan& x = spans_[a];
    const PhaseSpan& y = spans_[b];
    return std::tie(x.stage, x.task, x.attempt, a) < std::tie(y.stage, y.task, y.attempt, b);
  });
  std::vector<Attempt> attempts;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const PhaseSpan& s = spans_[order[k]];
    if (attempts.empty() || attempts.back().stage != s.stage || attempts.back().task != s.task ||
        attempts.back().attempt != s.attempt) {
      attempts.push_back({s.stage, s.task, s.attempt, s.node, s.start, s.end, k});
    }
    Attempt& a = attempts.back();
    a.start = std::min(a.start, s.start);
    a.end = std::max(a.end, s.end);
    ++a.count;
  }

  // Greedy per-node lane assignment over attempt envelopes, in (node,
  // start, key) order, so overlapping attempts on a node render side by
  // side instead of mis-nesting.
  std::vector<std::size_t> by_node(attempts.size());
  std::iota(by_node.begin(), by_node.end(), std::size_t{0});
  std::sort(by_node.begin(), by_node.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(attempts[a].node, attempts[a].start, a) <
           std::tie(attempts[b].node, attempts[b].start, b);
  });
  std::vector<SimTime> lane_free;
  for (std::size_t k = 0; k < by_node.size(); ++k) {
    Attempt& a = attempts[by_node[k]];
    if (k == 0 || attempts[by_node[k - 1]].node != a.node) lane_free.clear();
    auto lane = std::find_if(lane_free.begin(), lane_free.end(),
                             [&](SimTime free) { return free <= a.start; });
    a.lane = static_cast<int>(lane - lane_free.begin());
    if (lane == lane_free.end()) {
      lane_free.push_back(a.end);
    } else {
      *lane = a.end;
    }
  }

  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  // Process metadata: one pid per node.
  for (std::size_t k = 0; k < by_node.size(); ++k) {
    NodeId node = attempts[by_node[k]].node;
    if (k > 0 && attempts[by_node[k - 1]].node == node) continue;
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value("process_name");
    w.key("pid").value(node);
    w.key("tid").value(0);
    w.key("args").begin_object().key("name").value("node " + std::to_string(node)).end_object();
    w.end_object();
  }

  auto emit_slice = [&](const char* cat, std::string_view name, NodeId pid, int tid,
                        SimTime start, SimTime end, auto&& args_fn) {
    w.begin_object();
    w.key("ph").value("X");
    w.key("cat").value(cat);
    w.key("name").value(name);
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("ts").number(to_us(start), 12);
    w.key("dur").number(to_us(end - start), 12);
    w.key("args").begin_object();
    args_fn();
    w.end_object();
    w.end_object();
  };

  for (std::size_t i : by_node) {
    const Attempt& a = attempts[i];
    emit_slice("attempt", attempt_name(a), a.node, a.lane, a.start, a.end, [&] {
      w.key("stage").value(a.stage);
      w.key("task").value(static_cast<long long>(a.task));
      w.key("attempt").value(a.attempt);
    });
    for (std::size_t k = a.first; k < a.first + a.count; ++k) {
      const PhaseSpan& s = spans_[order[k]];
      emit_slice("phase", to_string(s.phase), s.node, a.lane, s.start, s.end, [&] {
        w.key("arg").number(s.arg, 9);
        if (s.truncated) w.key("truncated").value(true);
      });
    }
  }

  // Flow arrows: parent map stage → child attempt's first shuffle read.
  // Source is the parent's latest-finishing attempt (the one the child's
  // fetch actually waited for; the first in key order on a tie); the
  // "s"/"f" pair binds to the midpoints of the source and destination
  // slices.
  long long flow_id = 0;
  auto emit_flow = [&](const char* ph, long long id, NodeId pid, int tid, SimTime ts,
                       bool enclosing) {
    w.begin_object();
    w.key("ph").value(ph);
    if (enclosing) w.key("bp").value("e");
    w.key("cat").value("shuffle");
    w.key("name").value("map_output");
    w.key("id").value(id);
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("ts").number(to_us(ts), 12);
    w.end_object();
  };
  auto stage_attempts = [&](StageId stage) {
    return std::ranges::equal_range(attempts, stage, {}, &Attempt::stage);
  };
  std::vector<const Attempt*> sources;  // per entry of the child's parents
  for (const auto& [child_stage, parents] : stage_parents_) {
    sources.clear();
    for (StageId parent : parents) {
      auto range = stage_attempts(parent);
      sources.push_back(range.empty() ? nullptr
                                      : &*std::ranges::max_element(range, {}, &Attempt::end));
    }
    for (const Attempt& a : stage_attempts(child_stage)) {
      // First shuffle-read span of this attempt.
      const PhaseSpan* target = nullptr;
      for (std::size_t k = a.first; k < a.first + a.count && target == nullptr; ++k) {
        const PhaseSpan& s = spans_[order[k]];
        if (s.phase == TaskPhase::kShuffleDiskRead || s.phase == TaskPhase::kShuffleNetRead) {
          target = &s;
        }
      }
      if (target == nullptr) continue;
      for (const Attempt* src : sources) {
        if (src == nullptr) continue;
        long long id = flow_id++;
        emit_flow("s", id, src->node, src->lane, 0.5 * (src->start + src->end), false);
        emit_flow("f", id, a.node, a.lane, 0.5 * (target->start + target->end), true);
      }
    }
  }

  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace rupam

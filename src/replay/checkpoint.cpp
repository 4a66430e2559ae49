#include "replay/checkpoint.hpp"

#include <sstream>
#include <stdexcept>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"

namespace rupam {

namespace {

constexpr const char* kFormatTag = "rupam-checkpoint-v1";

constexpr JsonFieldReader kCheckpoint("checkpoint: ");

DecisionPin parse_pin(const JsonValue& v, std::size_t index) {
  const std::string what = "pins[" + std::to_string(index) + "]";
  if (!v.is_array() || v.as_array().size() != 4) {
    kCheckpoint.fail(what + " must be a [stage, task, attempt, node] array");
  }
  const JsonValue::Array& a = v.as_array();
  DecisionPin pin;
  pin.stage = kCheckpoint.integer<StageId>(a[0], what + " stage");
  pin.task = kCheckpoint.integer<long long>(a[1], what + " task");
  pin.attempt = kCheckpoint.integer<AttemptId>(a[2], what + " attempt");
  pin.node = kCheckpoint.integer<NodeId>(a[3], what + " node");
  return pin;
}

}  // namespace

std::vector<DecisionPin> pin_prefix(const DecisionAudit& audit, SimTime t) {
  std::vector<DecisionPin> pins;
  pins.reserve(audit.size());
  for (const DispatchDecision& d : audit.decisions()) {
    if (d.time > t) break;  // decisions are recorded in launch order
    pins.push_back({d.stage, d.task, d.attempt, d.node});
  }
  return pins;
}

std::string checkpoint_to_json(const Checkpoint& cp) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("format").value(kFormatTag);
  w.key("time").number(cp.time, 12);
  w.key("run");
  write_run_spec_json(cp.run, w);
  w.key("pins").begin_array();
  for (const DecisionPin& pin : cp.pins) {
    w.begin_array();
    w.value(static_cast<long long>(pin.stage));
    w.value(static_cast<long long>(pin.task));
    w.value(static_cast<long long>(pin.attempt));
    w.value(static_cast<long long>(pin.node));
    w.end_array();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

Checkpoint parse_checkpoint_json(const std::string& text) {
  JsonValue doc = kCheckpoint.parse(text);
  Checkpoint cp;
  bool have_format = false, have_run = false, have_time = false;
  for (const auto& [key, value] : kCheckpoint.object(doc, "top level")) {
    if (key == "format") {
      if (!value.is_string() || value.as_string() != kFormatTag) {
        kCheckpoint.fail("format must be \"" + std::string(kFormatTag) + "\"");
      }
      have_format = true;
    } else if (key == "time") {
      cp.time = kCheckpoint.number(value, "time");
      if (cp.time < 0.0) kCheckpoint.fail("time must be >= 0");
      have_time = true;
    } else if (key == "run") {
      cp.run = kCheckpoint.nested("run: ", [&] { return parse_run_spec_value(value); });
      have_run = true;
    } else if (key == "pins") {
      const JsonValue::Array& pins = kCheckpoint.array(value, "pins");
      cp.pins.reserve(pins.size());
      for (std::size_t i = 0; i < pins.size(); ++i) cp.pins.push_back(parse_pin(pins[i], i));
    } else {
      kCheckpoint.fail("unknown key '" + key + "'");
    }
  }
  if (!have_format) kCheckpoint.fail("missing \"format\"");
  if (!have_time) kCheckpoint.fail("missing \"time\"");
  if (!have_run) kCheckpoint.fail("missing \"run\"");
  return cp;
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::optional<std::string> text = read_text_file(path);
  if (!text) throw std::runtime_error("cannot read checkpoint '" + path + "'");
  try {
    return parse_checkpoint_json(*text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

ReplayRun start_replay_run(const RunSpec& spec, const SimulationConfig& base) {
  if (spec.arrivals > 0.0) {
    kCheckpoint.fail("multi-tenant runs (arrivals > 0) cannot be checkpointed or branched");
  }
  SimulationConfig cfg = make_simulation_config(spec);
  // Observability is output routing, inert to the event sequence — copy
  // whatever the caller wants, then force the audit on: the decision log
  // IS the replay layer's state.
  cfg.enable_trace = base.enable_trace;
  cfg.enable_metrics = base.enable_metrics;
  cfg.enable_spans = base.enable_spans;
  cfg.enable_analysis = base.enable_analysis;
  cfg.enable_audit = true;
  ReplayRun run;
  run.sim = std::make_unique<Simulation>(cfg);
  run.app = std::make_unique<Application>(make_run_application(spec, *run.sim));
  run.sim->begin(*run.app);
  return run;
}

Checkpoint capture_checkpoint(const RunSpec& spec, SimTime t, ReplayRun* keep_run) {
  Checkpoint cp;
  cp.run = spec;
  // Resolve a fleet path into the embedded spec so the checkpoint stays
  // restorable when the referenced file moves or changes.
  if (!cp.run.fleet.empty()) {
    cp.run.fleet_spec = load_fleet_file(cp.run.fleet);
    cp.run.fleet.clear();
  }
  cp.time = t;
  ReplayRun run = start_replay_run(cp.run);
  run.sim->advance_until(t);
  cp.pins = pin_prefix(*run.sim->audit(), t);
  if (keep_run != nullptr) *keep_run = std::move(run);
  return cp;
}

ReplayRun restore_checkpoint(const Checkpoint& cp, const SimulationConfig& base) {
  ReplayRun run = start_replay_run(cp.run, base);
  run.sim->advance_until(cp.time);
  std::vector<DecisionPin> got = pin_prefix(*run.sim->audit(), cp.time);
  if (got.size() != cp.pins.size()) {
    kCheckpoint.fail("restore diverged: replay made " + std::to_string(got.size()) +
                     " decisions by t=" + std::to_string(cp.time) + ", checkpoint pinned " +
                     std::to_string(cp.pins.size()) +
                     " — the binary no longer reproduces this run");
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == cp.pins[i])) {
      kCheckpoint.fail("restore diverged at decision " + std::to_string(i) +
                       ": replay launched (stage " + std::to_string(got[i].stage) + ", task " +
                       std::to_string(got[i].task) + ", attempt " +
                       std::to_string(got[i].attempt) + ") on node " +
                       std::to_string(got[i].node) + ", checkpoint pinned node " +
                       std::to_string(cp.pins[i].node));
    }
  }
  return run;
}

}  // namespace rupam

// Byte pins for every export format. Each export of two runs is reduced to
// a 64-bit FNV-1a digest: any byte that moves in any writer (JSON
// punctuation, number formatting, escaping, CSV quoting, Perfetto lane and
// flow order) fails here. The trace and metrics goldens pin only a few
// formats; these pins cover the rest.
//
// Runs: SQL under Spark on the Fig 3 slow/fast pair at seed 7, and PageRank
// under RUPAM on Hydra with chaos seed 3, whose faults truncate spans and
// put fault details into the trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "app/run_spec.hpp"
#include "app/simulation.hpp"
#include "metrics/event_trace.hpp"
#include "obs/analyzer.hpp"
#include "obs/audit.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/spans.hpp"
#include "replay/checkpoint.hpp"

namespace rupam {
namespace {

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

template <class Write>
std::string render(Write&& write) {
  std::ostringstream os;
  write(os);
  return os.str();
}

struct Export {
  std::string name;
  std::string bytes;
};

/// Every export of `spec`'s run with all sinks on, in a fixed order.
std::vector<Export> all_exports(const RunSpec& spec) {
  SimulationConfig cfg = make_simulation_config(spec);
  cfg.enable_trace = true;
  cfg.enable_metrics = true;
  cfg.enable_audit = true;
  cfg.enable_spans = true;
  cfg.enable_analysis = true;
  Simulation sim(cfg);
  Application app = make_run_application(spec, sim);
  const SimTime makespan = sim.run(app);
  return {
      {"perfetto", render([&](std::ostream& os) { sim.spans()->write_perfetto(os); })},
      {"chrome", render([&](std::ostream& os) { sim.trace()->write_chrome_tracing(os); })},
      {"trace_csv", render([&](std::ostream& os) { sim.trace()->write_csv(os); })},
      {"audit_json", render([&](std::ostream& os) { sim.audit()->write_json(os); })},
      {"audit_csv", render([&](std::ostream& os) { sim.audit()->write_csv(os); })},
      {"metrics_json", render([&](std::ostream& os) { sim.metrics()->write_json(os); })},
      {"metrics_prom", render([&](std::ostream& os) { sim.metrics()->write_prometheus(os); })},
      {"diagnosis", render([&](std::ostream& os) {
         write_diagnosis_json(analyze_run(sim.run_artifacts()), os);
       })},
      {"checkpoint", checkpoint_to_json(capture_checkpoint(spec, makespan / 2.0))},
  };
}

RunSpec sql_on_fig3_pair() {
  RunSpec spec;
  spec.workload = "SQL";
  spec.workload_explicit = true;
  spec.scheduler = SchedulerKind::kSpark;
  spec.fleet_spec = load_fleet_file(RUPAM_TEST_DATA_DIR "/../examples/motivation_fleet.json");
  spec.seed = 7;
  return spec;
}

RunSpec pagerank_under_chaos() {
  RunSpec spec;
  spec.workload = "PR";
  spec.workload_explicit = true;
  spec.scheduler = SchedulerKind::kRupam;
  spec.chaos_seed = 3;
  return spec;
}

struct Pin {
  std::string name;
  std::string digest;
};

/// Checks each export's digest against its pin and returns the exports.
std::vector<Export> expect_digests(const RunSpec& spec, const std::vector<Pin>& pinned) {
  std::vector<Export> exports = all_exports(spec);
  EXPECT_EQ(exports.size(), pinned.size());
  for (std::size_t i = 0; i < exports.size() && i < pinned.size(); ++i) {
    EXPECT_EQ(exports[i].name, pinned[i].name);
    EXPECT_FALSE(exports[i].bytes.empty()) << exports[i].name;
    EXPECT_EQ(fnv1a(exports[i].bytes), pinned[i].digest)
        << exports[i].name << " (" << exports[i].bytes.size() << " bytes)";
  }
  return exports;
}

TEST(Exports, BytesMatchPinnedDigests) {
  expect_digests(sql_on_fig3_pair(), {
                                         {"perfetto", "a98b5fda128431d3"},
                                         {"chrome", "15ccb5e42039c86b"},
                                         {"trace_csv", "6c949ecd844413bf"},
                                         {"audit_json", "bf86976daa3ce0ff"},
                                         {"audit_csv", "7726a73745242948"},
                                         {"metrics_json", "632fd2b7b53ee4b8"},
                                         {"metrics_prom", "ba346952568586c4"},
                                         {"diagnosis", "dfe544d4994cd72c"},
                                         {"checkpoint", "601469e566b23114"},
                                     });
  std::vector<Export> chaos = expect_digests(pagerank_under_chaos(), {
                                                 {"perfetto", "7c6e9ce756562a0e"},
                                                 {"chrome", "67a9f6a1e60949ef"},
                                                 {"trace_csv", "d2b66ff5c3dba608"},
                                                 {"audit_json", "00180f79ceab9457"},
                                                 {"audit_csv", "54ab2212f9edfb61"},
                                                 {"metrics_json", "ea7d4c9ee3d53f1f"},
                                                 {"metrics_prom", "2de15cf7ee129f97"},
                                                 {"diagnosis", "108310d7b637aa50"},
                                                 {"checkpoint", "a834e72b4a1529ab"},
                                             });
  // The chaos run reaches the writers' rarer paths: truncated spans and
  // fault details.
  ASSERT_EQ(chaos.size(), 9u);
  EXPECT_NE(chaos[0].bytes.find("\"truncated\": true"), std::string::npos);
  EXPECT_NE(chaos[2].bytes.find(",fault_injected,"), std::string::npos);
}

}  // namespace
}  // namespace rupam

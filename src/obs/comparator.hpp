// Cross-run regression detection — diff two machine-readable run reports
// (flat BENCH_*.json objects or sweep matrix JSONs) metric by metric, with
// CI-aware significance: a delta only counts as improved/regressed when it
// clears both the combined 95% confidence half-widths and 2% of its
// magnitude, everything else is within-noise (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rupam {

class JsonValue;
class JsonWriter;

enum class Verdict : std::uint8_t {
  kImproved = 0,
  kRegressed,
  kWithinNoise,
};

std::string_view to_string(Verdict verdict);

/// One metric present in both documents.
struct MetricDelta {
  std::string key;  // bench key, or "cell[...].metric" for matrices
  double base = 0.0;
  double base_ci = 0.0;  // 95% CI half-width (0 for single-value reports)
  double test = 0.0;
  double test_ci = 0.0;
  double delta = 0.0;      // test - base
  double delta_pct = 0.0;  // delta / |base| * 100 (0 when base == 0)
  bool lower_is_better = true;
  Verdict verdict = Verdict::kWithinNoise;
};

struct ComparisonReport {
  std::vector<MetricDelta> deltas;
  std::vector<std::string> only_in_base;  // metrics the test run dropped
  std::vector<std::string> only_in_test;  // metrics the test run added
  std::size_t improved = 0;
  std::size_t regressed = 0;
  std::size_t within_noise = 0;

  bool has_regressions() const { return regressed > 0; }
};

/// Whether a metric key is compared at all, and in which direction. Keys
/// carrying identity rather than performance (seeds, replication counts)
/// are skipped; direction comes from a substring heuristic (documented in
/// DESIGN.md §13) defaulting to lower-is-better.
bool metric_is_comparable(std::string_view key);
bool metric_lower_is_better(std::string_view key);

/// Diff two parsed documents. Formats are auto-detected per document: an
/// object with a "cells" array is a sweep matrix (cells matched by their
/// five grid coordinates, aggregate means compared with their CIs); any
/// other object is a flat metric→number report (BENCH_*.json). Throws
/// std::invalid_argument when a document is neither.
ComparisonReport compare_runs(const JsonValue& base, const JsonValue& test);

/// Parse both texts (throws JsonParseError on malformed input) and diff.
ComparisonReport compare_json_text(const std::string& base_text, const std::string& test_text);

/// Machine-readable comparison document (schema in DESIGN.md §13).
void write_comparison_json(const ComparisonReport& report, std::ostream& os);
/// The same object, written into an in-progress writer.
void write_comparison_json(const ComparisonReport& report, JsonWriter& w);

/// Human-readable verdict table via common/table.
void print_comparison(const ComparisonReport& report, std::ostream& os);

}  // namespace rupam

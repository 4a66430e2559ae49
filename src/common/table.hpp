// ASCII table and CSV renderers used by the benchmark harnesses to print
// paper-style tables and figure data series.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rupam {

/// Column-aligned plain-text table. Cells are strings; callers format
/// numbers with format_number()/format_fixed() helpers below.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Render with a header rule and column padding.
  void print(std::ostream& os) const;
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Append one CSV cell to `out`: as is, or in double quotes (inner quotes
/// doubled) when it holds a comma, quote, CR or LF.
void append_csv_cell(std::string& out, std::string_view cell);

/// Write rows as CSV (comma-separated, minimal quoting).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}
  void write_row(const std::vector<std::string>& cells);

 private:
  std::ostream& os_;
};

/// Fixed-point formatting, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);
/// Human-friendly: trims trailing zeros, e.g. "2.5", "37.7", "1200".
std::string format_number(double value);

}  // namespace rupam

#include "common/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/json_writer.hpp"

namespace rupam {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row width does not match header");
  }
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

void append_csv_cell(std::string& out, std::string_view cell) {
  if (cell.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += ',';
    append_csv_cell(line, cells[i]);
  }
  line += '\n';
  os_ << line;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  return std::string(buf, print_double(buf, value, std::chars_format::fixed, decimals));
}

std::string format_number(double value) {
  std::string s = format_fixed(value, 2);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

}  // namespace rupam

#include "common/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace rupam {

namespace {

/// The longest escape sequence, "\u00XX".
constexpr std::size_t kMaxEscape = 6;
/// Indentation is copied from here in one fixed-size copy.
constexpr std::string_view kSpaces = "                                ";

/// The one escaping routine: writes `in` escaped at `out`, which has room
/// for kMaxEscape bytes per input byte, and returns the end.
char* escape_into(char* out, std::string_view in) {
  for (char ch : in) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c != '"' && c != '\\') {
      *out++ = ch;
      continue;
    }
    *out++ = '\\';
    switch (c) {
      case '\n': *out++ = 'n'; break;
      case '\r': *out++ = 'r'; break;
      case '\t': *out++ = 't'; break;
      case '\b': *out++ = 'b'; break;
      case '\f': *out++ = 'f'; break;
      case '"':
      case '\\': *out++ = ch; break;
      default:
        out = std::copy_n("u00", 3, out);
        *out++ = "0123456789abcdef"[c >> 4];
        *out++ = "0123456789abcdef"[c & 0xf];
    }
  }
  return out;
}

char* quote_into(char* out, std::string_view in) {
  *out++ = '"';
  out = escape_into(out, in);
  *out++ = '"';
  return out;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view in) {
  const std::size_t at = out.size();
  out.resize(at + kMaxEscape * in.size());
  out.resize(static_cast<std::size_t>(escape_into(out.data() + at, in) - out.data()));
}

std::string json_escape(std::string_view in) {
  std::string out;
  append_json_escaped(out, in);
  return out;
}

std::string json_quote(std::string_view in) {
  std::string out = "\"";
  append_json_escaped(out, in);
  out += '"';
  return out;
}

std::size_t print_double(char* out, double value, std::chars_format format, int precision) {
  // snprintf keeps at most 63 characters and the terminator.
  auto [end, ec] = std::to_chars(out, out + 63, value, format, precision);
  if (ec == std::errc()) return static_cast<std::size_t>(end - out);
  int n = std::snprintf(out, 64, format == std::chars_format::fixed ? "%.*f" : "%.*g", precision,
                        value);
  return std::min<std::size_t>(static_cast<std::size_t>(n), 63);
}

std::string json_number(double value, int precision) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  return std::string(buf, print_double(buf, value, std::chars_format::general, precision));
}

JsonWriter::JsonWriter(std::ostream& os, bool pretty)
    : os_(os), buf_(new char[kExportChunkBytes]), capacity_(kExportChunkBytes), pretty_(pretty) {}

JsonWriter::~JsonWriter() {
  try {
    flush();
  } catch (...) {  // ostream::write has already set the stream's badbit
  }
}

char* JsonWriter::make_room(std::size_t n) {
  flush();
  if (n > capacity_) buf_.reset(new char[capacity_ = n]);  // a token larger than the buffer
  return buf_.get();
}

void JsonWriter::flush() {
  os_.write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

/// Room a separator needs: comma, newline and indent (copied as a whole
/// kSpaces run when it is that short).
std::size_t JsonWriter::separator_bytes() const {
  return pretty_ ? 2 + std::max(kSpaces.size(), 2 * stack_.size()) : 1;
}

char* JsonWriter::newline_indent(char* out) {
  if (!pretty_) return out;
  *out++ = '\n';
  const std::size_t indent = 2 * stack_.size();
  if (indent > kSpaces.size()) return std::fill_n(out, indent, ' ');
  std::memcpy(out, kSpaces.data(), kSpaces.size());  // one fixed-size copy
  return out + indent;
}

/// The comma before every item but a container's first, then a newline
/// and the indent.
char* JsonWriter::next_item(char* out) {
  Frame& top = stack_.back();
  if (!top.first) *out++ = ',';
  top.first = false;
  return newline_indent(out);
}

/// Checks that a value may come next, writes its separator and returns
/// where the value goes, with room for `n` bytes.
char* JsonWriter::begin_value(std::size_t n) {
  if (key_pending_) {
    key_pending_ = false;
    return room(n);  // the key already wrote the separator
  }
  if (stack_.empty()) {
    if (started_) throw std::logic_error("JsonWriter: multiple top-level values");
    started_ = true;
    return room(n);
  }
  if (!stack_.back().array) {
    throw std::logic_error("JsonWriter: value inside an object requires key()");
  }
  return next_item(room(separator_bytes() + n));
}

/// Commits the buffer up to `end`; a finished top-level value goes to the
/// stream.
JsonWriter& JsonWriter::end_value(char* end) {
  len_ = static_cast<std::size_t>(end - buf_.get());
  if (stack_.empty()) flush();
  return *this;
}

JsonWriter& JsonWriter::open(char bracket, bool array) {
  char* out = begin_value(1);
  *out++ = bracket;
  len_ = static_cast<std::size_t>(out - buf_.get());
  stack_.push_back(Frame{array, /*first=*/true});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket, bool array) {
  if (stack_.empty() || stack_.back().array != array || key_pending_) {
    throw std::logic_error(array ? "JsonWriter: mismatched end_array"
                                 : "JsonWriter: mismatched end_object");
  }
  bool empty = stack_.back().first;
  stack_.pop_back();
  char* out = room(separator_bytes() + 1);
  if (!empty) out = newline_indent(out);
  *out++ = bracket;
  return end_value(out);
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back().array || key_pending_) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  char* out = quote_into(next_item(room(separator_bytes() + 4 + kMaxEscape * name.size())), name);
  *out++ = ':';
  if (pretty_) *out++ = ' ';
  len_ = static_cast<std::size_t>(out - buf_.get());
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  return end_value(quote_into(begin_value(2 + kMaxEscape * v.size()), v));
}

JsonWriter& JsonWriter::number(double v, int precision) {
  if (!std::isfinite(v)) return raw("0");
  char* out = begin_value(64);
  return end_value(out + print_double(out, v, std::chars_format::general, precision));
}

JsonWriter& JsonWriter::raw(std::string_view rendered) {
  char* out = begin_value(rendered.size());
  return end_value(std::copy(rendered.begin(), rendered.end(), out));
}

}  // namespace rupam

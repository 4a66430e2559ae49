// Minimal streaming JSON writer shared by every exporter that emits JSON
// by hand (chrome-tracing traces, BENCH_*.json sidecars, the metrics and
// scheduler-audit expositions). One escaping routine, one comma/indent
// state machine — so the emitters cannot drift apart on escaping rules.
#pragma once

#include <charconv>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rupam {

/// Exports hand their text to the stream in pieces of about this size.
inline constexpr std::size_t kExportChunkBytes = 64 * 1024;

/// Escape a string for inclusion inside a JSON string literal (no quotes
/// added): ", \, and all control characters below 0x20.
std::string json_escape(std::string_view in);

/// `json_escape(in)` appended to `out`.
void append_json_escaped(std::string& out, std::string_view in);

/// `json_escape` wrapped in double quotes.
std::string json_quote(std::string_view in);

/// Render a double as a JSON number. Non-finite values (which JSON cannot
/// represent) become 0.
std::string json_number(double value, int precision = 6);

/// Write at `out` (room for 64 bytes) the bytes snprintf(out, 64, "%.*g" or
/// "%.*f", precision, value) writes, and return their count. std::to_chars
/// prints them; snprintf only reproduces its truncation past 63 bytes.
std::size_t print_double(char* out, double value, std::chars_format format, int precision);

/// Streaming writer with automatic commas and 2-space indentation:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("count").value(3);
///   w.key("items").begin_array().value("a").value("b").end_array();
///   w.end_object();
///
/// It renders into a 64 KiB buffer it owns, handed to the stream when full,
/// when the top-level value closes and on destruction (an abandoned
/// document keeps what was written): the caller writes to the stream again
/// only after the top-level value closes.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, bool pretty = true);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() { return open('{', /*array=*/false); }
  JsonWriter& end_object() { return close('}', /*array=*/false); }
  JsonWriter& begin_array() { return open('[', /*array=*/true); }
  JsonWriter& end_array() { return close(']', /*array=*/true); }

  /// Emit an object key; must be followed by exactly one value or
  /// container. Throws std::logic_error outside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v) { return number(v, 6); }
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(long long v) { return integer(v); }
  JsonWriter& value(unsigned long long v) { return integer(v); }
  JsonWriter& value(bool v) { return raw(v ? "true" : "false"); }
  /// `json_number(v, precision)`.
  JsonWriter& number(double v, int precision);

  /// All containers closed.
  bool complete() const { return stack_.empty() && started_; }

 private:
  struct Frame {
    bool array = false;
    bool first = true;
  };

  /// Room for `n` more bytes at buf_ + len_ (make_room flushes, or grows
  /// the buffer for a token larger than all of it).
  char* room(std::size_t n) { return n <= capacity_ - len_ ? buf_.get() + len_ : make_room(n); }
  char* make_room(std::size_t n);
  char* begin_value(std::size_t n);
  JsonWriter& end_value(char* end);
  char* next_item(char* out);
  char* newline_indent(char* out);
  std::size_t separator_bytes() const;
  template <typename Int>
  JsonWriter& integer(Int v) {
    char* out = begin_value(24);
    return end_value(std::to_chars(out, out + 24, v).ptr);
  }
  /// A value token rendered by the caller (`true`, `false`, `0`). Nested
  /// documents are written through the same writer, never pasted in.
  JsonWriter& raw(std::string_view rendered);
  JsonWriter& open(char bracket, bool array);
  JsonWriter& close(char bracket, bool array);
  void flush();

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
  std::size_t capacity_ = 0;
  bool pretty_;
  bool started_ = false;
  bool key_pending_ = false;
  std::vector<Frame> stack_;
};

}  // namespace rupam

#include "common/json_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/rng.hpp"

namespace rupam {

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("JSON value is not a number");
  return number_;
}

const std::string& JsonValue::number_text() const {
  if (type_ != Type::kNumber) throw std::runtime_error("JSON value is not a number");
  return string_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("JSON value is not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("JSON value is not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) throw std::runtime_error("JSON value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n, std::string text) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  v.string_ = std::move(text);
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(Array a) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(a);
  return v;
}

JsonValue JsonValue::make_object(Object o) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(o);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                         message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("malformed literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("malformed literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("malformed literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object fields;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(fields));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      if (fields.count(key) > 0) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':');
      fields.emplace(std::move(key), parse_value());
      skip_whitespace();
      char c = peek();
      ++pos_;
      if (c == '}') return JsonValue::make_object(std::move(fields));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      char c = peek();
      ++pos_;
      if (c == ']') return JsonValue::make_array(std::move(items));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("malformed \\u escape");
          }
          // Config files are ASCII in practice; encode BMP code points as
          // UTF-8 and reject surrogates rather than pairing them.
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape unsupported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      fail("malformed number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    std::size_t integer_end = pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("malformed number fraction");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("malformed number exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    // Only integer literals keep their text: the readers that need it take
    // integers, and fractions (most numbers) then cost no string.
    double value = std::strtod(text_.c_str() + start, nullptr);
    if (!std::isfinite(value)) {
      // 1e999 reads as inf; a run horizon or rate of inf never ends.
      pos_ = start;
      fail("number out of range");
    }
    if (pos_ != integer_end) return JsonValue::make_number(value);
    return JsonValue::make_number(value, text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

std::optional<std::uint64_t> json_seed(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  return parse_seed(v.number_text());
}

template <typename T>
std::optional<T> json_integer(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  double d = v.as_number();
  // T holds [min, 2^digits); both ends are exact doubles, so this check is
  // exact where comparing against max() would round up and let 2^63 in.
  if (d != std::floor(d) || d < static_cast<double>(std::numeric_limits<T>::min()) ||
      d >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    return std::nullopt;
  }
  return static_cast<T>(d);
}

template std::optional<int> json_integer<int>(const JsonValue&);
template std::optional<long long> json_integer<long long>(const JsonValue&);
template std::optional<std::uint64_t> json_integer<std::uint64_t>(const JsonValue&);

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void JsonFieldReader::fail(const std::string& message) const {
  throw std::runtime_error(std::string(prefix_) + message);
}

JsonValue JsonFieldReader::parse(const std::string& text) const {
  return nested("", [&] { return parse_json(text); });
}

double JsonFieldReader::number(const JsonValue& v, const std::string& what) const {
  if (!v.is_number()) fail(what + " must be a number");
  return v.as_number();
}

template <typename T>
T JsonFieldReader::integer(const JsonValue& v, const std::string& what) const {
  std::optional<T> i = json_integer<T>(v);
  if (!i) fail(what + (std::is_unsigned_v<T> ? " must be an integer >= 0" : " must be an integer"));
  return *i;
}

template int JsonFieldReader::integer<int>(const JsonValue&, const std::string&) const;
template long long JsonFieldReader::integer<long long>(const JsonValue&, const std::string&) const;
template std::uint64_t JsonFieldReader::integer<std::uint64_t>(const JsonValue&,
                                                               const std::string&) const;

std::uint64_t JsonFieldReader::seed(const JsonValue& v, const std::string& what) const {
  std::optional<std::uint64_t> seed = json_seed(v);
  if (!seed) fail(what + " must be an integer in [0, 2^53]");
  return *seed;
}

const std::string& JsonFieldReader::string(const JsonValue& v, const std::string& what) const {
  if (!v.is_string()) fail(what + " must be a string");
  return v.as_string();
}

bool JsonFieldReader::boolean(const JsonValue& v, const std::string& what) const {
  if (!v.is_bool()) fail(what + " must be a bool");
  return v.as_bool();
}

const JsonValue::Array& JsonFieldReader::array(const JsonValue& v, const std::string& what) const {
  if (!v.is_array()) fail(what + " must be an array");
  return v.as_array();
}

const JsonValue::Object& JsonFieldReader::object(const JsonValue& v,
                                                 const std::string& what) const {
  if (!v.is_object()) fail(what + " must be an object");
  return v.as_object();
}

}  // namespace rupam

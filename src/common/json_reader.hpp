// Reading input from outside the program: the one file read, a minimal
// JSON parser, and the strict typed field readers every JSON input (run,
// sweep and fleet specs, checkpoints, diagnoses) goes through. The repo
// deliberately has no third-party dependencies, so this implements just
// the JSON value model: objects, arrays, strings, numbers, bool, null.
// Strict where it matters for config files — trailing garbage, duplicate
// keys and malformed literals are errors with position information.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rupam {

class JsonValue;

/// Thrown on malformed input; `what()` carries a byte offset.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Ordered map keeps error messages and round-trips deterministic.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  /// A parsed integer literal exactly as written in the document, for
  /// readers that must not round through a double (seeds). Empty when the
  /// number has a fraction or exponent, or came from make_number.
  const std::string& number_text() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup; returns nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n, std::string text = {});
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  // string value, or a number's source text
  Array array_;
  Object object_;
};

/// Parse one JSON document; throws JsonParseError on malformed input
/// (including trailing non-whitespace and duplicate object keys).
JsonValue parse_json(const std::string& text);

/// parse_seed (common/rng.hpp) over a JSON value: the seed when `v` is an
/// integer literal in [0, 2^53], else nullopt — never rounded via double.
std::optional<std::uint64_t> json_seed(const JsonValue& v);

/// The value when `v` is an integer-valued number inside T's range, else
/// nullopt. The range check comes before the cast, so 1e10 never reaches
/// an out-of-range float-to-int conversion. Defined for int, long long and
/// std::uint64_t.
template <typename T>
std::optional<T> json_integer(const JsonValue& v);

/// The whole file at `path`; nullopt when it cannot be opened. Callers
/// word their own "cannot read" error.
std::optional<std::string> read_text_file(const std::string& path);

/// The strict reads of one input document. Every failure throws
/// std::runtime_error("<prefix><what> must be ..."), so each parser's
/// messages come from one place: a reader built with "run spec: " reports
/// "run spec: tenants must be an integer".
class JsonFieldReader {
 public:
  constexpr explicit JsonFieldReader(std::string_view prefix) : prefix_(prefix) {}

  /// Throws std::runtime_error(prefix + message).
  [[noreturn]] void fail(const std::string& message) const;
  /// parse_json with the prefix on its error.
  JsonValue parse(const std::string& text) const;
  /// f()'s result; an error f throws is reworded as prefix + context + its
  /// message, which is how a document reports a nested spec's error.
  template <typename F>
  auto nested(const std::string& context, F&& f) const {
    try {
      return f();
    } catch (const std::exception& e) {
      fail(context + e.what());
    }
  }

  double number(const JsonValue& v, const std::string& what) const;
  /// json_integer<T> at the destination's own width: int for stage, node
  /// and attempt ids, long long for task ids. Unsigned T also says ">= 0".
  template <typename T>
  T integer(const JsonValue& v, const std::string& what) const;
  /// json_seed: an integer in [0, 2^53].
  std::uint64_t seed(const JsonValue& v, const std::string& what) const;
  const std::string& string(const JsonValue& v, const std::string& what) const;
  bool boolean(const JsonValue& v, const std::string& what) const;
  const JsonValue::Array& array(const JsonValue& v, const std::string& what) const;
  const JsonValue::Object& object(const JsonValue& v, const std::string& what) const;

 private:
  std::string_view prefix_;
};

}  // namespace rupam

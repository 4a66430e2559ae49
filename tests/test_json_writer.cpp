// The JSON writer's contract: numbers print the bytes printf prints,
// strings escape the way json_escape always has, a large document reaches
// the stream whole and in order (in pieces, not held whole), misuse throws
// std::logic_error, and a writer abandoned mid-document leaves what it
// wrote.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "common/table.hpp"

namespace rupam {
namespace {

/// What snprintf leaves in a 64-byte buffer, the reference both number
/// formatters must match.
std::string printf_bytes(const char* format, int precision, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, precision, v);
  return buf;
}

std::string json_reference(double v, int precision) {
  return std::isfinite(v) ? printf_bytes("%.*g", precision, v) : "0";
}

/// `v` written by JsonWriter::number as the only element of a compact array.
std::string writer_number(double v, int precision) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_array().number(v, precision).end_array();
  std::string text = os.str();
  return text.substr(1, text.size() - 2);
}

void expect_printf_bytes(double v, int precision) {
  SCOPED_TRACE(printf_bytes("%.17g", 17, v) + " at precision " + std::to_string(precision));
  EXPECT_EQ(json_number(v, precision), json_reference(v, precision));
  EXPECT_EQ(writer_number(v, precision), json_reference(v, precision));
  EXPECT_EQ(format_fixed(v, precision), printf_bytes("%.*f", precision, v));
}

TEST(JsonWriterNumbers, MatchPrintfOnRandomDoubles) {
  std::mt19937_64 gen(20240607);
  std::uniform_int_distribution<int> precision(0, 17);
  std::uniform_int_distribution<int> exponent(-12, 15);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> numerator(-1000000, 1000000), halvings(0, 24);
  for (int i = 0; i < 100000; ++i) {
    double v = 0.0;
    if (i % 3 == 0) {
      // Any bit pattern: subnormals, huge and tiny exponents.
      std::uint64_t bits = gen();
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) continue;
    } else if (i % 3 == 1) {
      // The magnitudes exports print: seconds, microseconds, bytes.
      v = mantissa(gen) * std::pow(10.0, exponent(gen));
    } else {
      // Dyadic fractions: exact decimal ties, where rounding must go to even.
      v = std::ldexp(numerator(gen), -halvings(gen));
    }
    expect_printf_bytes(v, precision(gen));
    if (HasFailure()) return;
  }
}

TEST(JsonWriterNumbers, MatchPrintfOnEdgeCases) {
  for (int precision : {0, 1, 3, 6, 9, 12, 17}) {
    for (double v : {0.0, -0.0, 5e-324, -5e-324, 1e21, -1e21, 0.5, 1.5, 2.5, 0.125, -0.375, 1234.5,
                     1e-7, 123456789.0, 9.9999999999995, 999999.9999995, 99999999999.95,
                     999999999999.5, 4503599627370495.5, 4503599627370496.0, 1e17, 1e17 - 16,
                     std::numeric_limits<double>::max(), std::numeric_limits<double>::min()}) {
      expect_printf_bytes(v, precision);
    }
  }
  // Non-finite numbers are 0 in JSON; format_fixed keeps printf's words.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double v : {kNaN, -kNaN, kInf, -kInf}) {
    EXPECT_EQ(json_number(v, 6), "0");
    EXPECT_EQ(writer_number(v, 6), "0");
    EXPECT_EQ(format_fixed(v, 6), printf_bytes("%.*f", 6, v));
  }
  // Text past snprintf's 64-byte buffer keeps its truncated bytes.
  for (double v : {1e56, -1e56, 1e300, -1.5e60}) {
    EXPECT_EQ(format_fixed(v, 6), printf_bytes("%.*f", 6, v));
    EXPECT_EQ(format_fixed(v, 6).size(), 63u);
  }
}

/// json_escape's rule, written out byte by byte.
std::string escaped_reference(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    case '\b': return "\\b";
    case '\f': return "\\f";
  }
  if (c < 0x20) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
    return buf;
  }
  return std::string(1, static_cast<char>(c));
}

TEST(JsonWriterStrings, EveryByteEscapesAsJsonEscape) {
  std::string all, all_escaped;
  for (int b = 0; b < 256; ++b) {
    const auto c = static_cast<unsigned char>(b);
    const std::string one(1, static_cast<char>(c));
    const std::string escaped = escaped_reference(c);
    SCOPED_TRACE("byte " + std::to_string(b));
    EXPECT_EQ(json_escape(one), escaped);
    EXPECT_EQ(json_quote(one), '"' + escaped + '"');
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object().key(one).value(one).end_object();
    EXPECT_EQ(os.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");
    // Runs of plain bytes between escapes.
    all += "ab" + one;
    all_escaped += "ab" + escaped;
  }
  EXPECT_EQ(json_escape(all), all_escaped);
  std::string appended = "x";
  append_json_escaped(appended, all);
  EXPECT_EQ(appended, "x" + all_escaped);
}

/// Records what reaches the stream and how large each write was.
class RecordingBuf : public std::streambuf {
 public:
  std::string text;
  std::vector<std::size_t> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    writes.push_back(static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) xsputn(reinterpret_cast<const char*>(&c), 1);
    return c;
  }
};

TEST(JsonWriterBuffer, LargeDocumentArrivesWholeInOrderBeforeTheCallersNewline) {
  RecordingBuf buf;
  std::ostream os(&buf);
  std::string expected = "[";
  {
    JsonWriter w(os);
    w.begin_array();
    for (int i = 0; expected.size() < 200 * 1024; ++i) {
      std::string item = "item " + std::to_string(i);
      w.value(item);
      expected += (i == 0 ? "\n  \"" : ",\n  \"") + item + "\"";
    }
    // Still open, yet most of the document has reached the stream.
    EXPECT_GE(buf.text.size(), 128u * 1024);
    EXPECT_EQ(buf.text, expected.substr(0, buf.text.size()));
    w.end_array();
    expected += "\n]";
    // Closing the top-level value hands over the rest.
    EXPECT_EQ(buf.text, expected);
    os << "\n";
  }
  EXPECT_EQ(buf.text, expected + "\n");
  EXPECT_GE(buf.writes.size(), 4u);  // 64 KiB pieces, the rest, the newline
  for (std::size_t n : buf.writes) EXPECT_LE(n, 65u * 1024);
}

TEST(JsonWriterBuffer, SmallDocumentReachesTheStreamWhenItCloses) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("n").value(3);
  w.key("ok").value(true);
  w.key("big").value(18446744073709551615ull);
  w.key("neg").value(-9223372036854775807ll);
  w.key("x").value(0.1);
  w.key("empty").begin_array().end_array();
  EXPECT_EQ(os.str(), "");
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\n  \"n\": 3,\n  \"ok\": true,\n  \"big\": 18446744073709551615,\n"
            "  \"neg\": -9223372036854775807,\n  \"x\": 0.1,\n  \"empty\": []\n}");
}

TEST(JsonWriterMisuse, ThrowsLogicError) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
    EXPECT_THROW(w.end_array(), std::logic_error);
    w.key("k");
    EXPECT_THROW(w.key("again"), std::logic_error);
    EXPECT_THROW(w.end_object(), std::logic_error);  // key without value
    w.value(1);
    w.end_object();
    EXPECT_THROW(w.value(2), std::logic_error);  // second top-level value
  }
  {
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key in an array
    EXPECT_THROW(w.end_object(), std::logic_error);
  }
  {
    JsonWriter w(os);
    EXPECT_THROW(w.end_object(), std::logic_error);
    EXPECT_THROW(w.end_array(), std::logic_error);
    EXPECT_THROW(w.key("k"), std::logic_error);
  }
}

TEST(JsonWriterBuffer, AbandonedDocumentKeepsWhatWasWritten) {
  std::ostringstream os;
  try {
    JsonWriter w(os);
    w.begin_object();
    w.key("a").value(1);
    w.key("b").begin_array().value("x");
    throw std::runtime_error("export failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(os.str(), "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"");

  std::ostringstream misused;
  try {
    JsonWriter w(misused, /*pretty=*/false);
    w.begin_array().value(1);
    w.key("k");
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(misused.str(), "[1");
}

}  // namespace
}  // namespace rupam

#include "common/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace ppdp {
namespace {

TEST(JsonValueTest, ScalarsRoundTripThroughDump) {
  EXPECT_EQ(JsonValue::Null().Dump(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Number(3.5).Dump(), "3.5");
  EXPECT_EQ(JsonValue::String("hi").Dump(), "\"hi\"");
}

TEST(JsonValueTest, IntegersDumpWithoutExponentOrFraction) {
  EXPECT_EQ(JsonValue::Number(0).Dump(), "0");
  EXPECT_EQ(JsonValue::Number(-42).Dump(), "-42");
  EXPECT_EQ(JsonValue::Number(1e15).Dump(), "1000000000000000");
  // 2^53 round-trips exactly; that is the documented integer range.
  EXPECT_EQ(JsonValue::Number(9007199254740992.0).Dump(), "9007199254740992");
}

/// What Dump printed for a number through snprintf: the integral form below
/// 2^53, else "%.17g".
std::string PrintfNumber(double v) {
  if (std::fabs(v) < 9.007199254740992e15 && v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

TEST(JsonValueTest, NumbersDumpByteForByteAsPrintfDid) {
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
      two53 - 1.0, two53, two53 + 2.0, -(two53 - 1.0), -two53, -(two53 + 2.0),
      std::nextafter(two53, 0.0), 1e21, -1e21, 1e-7, 1e16, 0.1, 1.0 / 3.0, -2.5e-300,
      123456789.125, 0.0, -0.0};
  std::mt19937_64 bits(20261019);
  std::mt19937_64 reals(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (values.size() < 200000) {
    values.push_back(std::bit_cast<double>(bits()));  // every exponent, NaN and inf too
    values.push_back(std::ldexp(unit(reals), static_cast<int>(bits() % 120) - 60));
  }
  size_t finite = 0;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    ++finite;
    ASSERT_EQ(JsonValue::Number(v).Dump(), PrintfNumber(v)) << std::hexfloat << v;
  }
  EXPECT_GT(finite, 190000u);
}

TEST(JsonValueTest, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::infinity()).Dump(), "null");
}

TEST(JsonValueTest, ObjectPreservesInsertionOrderAndReplaces) {
  JsonValue obj = JsonValue::Object();
  obj.Set("z", JsonValue::Number(1));
  obj.Set("a", JsonValue::Number(2));
  obj.Set("z", JsonValue::Number(3));  // replaces, keeps first position
  EXPECT_EQ(obj.Dump(), "{\"z\":3,\"a\":2}");
  ASSERT_NE(obj.Find("z"), nullptr);
  EXPECT_DOUBLE_EQ(obj.Find("z")->as_number(), 3.0);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(JsonValueTest, EscapingCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonValueTest, ParseRoundTripsNestedDocument) {
  const std::string text =
      R"({"name":"bench","n":3,"ok":true,"none":null,"xs":[1,2.5,-3],"sub":{"k":"v"}})";
  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetStringOr("name", ""), "bench");
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("n", 0), 3.0);
  EXPECT_TRUE(doc->GetBoolOr("ok", false));
  ASSERT_NE(doc->Find("none"), nullptr);
  EXPECT_TRUE(doc->Find("none")->is_null());
  const JsonValue* xs = doc->Find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_DOUBLE_EQ(xs->at(1).as_number(), 2.5);
  EXPECT_EQ(doc->Dump(), text) << "parse/dump must be a fixed point for canonical text";
}

TEST(JsonValueTest, ParseHandlesStringEscapes) {
  auto doc = JsonValue::Parse(R"(["a\"b", "tab\there", "Aé"])");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at(0).as_string(), "a\"b");
  EXPECT_EQ(doc->at(1).as_string(), "tab\there");
  EXPECT_EQ(doc->at(2).as_string(), "A\xc3\xa9");  // é in UTF-8
}

TEST(JsonValueTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("01").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok()) << "trailing garbage must fail";
}

TEST(JsonValueTest, ParseRejectsDuplicateKeys) {
  auto doc = JsonValue::Parse(R"({"a":1,"a":2})");
  EXPECT_FALSE(doc.ok());
}

TEST(JsonValueTest, ParseRejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonValueTest, TolerantLookupsFallBackOnKindMismatch) {
  auto doc = JsonValue::Parse(R"({"s":"x","n":5})");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("s", -1.0), -1.0);
  EXPECT_EQ(doc->GetStringOr("n", "fb"), "fb");
  EXPECT_TRUE(doc->GetBoolOr("absent", true));
}

TEST(JsonValueTest, LoadReadsFileAndReportsMissing) {
  std::string path = ::testing::TempDir() + "/json_test_doc.json";
  {
    std::ofstream out(path);
    out << "{\"k\": [true, false]}";
  }
  auto doc = JsonValue::Load(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->Find("k")->at(0).as_bool());

  EXPECT_FALSE(JsonValue::Load(::testing::TempDir() + "/definitely_missing.json").ok());
}

}  // namespace
}  // namespace ppdp

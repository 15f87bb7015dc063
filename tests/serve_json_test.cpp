// Tests for the serving JSON layer (serve/json.h): a parser written for
// hostile input, and a writer whose output must be byte-deterministic
// (sorted keys, canonical number rendering) because the serving
// byte-identity contract rides on it.

#include "serve/json.h"

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace valentine {
namespace serve {
namespace {

JsonValue ParseOk(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " for " << text;
  return parsed.ok() ? std::move(parsed).ValueOrDie() : JsonValue();
}

void ExpectParseError(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_FALSE(parsed.ok()) << "unexpectedly parsed: " << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(ServeJsonParse, Scalars) {
  EXPECT_TRUE(ParseOk("null").is_null());
  EXPECT_TRUE(ParseOk("true").bool_value());
  EXPECT_FALSE(ParseOk("false").bool_value());
  EXPECT_DOUBLE_EQ(ParseOk("42").number_value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseOk("-3.5e2").number_value(), -350.0);
  EXPECT_EQ(ParseOk("\"hi\"").string_value(), "hi");
}

TEST(ServeJsonParse, NestedStructures) {
  JsonValue v = ParseOk("{\"a\":[1,{\"b\":null},\"x\"],\"c\":true}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_TRUE(a->array_items()[1].Find("b")->is_null());
  EXPECT_TRUE(v.Find("c")->bool_value());
}

TEST(ServeJsonParse, StringEscapes) {
  EXPECT_EQ(ParseOk("\"a\\n\\t\\\"b\\\\\"").string_value(), "a\n\t\"b\\");
  // \u0041 = 'A'; two-byte and three-byte UTF-8 encodings.
  EXPECT_EQ(ParseOk("\"\\u0041\"").string_value(), "A");
  EXPECT_EQ(ParseOk("\"\\u00e9\"").string_value(), "\xc3\xa9");
  EXPECT_EQ(ParseOk("\"\\u20ac\"").string_value(), "\xe2\x82\xac");
}

TEST(ServeJsonParse, RejectsMalformed) {
  ExpectParseError("");
  ExpectParseError("{");
  ExpectParseError("[1,]");
  ExpectParseError("{\"a\":}");
  ExpectParseError("{\"a\" 1}");
  ExpectParseError("nul");
  ExpectParseError("01");
  ExpectParseError("\"unterminated");
  ExpectParseError("\"raw\ncontrol\"");
  ExpectParseError("1 2");           // trailing garbage
  ExpectParseError("{} extra");
  ExpectParseError("\"\\u12\"");     // truncated escape
  ExpectParseError("\"\\ud800\"");   // lone surrogate
}

TEST(ServeJsonParse, DepthBoundIsEnforced) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  ExpectParseError(deep);  // default max_depth = 64

  Result<JsonValue> shallow = ParseJson("[[[[1]]]]", /*max_depth=*/4);
  EXPECT_TRUE(shallow.ok());
  EXPECT_FALSE(ParseJson("[[[[[1]]]]]", /*max_depth=*/4).ok());
}

TEST(ServeJsonParse, ErrorsCarryByteOffset) {
  // The bad literal starts at byte 6; the message must say so, so a
  // 400 envelope pinpoints the defect in the client's payload.
  Result<JsonValue> parsed = ParseJson("{\"a\": nope}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("byte 6"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ServeJsonParse, DuplicateKeysLastWins) {
  JsonValue v = ParseOk("{\"a\":1,\"a\":2}");
  EXPECT_DOUBLE_EQ(v.Find("a")->number_value(), 2.0);
}

TEST(ServeJsonWrite, SortedKeysAndCompactForm) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", JsonValue::Number(1));
  obj.Set("alpha", JsonValue::Bool(true));
  obj.Set("mid", JsonValue::String("x"));
  EXPECT_EQ(WriteJson(obj), "{\"alpha\":true,\"mid\":\"x\",\"zebra\":1}");
}

TEST(ServeJsonWrite, NumberCanonicalization) {
  EXPECT_EQ(WriteJson(JsonValue::Number(42.0)), "42");
  EXPECT_EQ(WriteJson(JsonValue::Number(-7.0)), "-7");
  EXPECT_EQ(WriteJson(JsonValue::Number(0.5)), "0.5");
  // Round-trip stability: parse(write(x)) == x bytes.
  for (double d : {0.1, 1.0 / 3.0, 1e-9, 123456789.123}) {
    std::string once = WriteJson(JsonValue::Number(d));
    std::string twice = WriteJson(ParseOk(once));
    EXPECT_EQ(once, twice) << d;
  }
}

TEST(ServeJsonWrite, EscapesControlAndQuotes) {
  EXPECT_EQ(WriteJson(JsonValue::String("a\"b\\c\nd")),
            "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(WriteJson(JsonValue::String(std::string("\x01", 1))),
            "\"\\u0001\"");
}

TEST(ServeJsonRoundTrip, EveryControlByteQuoteAndBackslash) {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s.push_back(static_cast<char>(c));
  s += "\"\\";
  const std::string written = WriteJson(JsonValue::String(s));
  EXPECT_NE(written.find("\\u0008"), std::string::npos) << written;
  EXPECT_NE(written.find("\\u000c"), std::string::npos) << written;
  EXPECT_EQ(ParseOk(written).string_value(), s);
}

// ParseJson accepts every document WriteJson emits: a non-finite number
// is written as null (JSON cannot spell it), and every finite double
// parses back to itself.
TEST(ServeJsonRoundTrip, EveryWrittenNumberParses) {
  for (double d : {std::nan(""), std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    JsonValue array = JsonValue::Array();
    array.Append(JsonValue::Number(d));
    const std::string written = WriteJson(array);
    EXPECT_EQ(written, "[null]") << d;
    EXPECT_TRUE(ParseJson(written).ok()) << written;
  }
  for (double d : {-0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
                   DBL_MAX, -DBL_MAX}) {
    const std::string written = WriteJson(JsonValue::Number(d));
    Result<JsonValue> parsed = ParseJson(written);
    ASSERT_TRUE(parsed.ok()) << written;
    ASSERT_TRUE(parsed.ValueOrDie().is_number()) << written;
    EXPECT_EQ(parsed.ValueOrDie().number_value(), d) << written;
  }
}

TEST(ServeJsonRoundTrip, StructuredDocumentIsStable) {
  const std::string doc =
      "{\"k\":3,\"results\":[{\"score\":0.5,\"table\":\"t\"}]}";
  EXPECT_EQ(WriteJson(ParseOk(doc)), doc);
}

}  // namespace
}  // namespace serve
}  // namespace valentine

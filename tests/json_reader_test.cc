// util/json_reader: the parser must round-trip everything our own
// JsonWriter emits (manifests, JSONL rows) and reject malformed
// input with positioned errors.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "util/json_reader.h"
#include "util/json_writer.h"

namespace ldpr {
namespace {

TEST(JsonReaderTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->number(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-1e-3")->number(), -1e-3);
  EXPECT_EQ(ParseJson("\"hi\"")->string(), "hi");
}

TEST(JsonReaderTest, ParsesContainersPreservingOrder) {
  const auto v = ParseJson(
      R"({"b":1,"a":[2,"x",null,{"nested":true}],"c":{}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  ASSERT_EQ(v->object().size(), 3u);
  EXPECT_EQ(v->object()[0].first, "b");
  EXPECT_EQ(v->object()[1].first, "a");
  EXPECT_EQ(v->object()[2].first, "c");
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 4u);
  EXPECT_DOUBLE_EQ(a->array()[0].number(), 2);
  EXPECT_EQ(a->array()[1].string(), "x");
  EXPECT_TRUE(a->array()[2].is_null());
  EXPECT_TRUE(a->array()[3].Find("nested")->bool_value());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonReaderTest, TypedAccessorsFallBack) {
  const auto v = ParseJson(R"({"n":2.5,"s":"str"})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->NumberOr("n", -1), 2.5);
  EXPECT_DOUBLE_EQ(v->NumberOr("absent", -1), -1);
  EXPECT_DOUBLE_EQ(v->NumberOr("s", -1), -1);  // wrong type
  EXPECT_EQ(v->StringOr("s", "fb"), "str");
  EXPECT_EQ(v->StringOr("n", "fb"), "fb");
}

TEST(JsonReaderTest, StringEscapes) {
  const auto v = ParseJson(R"("a\"b\\c\n\tA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string(), "a\"b\\c\n\tA");
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("scenario");
  w.String("fig3");
  w.Key("values");
  w.BeginObject();
  w.Key("Before");
  w.Number(0.07028093504080245);
  w.Key("NaN-col");
  w.Number(std::nan(""));  // rendered as null
  w.EndObject();
  w.EndObject();
  const auto v = ParseJson(w.str());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* values = v->Find("values");
  ASSERT_NE(values, nullptr);
  // Shortest-round-trip doubles parse back to the identical bits.
  EXPECT_EQ(values->Find("Before")->number(), 0.07028093504080245);
  EXPECT_TRUE(values->Find("NaN-col")->is_null());
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("12x").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson(R"({"dup":1,"dup":2})").ok());
  // Errors carry a byte offset.
  const auto err = ParseJson("[1, oops]");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("byte 4"), std::string::npos)
      << err.status().ToString();
}

TEST(JsonReaderTest, NestingIsBoundedAt64Levels) {
  const auto nested = [](size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(64)).ok());
  EXPECT_FALSE(ParseJson(nested(65)).ok());
  EXPECT_FALSE(ParseJson("{\"a\":" + nested(64) + "}").ok());
  // Deep enough to overflow the stack of an unbounded recursive
  // descent: must come back as a Status, not a crash.
  const auto deep = ParseJson(std::string(200000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep.status().message().find("nesting"), std::string::npos)
      << deep.status().ToString();
}

}  // namespace
}  // namespace ldpr

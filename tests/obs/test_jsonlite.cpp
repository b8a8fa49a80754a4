#include "src/obs/jsonlite.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace hpcp {
namespace {

using obs::JsonValue;
using obs::parse_json;

TEST(Jsonlite, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(parse_json("-1.50e3").number_token(), "-1.50e3");
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Jsonlite, ParsesNestedStructures) {
  const JsonValue doc = parse_json(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  const auto& a = doc.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_TRUE(doc.contains("e"));
  EXPECT_FALSE(doc.contains("missing"));
}

TEST(Jsonlite, DecodesStringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  // \u escapes become UTF-8: U+0041 'A', U+00E9 'é'.
  EXPECT_EQ(parse_json(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
}

TEST(Jsonlite, AllowsSurroundingWhitespace) {
  EXPECT_DOUBLE_EQ(parse_json("  \n\t 7 \n").as_number(), 7.0);
}

TEST(Jsonlite, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);
}

TEST(Jsonlite, AccessorsThrowOnKindMismatch) {
  const JsonValue num = parse_json("3");
  EXPECT_THROW((void)num.as_string(), std::runtime_error);
  EXPECT_THROW((void)num.as_array(), std::runtime_error);
  EXPECT_THROW((void)num.at("k"), std::runtime_error);
  const JsonValue obj = parse_json("{\"k\": 1}");
  EXPECT_THROW((void)obj.at("other"), std::runtime_error);
}

}  // namespace
}  // namespace hpcp

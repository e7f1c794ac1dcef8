// Unit tests for src/support/json: string escaping, number formats,
// comma placement and the three container layouts, plus the checked
// document write.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "support/json.h"

namespace simtomp::json {
namespace {

std::string asJson(std::string_view text) {
  std::string out;
  Writer(out).string(text);
  return out;
}

TEST(JsonWriterTest, EscapesEveryControlByteQuoteAndBackslash) {
  std::string text;
  for (int c = 0x00; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\"\\";
  EXPECT_EQ(asJson(text),
            R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007)"
            R"(\b\t\n\u000b\f\r\u000e\u000f)"
            R"(\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
            R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)"
            R"(\"\\")"
            "\n");
}

TEST(JsonWriterTest, PassesPrintableAsciiAndUtf8Unchanged) {
  const std::string text =
      "plain / ~\x7f h\xc3\xa9llo \xe2\x9c\x93 \xf0\x9d\x84\x9e";
  EXPECT_EQ(asJson(text), "\"" + text + "\"\n");
}

TEST(JsonWriterTest, NumbersAndBooleans) {
  std::string out;
  Writer w(out);
  w.array();
  w.uint(0).uint(UINT64_MAX).boolean(true).boolean(false);
  w.fixed(0.5625, 4).fixed(2.0 / 3.0, 1).fixed(1.0, 0).fixed(12.5, 3);
  w.end();
  EXPECT_EQ(out,
            "[0, 18446744073709551615, true, false, 0.5625, 0.7, 1, "
            "12.500]\n");
}

TEST(JsonWriterTest, EmptyContainersInEveryLayout) {
  for (const Layout layout :
       {Layout::kInline, Layout::kLines, Layout::kHanging}) {
    std::string object;
    Writer(object).object(layout).end();
    EXPECT_EQ(object, "{}\n");
    std::string array;
    Writer(array).array(layout).end();
    EXPECT_EQ(array, "[]\n");
    std::string nested;
    Writer w(nested);
    w.object(Layout::kLines);
    w.key("o").object(layout).end();
    w.key("a").array(layout).end();
    w.end();
    EXPECT_EQ(nested, "{\n  \"o\": {},\n  \"a\": []\n}\n");
  }
}

TEST(JsonWriterTest, InlineLayout) {
  std::string out;
  Writer w(out);
  w.object().key("a").uint(1).key("b").array();
  w.uint(2).uint(3).end().key("c").string("x").end();
  EXPECT_EQ(out, "{\"a\": 1, \"b\": [2, 3], \"c\": \"x\"}\n");
}

TEST(JsonWriterTest, LinesLayoutIndentsPastItsOpeningLine) {
  std::string out;
  Writer w(out);
  w.object(Layout::kLines);
  w.key("n").uint(1);
  w.key("inner").object(Layout::kLines).key("m").uint(2).end();
  w.key("rows").array(Layout::kLines);
  w.object().key("r").uint(3).end();
  w.object().key("r").uint(4).end();
  w.end().end();
  EXPECT_EQ(out,
            "{\n"
            "  \"n\": 1,\n"
            "  \"inner\": {\n"
            "    \"m\": 2\n"
            "  },\n"
            "  \"rows\": [\n"
            "    {\"r\": 3},\n"
            "    {\"r\": 4}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, HangingLayoutAlignsPastItsBracket) {
  std::string out;
  Writer w(out);
  w.array(Layout::kLines);
  w.object(Layout::kHanging);
  w.key("title").string("t");
  w.key("rows").array(Layout::kLines).uint(1).uint(2).end();
  w.key("tree").object(Layout::kHanging).key("a").uint(1);
  w.key("b").uint(2).end();
  w.end().end();
  EXPECT_EQ(out,
            "[\n"
            "  {\"title\": \"t\",\n"
            "   \"rows\": [\n"
            "     1,\n"
            "     2\n"
            "   ],\n"
            "   \"tree\": {\"a\": 1,\n"
            "            \"b\": 2}}\n"
            "]\n");
}

TEST(JsonWriterTest, AppendsAfterExistingText) {
  std::string out = "prefix\n";
  Writer(out).object(Layout::kLines).key("k").uint(1).end();
  EXPECT_EQ(out, "prefix\n{\n  \"k\": 1\n}\n");
}

TEST(JsonWriteFileTest, WritesTheDocument) {
  const std::string path = ::testing::TempDir() + "support_json_test.json";
  ASSERT_TRUE(writeFile(path, "{}\n").isOk());
  std::ifstream in(path);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "{}\n");
  std::remove(path.c_str());
}

TEST(JsonWriteFileTest, ReportsOpenAndWriteFailures) {
  EXPECT_FALSE(writeFile("/nonexistent-dir/x.json", "{}\n").isOk());
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  // The write lands in the stdio buffer; the full device only refuses
  // it when fclose flushes.
  const Status full = writeFile("/dev/full", "{}\n");
  EXPECT_FALSE(full.isOk());
  EXPECT_NE(full.message().find("/dev/full"), std::string::npos)
      << full.message();
}

}  // namespace
}  // namespace simtomp::json

#include "util/jsonl.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace lsl::util {
namespace {

TEST(JsonObject, SerializesInInsertionOrder) {
  JsonObject j;
  j.set("name", "tx.m_p1");
  j.set("index", std::size_t{42});
  j.set("elapsed", 0.5);
  j.set("detected", true);
  EXPECT_EQ(j.str(), "{\"name\":\"tx.m_p1\",\"index\":42,\"elapsed\":0.5,\"detected\":true}");
}

TEST(Jsonl, AppendAndReadLinesRoundTrip) {
  const std::string path = testing::TempDir() + "jsonl_roundtrip.jsonl";
  std::remove(path.c_str());
  EXPECT_TRUE(read_lines(path).empty());  // missing file is not an error
  ASSERT_TRUE(append_line(path, "{\"a\":1}"));
  ASSERT_TRUE(append_line(path, "{\"b\":2}"));
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lsl::util

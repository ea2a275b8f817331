#include "common/flags.h"

#include <gtest/gtest.h>

namespace butterfly {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EmptyCommandLine) {
  FlagParser flags = Parse({});
  EXPECT_TRUE(flags.ok());
  EXPECT_TRUE(flags.positional().empty());
  EXPECT_FALSE(flags.Has("anything"));
}

TEST(FlagParserTest, StringFlag) {
  FlagParser flags = Parse({"--name=value"});
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_EQ(flags.GetString("name", "d"), "value");
  EXPECT_EQ(flags.GetString("missing", "d"), "d");
}

TEST(FlagParserTest, IntFlag) {
  FlagParser flags = Parse({"--count=42", "--neg=-7"});
  EXPECT_EQ(flags.GetInt("count", 0), 42);
  EXPECT_EQ(flags.GetInt("neg", 0), -7);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_TRUE(flags.ok());
}

TEST(FlagParserTest, BadIntRecordsError) {
  FlagParser flags = Parse({"--count=abc"});
  EXPECT_EQ(flags.GetInt("count", 5), 5);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, OutOfRangeIntRecordsError) {
  FlagParser flags = Parse({"--seed=99999999999999999999999"});
  EXPECT_EQ(flags.GetInt("seed", 66), 66);
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.errors().front().find("--seed"), std::string::npos);
}

TEST(FlagParserTest, SizeFlag) {
  FlagParser flags = Parse({"--window=2000", "--zero=0"});
  EXPECT_EQ(flags.GetSize("window", 1), 2000u);
  EXPECT_EQ(flags.GetSize("zero", 1), 0u);
  EXPECT_EQ(flags.GetSize("missing", 7), 7u);
  EXPECT_TRUE(flags.ok());
}

TEST(FlagParserTest, NegativeSizeRecordsError) {
  FlagParser flags = Parse({"--window=-1"});
  EXPECT_EQ(flags.GetSize("window", 2000), 2000u);
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.errors().front().find("--window"), std::string::npos);
}

TEST(FlagParserTest, DoubleFlag) {
  FlagParser flags = Parse({"--eps=0.016"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0), 0.016);
}

TEST(FlagParserTest, BadDoubleRecordsError) {
  FlagParser flags = Parse({"--eps=zero"});
  flags.GetDouble("eps", 1.0);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, OutOfRangeDoubleRecordsError) {
  FlagParser flags = Parse({"--eps=1e999"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.5), 0.5);
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.errors().front().find("--eps"), std::string::npos);
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  FlagParser flags = Parse({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("quiet", false));
}

TEST(FlagParserTest, ExplicitBooleanValues) {
  FlagParser flags = Parse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.ok());
}

TEST(FlagParserTest, BadBooleanRecordsError) {
  FlagParser flags = Parse({"--a=maybe"});
  flags.GetBool("a", true);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = Parse({"input.dat", "--n=3", "out.log"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.dat", "out.log"}));
}

TEST(FlagParserTest, UnreadFlagsDetected) {
  FlagParser flags = Parse({"--used=1", "--typo=2"});
  flags.GetInt("used", 0);
  std::vector<std::string> unread = flags.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0), 2);
}

TEST(FlagParserTest, BareDashDashIsError) {
  FlagParser flags = Parse({"--"});
  EXPECT_FALSE(flags.ok());
}

}  // namespace
}  // namespace butterfly

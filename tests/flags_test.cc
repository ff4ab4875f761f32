#include "util/flags.h"

#include <gtest/gtest.h>

namespace ldpr {
namespace {

FlagParser Parse(std::vector<const char*> args,
                 const std::vector<std::string>& booleans = {}) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data(), booleans);
}

TEST(FlagParserTest, EqualsForm) {
  auto flags = Parse({"--protocol=OUE", "--beta=0.1"});
  EXPECT_EQ(flags.GetString("protocol", "GRR"), "OUE");
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), 0.1);
}

TEST(FlagParserTest, SpaceForm) {
  auto flags = Parse({"--protocol", "OLH", "--trials", "7"});
  EXPECT_EQ(flags.GetString("protocol", ""), "OLH");
  EXPECT_EQ(flags.GetUint("trials", 0), 7u);
}

TEST(FlagParserTest, BooleanForms) {
  auto flags = Parse({"--verbose", "--fast=true", "--slow=0"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_FALSE(flags.GetBool("slow", true));
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  auto flags = Parse({});
  EXPECT_EQ(flags.GetString("x", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(flags.GetDouble("y", 2.5), 2.5);
  EXPECT_EQ(flags.GetUint("z", 3), 3u);
  EXPECT_FALSE(flags.Has("x"));
  EXPECT_TRUE(flags.status().ok());
}

TEST(FlagParserTest, MalformedNumbersAreErrors) {
  auto flags = Parse({"--beta=abc", "--trials=1.5x"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.25), 0.25);
  EXPECT_EQ(flags.GetUint("trials", 4), 4u);
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, PositionalArguments) {
  auto flags = Parse({"input.csv", "--k=3", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(FlagParserTest, RejectPositionalNamesCommandAndOperand) {
  auto none = Parse({"--k=3"});
  (void)none.GetUint("k", 0);
  none.RejectPositional("ldpr run");
  EXPECT_TRUE(none.status().ok());

  auto flags = Parse({"--list", "true", "extra"}, {"list"});
  EXPECT_TRUE(flags.GetBool("list", false));
  flags.RejectPositional("ldpr_bench");
  const Status status = flags.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "ldpr_bench takes no positional operands, got: true");
}

TEST(FlagParserTest, UnusedFlagsDetected) {
  auto flags = Parse({"--used=1", "--typo=2"});
  (void)flags.GetUint("used", 0);
  const Status status = flags.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "unknown flag --typo");
}

TEST(FlagParserTest, LastValueWins) {
  auto flags = Parse({"--x=1", "--x=2"});
  EXPECT_EQ(flags.GetUint("x", 0), 2u);
}

TEST(FlagParserTest, OperandAfterBareBooleanStaysPositional) {
  auto flags = Parse({"--allow_missing", "torn.jsonl", "part1.jsonl",
                      "--out", "dir"},
                     {"allow_missing"});
  EXPECT_TRUE(flags.GetBool("allow_missing", false));
  EXPECT_EQ(flags.GetString("out", ""), "dir");
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "torn.jsonl");
  EXPECT_EQ(flags.positional()[1], "part1.jsonl");
  EXPECT_TRUE(flags.status().ok());
}

TEST(FlagParserTest, BadBooleanValueIsAnError) {
  auto flags = Parse({"--list=maybe"}, {"list"});
  EXPECT_FALSE(flags.GetBool("list", false));
  const Status status = flags.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--list"), std::string::npos) << status;
  EXPECT_NE(status.message().find("maybe"), std::string::npos) << status;
}

TEST(FlagParserTest, NegativeCountIsAnError) {
  auto flags = Parse({"--seed=-1"});
  EXPECT_EQ(flags.GetUint("seed", 7), 7u);
  const Status status = flags.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "flag --seed expects a non-negative integer, got: -1");
}

TEST(FlagParserTest, OutOfRangeIntegerIsAnError) {
  auto flags = Parse({"--seed=99999999999999999999"});
  (void)flags.GetUint("seed", 1);
  EXPECT_FALSE(flags.status().ok());
}

TEST(FlagParserTest, FirstErrorWins) {
  auto flags = Parse({"--typo", "--window=-5", "--beta=x"});
  (void)flags.GetDouble("beta", 0.0);
  (void)flags.GetUint("window", 0);
  flags.Check(InvalidArgumentError("a later check"));
  flags.Check(Status::Ok());
  EXPECT_EQ(flags.status().message(),
            "flag --beta expects a number, got: x");
}

TEST(FlagParserTest, ChecksLatchAndOkIsIgnored) {
  auto flags = Parse({});
  flags.Check(Status::Ok());
  EXPECT_TRUE(flags.status().ok());
  flags.Check(InvalidArgumentError("--top_k must be >= 1"));
  EXPECT_EQ(flags.status().message(), "--top_k must be >= 1");
}

TEST(FlagParserTest, FirstUnknownFlagInCommandLineOrder) {
  auto flags = Parse({"--zeta=1", "--alpha=2", "--known=3"});
  (void)flags.GetString("known", "");
  EXPECT_EQ(flags.status().message(), "unknown flag --zeta");
}

TEST(ParseNumberTest, FullMatchOnly) {
  EXPECT_DOUBLE_EQ(ParseNumber("X", "0.5").value(), 0.5);
  EXPECT_FALSE(ParseNumber("X", "0.5x").ok());
  EXPECT_FALSE(ParseNumber("X", "").ok());
  EXPECT_EQ(ParseInteger("X", "-2").value(), -2);
  EXPECT_FALSE(ParseInteger("X", "4abc").ok());
  const auto bad = ParseInteger("LDPR_THREADS", "abc");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "LDPR_THREADS expects an integer, got: abc");
}

}  // namespace
}  // namespace ldpr

#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace eclb::common {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EmptyCommandLine) {
  const auto f = parse({});
  EXPECT_FALSE(f.has("anything"));
  EXPECT_TRUE(f.positional().empty());
  EXPECT_TRUE(f.names().empty());
}

TEST(Flags, SpaceSeparatedValue) {
  auto f = parse({"--servers", "100"});
  EXPECT_TRUE(f.has("servers"));
  EXPECT_EQ(f.get("servers"), "100");
  EXPECT_EQ(f.get_int("servers", 0), 100);
}

TEST(Flags, EqualsSeparatedValue) {
  auto f = parse({"--load=70"});
  EXPECT_EQ(f.get_int("load", 0), 70);
}

TEST(Flags, BooleanPresence) {
  auto f = parse({"--quick"});
  EXPECT_TRUE(f.has("quick"));
  EXPECT_TRUE(f.get_bool("quick"));
  EXPECT_FALSE(f.get_bool("missing"));
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, BooleanExplicitValues) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x", true));
}

TEST(Flags, BooleanRejectsOtherValues) {
  // A valueless boolean swallows the next plain word as its value
  // (`--no-sleep seed=7`); that word must be an error, not the fallback.
  auto f = parse({"--no-sleep", "seed=7", "--hysteresis=flash:rate=5", "--x="});
  EXPECT_FALSE(f.get_bool("no-sleep"));
  EXPECT_TRUE(f.get_bool("hysteresis", true));
  EXPECT_TRUE(f.get_bool("x"));  // an explicit empty value reads as set
  ASSERT_EQ(f.errors().size(), 2U);
  EXPECT_EQ(f.errors()[0], "--no-sleep: expected a boolean, got 'seed=7'");
  EXPECT_EQ(f.errors()[1],
            "--hysteresis: expected a boolean, got 'flash:rate=5'");
  EXPECT_TRUE(f.positional().empty());
}

TEST(Flags, DoubleValues) {
  auto f = parse({"--tau", "2.5"});
  EXPECT_DOUBLE_EQ(f.get_double("tau", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.25), 1.25);
}

TEST(Flags, DefaultsWhenAbsent) {
  auto f = parse({});
  EXPECT_EQ(f.get("name", "fallback"), "fallback");
  EXPECT_EQ(f.get_int("n", 42), 42);
}

TEST(Flags, BadIntegerReportsError) {
  auto f = parse({"--n", "abc"});
  EXPECT_EQ(f.get_int("n", 9), 9);
  ASSERT_EQ(f.errors().size(), 1U);
  EXPECT_NE(f.errors()[0].find("--n"), std::string::npos);
}

TEST(Flags, BadDoubleReportsError) {
  auto f = parse({"--x", "1.2.3"});
  EXPECT_DOUBLE_EQ(f.get_double("x", 7.0), 7.0);
  EXPECT_EQ(f.errors().size(), 1U);
}

TEST(Flags, PositionalArguments) {
  const auto f = parse({"run", "--n", "3", "output.csv"});
  ASSERT_EQ(f.positional().size(), 2U);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "output.csv");
}

TEST(Flags, FlagFollowedByFlagHasEmptyValue) {
  auto f = parse({"--quick", "--n", "5"});
  EXPECT_TRUE(f.get_bool("quick"));
  EXPECT_EQ(f.get_int("n", 0), 5);
}

TEST(Flags, NamesSorted) {
  const auto f = parse({"--zeta", "--alpha", "--mid=1"});
  const auto names = f.names();
  ASSERT_EQ(names.size(), 3U);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid");
  EXPECT_EQ(names[2], "zeta");
}

TEST(Flags, UnknownDetection) {
  const auto f = parse({"--servers", "10", "--typo", "--load=30"});
  const auto bad = f.unknown({"servers", "load"});
  ASSERT_EQ(bad.size(), 1U);
  EXPECT_EQ(bad[0], "typo");
  EXPECT_TRUE(f.unknown({"servers", "load", "typo"}).empty());
}

TEST(Flags, LastOccurrenceWins) {
  auto f = parse({"--n", "1", "--n", "2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

TEST(Flags, ExplicitEmptyValuePassesThroughGet) {
  // `--out=` deliberately clears a default: get() must not substitute the
  // fallback for the explicit empty string.
  auto f = parse({"--out="});
  EXPECT_TRUE(f.has("out"));
  EXPECT_EQ(f.get("out", "default.csv"), "");
}

TEST(Flags, ValuelessFlagStillGetsFallback) {
  auto f = parse({"--out"});
  EXPECT_TRUE(f.has("out"));
  EXPECT_EQ(f.get("out", "default.csv"), "default.csv");
}

TEST(Flags, TypedGettersFallBackOnExplicitEmpty) {
  // An empty string is not a number; typed getters fall back silently
  // rather than recording a parse error.
  auto f = parse({"--n=", "--x="});
  EXPECT_EQ(f.get_int("n", 13), 13);
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_TRUE(f.errors().empty());
}

TEST(Flags, BooleanFlagDoesNotSwallowFollowingFlag) {
  // `--verbose --out x`: --verbose must stay valueless instead of eating
  // "--out" as its value.
  auto f = parse({"--verbose", "--out", "x"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get("out"), "x");
}

TEST(Flags, NegativeNumberIsAValueNotAFlag) {
  auto f = parse({"--threshold", "-5", "--delta", "-0.25", "--eps", "-1e-3"});
  EXPECT_EQ(f.get_int("threshold", 0), -5);
  EXPECT_DOUBLE_EQ(f.get_double("delta", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(f.get_double("eps", 0.0), -1e-3);
}

TEST(Flags, SingleDashTokenIsNotSwallowed) {
  // A non-numeric "-..." token is option-like, so the preceding flag stays
  // valueless and the token falls through as a positional argument.
  auto f = parse({"--quick", "-v"});
  EXPECT_TRUE(f.get_bool("quick"));
  ASSERT_EQ(f.positional().size(), 1U);
  EXPECT_EQ(f.positional()[0], "-v");
}

TEST(Flags, NonFiniteDoublesAreErrors) {
  // inf and nan are not values: --hours nan used to run out of memory.
  for (const char* bad : {"inf", "nan", "1e309", "-inf"}) {
    auto f = parse({"--x", bad});
    EXPECT_TRUE(f.positional().empty()) << bad;  // "-inf" is a value too
    EXPECT_DOUBLE_EQ(f.get_double("x", 7.0), 7.0) << bad;
    ASSERT_EQ(f.errors().size(), 1U) << bad;
    EXPECT_NE(f.errors()[0].find("--x: expected a finite number"),
              std::string::npos)
        << f.errors()[0];
  }
}

TEST(Flags, OverflowingIntegersAreErrorsNotSaturated) {
  auto f = parse({"--n", "9223372036854775808", "--m=-9223372036854775808"});
  EXPECT_EQ(f.get_int("n", 9), 9);
  ASSERT_EQ(f.errors().size(), 1U);
  EXPECT_NE(f.errors()[0].find("--n: expected a 64-bit integer"),
            std::string::npos);
  EXPECT_EQ(f.get_int("m", 0), INT64_MIN);
}

TEST(Flags, NumbersTolerateBlanksAndASign) {
  auto f = parse({"--n", " 7\r", "--m=+3", "--x", "\t2.5 "});
  EXPECT_EQ(f.get_int("n", 0), 7);
  EXPECT_EQ(f.get_int("m", 0), 3);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0.0), 2.5);
  EXPECT_TRUE(f.errors().empty());
}

}  // namespace
}  // namespace eclb::common

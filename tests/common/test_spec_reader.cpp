#include "common/spec_reader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace eclb::common {
namespace {

TEST(SpecReader, TrimDropsSpacesTabsAndCarriageReturns) {
  EXPECT_EQ(trim(" \t x y \r"), "x y");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_TRUE(trim(" \t\r ").empty());
  EXPECT_TRUE(trim("").empty());
}

TEST(SpecReader, NumbersFillTheirTokenAndAreFinite) {
  double d = 0.0;
  EXPECT_TRUE(read_number(" 2.5\r", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(read_number("-1e-3", &d));
  EXPECT_DOUBLE_EQ(d, -1e-3);
  EXPECT_TRUE(read_number("+4", &d));
  EXPECT_DOUBLE_EQ(d, 4.0);
  EXPECT_TRUE(read_number("0x1p3", &d));  // strtod's hex form stays valid
  EXPECT_DOUBLE_EQ(d, 8.0);
  EXPECT_TRUE(read_number("1e-310", &d));  // a denormal is still finite
  for (const char* bad : {"", " ", "1.5x", "1 2", "inf", "-inf", "nan",
                          "-nan", "infinity", "1e309", "-1e309", "0x"}) {
    EXPECT_FALSE(read_number(bad, &d)) << "'" << bad << "'";
  }
}

TEST(SpecReader, ScanDoubleAlsoReadsNonFiniteValues) {
  double d = 0.0;
  EXPECT_TRUE(scan_double("-inf", &d));
  EXPECT_TRUE(std::isinf(d));
  EXPECT_TRUE(scan_double("nan", &d));
  EXPECT_TRUE(std::isnan(d));
  EXPECT_FALSE(scan_double("-v", &d));
  EXPECT_FALSE(scan_double("", &d));
}

TEST(SpecReader, IntegersMustFitTheirType) {
  std::uint64_t u = 0;
  EXPECT_TRUE(read_number("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  EXPECT_TRUE(read_number(" +7 ", &u));
  EXPECT_EQ(u, 7U);
  for (const char* bad : {"18446744073709551616", "-1", "1.0", "1e3", "",
                          "+", "+-1", "0x10", "7 7"}) {
    EXPECT_FALSE(read_number(bad, &u)) << "'" << bad << "'";
  }
  std::int64_t i = 0;
  EXPECT_TRUE(read_number("-9223372036854775808", &i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_TRUE(read_number("9223372036854775807", &i));
  EXPECT_EQ(i, INT64_MAX);
  EXPECT_FALSE(read_number("9223372036854775808", &i));
  EXPECT_FALSE(read_number("-9223372036854775809", &i));
}

TEST(SpecReader, ItemsCarryTheirByteOffsets) {
  SpecReader reader("g", " a ;; b=1 ;\tc\r", nullptr);
  SpecItem item;
  std::vector<std::pair<std::string, std::size_t>> seen;
  while (reader.next(&item)) seen.emplace_back(item.text, item.offset);
  const std::vector<std::pair<std::string, std::size_t>> want = {
      {"a", 1}, {"b=1", 6}, {"c", 12}};
  EXPECT_EQ(seen, want);

  SpecReader empty("g", " ;; \t", nullptr);
  EXPECT_FALSE(empty.next(&item));
}

TEST(SpecReader, SplitArgsTrimsPairsAndRejectsKeylessParts) {
  std::string error;
  SpecReader reader("g", "k:a=1, b = two ,", &error);
  SpecItem item;
  ASSERT_TRUE(reader.next(&item));
  SpecArgs args;
  ASSERT_TRUE(reader.split_args(item.text.substr(2), item, &args));
  const SpecArgs want = {{"a", "1"}, {"b", "two"}};
  EXPECT_EQ(args, want);

  args.clear();
  EXPECT_FALSE(reader.split_args("a=1,=2", item, &args));
  EXPECT_EQ(error, "g: expected key=value in 'k:a=1, b = two ,' at offset 0");
}

TEST(SpecReader, DiagnosticsShareOneShape) {
  std::string error;
  SpecReader reader("faults", "x; bad@1", &error);
  SpecItem item;
  ASSERT_TRUE(reader.next(&item));
  ASSERT_TRUE(reader.next(&item));
  EXPECT_FALSE(reader.fail(item, "bad time in", "expected TIME >= 0"));
  EXPECT_EQ(error,
            "faults: bad time in 'bad@1' at offset 3; expected TIME >= 0");
  EXPECT_FALSE(reader.fail(item, "unrecognized item"));
  EXPECT_EQ(error, "faults: unrecognized item 'bad@1' at offset 3");
  EXPECT_FALSE(reader.fail("spec names nothing"));
  EXPECT_EQ(error, "faults: spec names nothing");
  // A null error sink is allowed.
  EXPECT_FALSE(SpecReader("g", "", nullptr).fail("quiet"));
}

enum class Shade : std::uint8_t { kLight = 0, kDark = 1 };
std::string_view to_string(Shade s) {
  return s == Shade::kLight ? "light" : "dark";
}

TEST(SpecReader, ReadNameInvertsToString) {
  Shade s = Shade::kLight;
  EXPECT_TRUE(read_name(" dark ", 2, &s));
  EXPECT_EQ(s, Shade::kDark);
  EXPECT_FALSE(read_name("grey", 2, &s));
  EXPECT_FALSE(read_name("dark", 1, &s));  // beyond the first `count`
  EXPECT_EQ(s, Shade::kDark);
}

TEST(SpecReader, FormatNumberKeepsShortFormsAndEveryDigit) {
  // Six significant digits when they suffice: the historical spec form.
  EXPECT_EQ(format_number(0.05), "0.05");
  EXPECT_EQ(format_number(86400.0), "86400");
  EXPECT_EQ(format_number(1e-300), "1e-300");
  EXPECT_EQ(format_number(4.0), "4");
  // More digits only when six would change the value.
  EXPECT_EQ(format_number(0.9999999), "0.9999999");
  for (const double v : {1.0 / 3.0, 100.0000001, 2.0 / 7.0 * 1e12, 5e-324}) {
    EXPECT_EQ(std::strtod(format_number(v).c_str(), nullptr), v) << v;
  }
}

}  // namespace
}  // namespace eclb::common

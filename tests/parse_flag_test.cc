#include "common/parse_flag.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace ossm {
namespace {

TEST(ParseIntFlagTest, AcceptsDigitsThatFitTheDestination) {
  EXPECT_EQ(*ParseIntFlag<uint64_t>("seed", "18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(*ParseIntFlag<uint32_t>("items", "4294967295"), UINT32_MAX);
  EXPECT_EQ(*ParseIntFlag<uint16_t>("port", "0"), 0);
  EXPECT_EQ(*ParseIntFlag<int>("repeats", "3"), 3);
  EXPECT_EQ(*ParseIntFlag<int64_t>("interval-ms", "250"), 250);
}

TEST(ParseIntFlagTest, RejectsValuesOutsideTheDestination) {
  EXPECT_FALSE(ParseIntFlag<uint32_t>("items", "4294967396").ok());
  EXPECT_FALSE(ParseIntFlag<uint16_t>("port", "65536").ok());
  EXPECT_FALSE(ParseIntFlag<int>("repeats", "2147483648").ok());
  EXPECT_FALSE(ParseIntFlag<uint64_t>("seed", "18446744073709551616").ok());
}

TEST(ParseIntFlagTest, RejectsSignsWhitespaceAndTrailingText) {
  for (const char* text : {"-5", "-0", "+5", " 5", "5 ", "2k", "abc", "",
                           "0x10", "1e3", "3.0"}) {
    EXPECT_FALSE(ParseIntFlag<uint64_t>("transactions", text).ok()) << text;
    EXPECT_FALSE(ParseIntFlag<int64_t>("iterations", text).ok()) << text;
  }
}

TEST(ParseIntFlagTest, ErrorNamesTheFlagAndTheRange) {
  Status status = ParseIntFlag<uint32_t>("items", "-5").status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("--items=-5"), std::string::npos);
  EXPECT_NE(status.ToString().find("[0, 4294967295]"), std::string::npos);
}

TEST(ParseIntFlagTest, RejectsValuesBelowTheMinimum) {
  EXPECT_EQ(*ParseIntFlag<int>("repeats", "1", 1), 1);
  Status status = ParseIntFlag<int>("repeats", "0", 1).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("--repeats=0 is not an integer in [1, "),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace ossm

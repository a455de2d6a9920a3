/**
 * @file
 * The drivers' number parser: a flag value is one number spanning the
 * whole text and inside the flag's range, or a named error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "cli_number.hpp"

using namespace tmo;
using cli::Lower;
using cli::parseNumber;

namespace
{

/** The error message parseNumber throws, or "" when it parses. */
template <typename T>
std::string
errorOf(const char *text, T lo, T hi, Lower lower = Lower::INCLUSIVE)
{
    try {
        parseNumber<T>("--flag", text, lo, hi, lower);
    } catch (const std::invalid_argument &error) {
        return error.what();
    }
    return "";
}

} // namespace

TEST(CliNumberTest, AcceptsWholeNumbersInRange)
{
    EXPECT_EQ(parseNumber("--minutes", "60", 1, cli::MAX_MINUTES), 60);
    EXPECT_EQ(parseNumber("--minutes", "1", 1, cli::MAX_MINUTES), 1);
    EXPECT_EQ(parseNumber<std::uint64_t>(
                  "--seed", "18446744073709551615", 0,
                  std::numeric_limits<std::uint64_t>::max()),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseNumber("--restart-max", "0", 0u, cli::MAX_RESTARTS), 0u);
    EXPECT_DOUBLE_EQ(
        parseNumber("--psi-threshold", "0.001", 0.0, 1.0, Lower::EXCLUSIVE),
        0.001);
    EXPECT_DOUBLE_EQ(
        parseNumber("--psi-threshold", "1", 0.0, 1.0, Lower::EXCLUSIVE), 1.0);
    EXPECT_DOUBLE_EQ(
        parseNumber("--slo-p99-us", "2e3", 0.0, 1e9, Lower::EXCLUSIVE),
        2000.0);
}

TEST(CliNumberTest, RejectsPartialAndMalformedText)
{
    // A prefix parse (std::stoi) reads "1e300" as 1 and "12abc" as 12.
    for (const char *text : {"1e300", "12abc", "", " 5", "5 ", "+5", "0x10",
                             "abc", "1.5"})
        EXPECT_NE(errorOf(text, 1, cli::MAX_MINUTES), "") << text;
    for (const char *text : {"", "0.5x", "1,5", "."})
        EXPECT_NE(errorOf(text, 0.0, 1.0), "") << text;
}

TEST(CliNumberTest, RejectsSignsAndOverflowOnUnsigned)
{
    // std::stoull wraps "-1" to 2^64 - 1 and throws std::out_of_range
    // on 20 nines.
    EXPECT_NE(errorOf<std::uint64_t>("-1", 0, 100), "");
    EXPECT_NE(errorOf<std::uint64_t>("99999999999999999999", 1, 1 << 20),
              "");
    EXPECT_NE(errorOf<std::size_t>("18446744073709551615", 1,
                                   cli::MAX_HOSTS),
              "");
    EXPECT_NE(errorOf<int>("-1", 1, cli::MAX_MINUTES), "");
    EXPECT_NE(errorOf<int>("2147483648", 1, cli::MAX_MINUTES), "");
}

TEST(CliNumberTest, RejectsNonFiniteAndOutOfRangeDoubles)
{
    for (const char *text : {"nan", "NaN", "inf", "-inf", "0", "-0.5",
                             "1.0000001", "1e300"})
        EXPECT_NE(errorOf(text, 0.0, 1.0, Lower::EXCLUSIVE), "") << text;
    EXPECT_EQ(errorOf("0", 0.0, 1.0, Lower::INCLUSIVE), "");
}

TEST(CliNumberTest, ErrorNamesFlagRangeAndText)
{
    EXPECT_EQ(errorOf("nan", 0.0, 1.0, Lower::EXCLUSIVE),
              "--flag must be a number in (0, 1], got 'nan'");
    EXPECT_EQ(errorOf("1e300", 1, 10),
              "--flag must be an integer in [1, 10], got '1e300'");
}

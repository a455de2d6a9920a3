/**
 * @file
 * Whole-string, range-checked parsing of command-line numbers, shared
 * by the tmo and chaos_soak drivers.
 *
 * std::stoi and its kin read a prefix ("1e300" reads as 1), wrap a
 * negative value into an unsigned type ("-1"), accept "nan", and throw
 * std::out_of_range past the type. Every numeric flag goes through
 * parseNumber() instead: the value must be one number spanning all of
 * the text and inside the flag's range, or the flag fails with an
 * error that names it, its range and the text.
 */

#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tmo::cli
{

/** Upper bounds the drivers share: flags with the same meaning take
 *  the same range in both. */
inline constexpr int MAX_MINUTES = 10'000'000;
inline constexpr int MAX_SECONDS = 10'000'000;
inline constexpr std::size_t MAX_HOSTS = std::size_t{1} << 20;
inline constexpr unsigned MAX_JOBS = 1024;
inline constexpr std::uint64_t MAX_TRACE_BUFFER_MB = 4096;
inline constexpr unsigned MAX_RESTARTS = 1u << 20;

/** Whether a flag's range includes its lower bound. */
enum class Lower { INCLUSIVE, EXCLUSIVE };

/**
 * Parse @p text, the value given for @p flag, as a T in [lo, hi], or in
 * (lo, hi] with Lower::EXCLUSIVE.
 *
 * @throws std::invalid_argument "<flag> must be an integer in [lo, hi],
 *         got '<text>'" (or "a number" for floating-point T).
 */
template <typename T>
T
parseNumber(std::string_view flag, std::string_view text, T lo, T hi,
            Lower lower = Lower::INCLUSIVE)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    // NaN fails both comparisons.
    const bool above_lo =
        lower == Lower::INCLUSIVE ? value >= lo : value > lo;
    if (ec == std::errc{} && stop == end && above_lo && value <= hi)
        return value;
    std::ostringstream error;
    error << flag << " must be "
          << (std::is_integral_v<T> ? "an integer" : "a number") << " in "
          << (lower == Lower::INCLUSIVE ? "[" : "(") << lo << ", " << hi
          << "], got '" << text << "'";
    throw std::invalid_argument(error.str());
}

} // namespace tmo::cli

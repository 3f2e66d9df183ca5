/**
 * @file
 * Strict number readers for flags and spec strings: all of the text
 * must read as one number, or the reader returns nothing. Callers
 * add their own range checks and messages.
 */

#ifndef EDGEPCC_COMMON_PARSE_NUMBER_H
#define EDGEPCC_COMMON_PARSE_NUMBER_H

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <system_error>

namespace edgepcc {

/**
 * All of `text` as a finite double (strtod syntax). NaN and
 * infinity are refused: every comparison with NaN is false, so it
 * would slip past the caller's range checks.
 */
inline std::optional<double>
finiteNumber(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value))
        return std::nullopt;
    return value;
}

/**
 * All of `text` as a whole decimal that fits T (std::from_chars
 * syntax): no fraction or exponent, and a sign only when T is
 * signed. A double outside T's range has no defined conversion to
 * it, so strtod is no way to read one.
 */
template <typename T>
std::optional<T>
wholeNumber(const std::string &text)
{
    const char *end = text.data() + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

}  // namespace edgepcc

#endif  // EDGEPCC_COMMON_PARSE_NUMBER_H

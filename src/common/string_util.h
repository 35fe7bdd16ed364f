#ifndef GTPQ_COMMON_STRING_UTIL_H_
#define GTPQ_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gtpq {

/// Splits `s` on `sep`, omitting empty pieces when `skip_empty` is true.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool skip_empty = true);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Checked decimal parses of a whole token. Each returns false, leaving
/// *out untouched, on an empty token, leading whitespace or '+',
/// trailing characters, or a value out of the type's range. ParseU32
/// and ParseU64 also refuse '-'; ParseDouble refuses non-finite values.
bool ParseU32(std::string_view text, uint32_t* out);
bool ParseU64(std::string_view text, uint64_t* out);
bool ParseI64(std::string_view text, int64_t* out);
bool ParseDouble(std::string_view text, double* out);

/// Renders n with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(long long n);

}  // namespace gtpq

#endif  // GTPQ_COMMON_STRING_UTIL_H_

#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace gtpq {

std::vector<std::string> Split(std::string_view s, char sep,
                               bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) pos = s.size();
    std::string_view piece = s.substr(start, pos - start);
    if (!piece.empty() || !skip_empty) out.emplace_back(piece);
    start = pos + 1;
    if (pos == s.size()) break;
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

// std::from_chars already refuses leading whitespace, '+' and (for
// unsigned types) '-', and reports overflow; this adds the whole-token
// check.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseU32(std::string_view text, uint32_t* out) {
  return ParseWhole(text, out);
}

bool ParseU64(std::string_view text, uint64_t* out) {
  return ParseWhole(text, out);
}

bool ParseI64(std::string_view text, int64_t* out) {
  return ParseWhole(text, out);
}

bool ParseDouble(std::string_view text, double* out) {
  double value = 0;
  if (!ParseWhole(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string FormatWithCommas(long long n) {
  std::string digits = std::to_string(n < 0 ? -n : n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (n < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

}  // namespace gtpq

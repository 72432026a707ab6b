// Small string utilities shared by the parsers and report writers.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace rtcad {

/// Split on any run of characters from `delims`; empty tokens are dropped.
std::vector<std::string> split(std::string_view s,
                               std::string_view delims = " \t");

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Strict decimal integer: the whole of `text` must be an optional '-'
/// and digits (no blanks, no '+', no trailing bytes), and the value must
/// lie in [lo, hi]. Anything else — "12abc", "", an overflowing digit
/// string — is nullopt, never a silent clamp or prefix parse. The one
/// integer parser of the CLI and the wire protocol.
template <class T = long long>
std::optional<T> parse_int(std::string_view text,
                           std::type_identity_t<T> lo =
                               std::numeric_limits<T>::min(),
                           std::type_identity_t<T> hi =
                               std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
      value > hi)
    return std::nullopt;
  return value;
}

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace rtcad

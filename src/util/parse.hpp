// Strict numeric parsing for command-line flags. Each parser takes the whole
// string or nothing — no empty input, no leading space or sign, no trailing
// junk, no silent wrap-around — so a mistyped value is a usage error instead
// of a quiet 0 (atoi/atof) or a truncated prefix (strtoull).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>

namespace difane::util {

// A count or seed: decimal digits, or 0x-prefixed hex digits (so printed
// replay cookies paste back in), within T's range.
template <typename T>
std::optional<T> parse_count(const char* s) {
  static_assert(std::is_integral_v<T>);
  const bool hex = s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  const char* digits = hex ? s + 2 : s;
  if (*digits == '\0') return std::nullopt;
  for (const char* c = digits; *c != '\0'; ++c) {
    const auto u = static_cast<unsigned char>(*c);
    if (hex ? !std::isxdigit(u) : !std::isdigit(u)) return std::nullopt;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(digits, nullptr, hex ? 16 : 10);
  if (errno == ERANGE ||
      v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(v);
}

// A finite double in strtod syntax, whole string.
inline std::optional<double> parse_double(const char* s) {
  if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace difane::util

#pragma once

/// @file strings.hpp
/// Small string helpers (formatting, trimming, splitting, number
/// parsing) shared by the tech/net/solution/checkpoint file parsers and
/// the table writers. libstdc++ 12 does not ship std::format, so numeric
/// formatting goes through snprintf wrappers.
///
/// Parsing is locale-free: whitespace is the fixed ASCII set (space,
/// \t, \n, \v, \f, \r) whatever the process's locale says, and numbers
/// are read with std::from_chars, never with the LC_NUMERIC-dependent
/// strtod family.

#include <string>
#include <string_view>
#include <vector>

namespace rip {

/// printf-style double with fixed decimals, e.g. fmt_f(3.14159, 2) == "3.14".
std::string fmt_f(double v, int decimals);

/// Fixed decimals followed by a unit suffix, e.g. "12.50 ns".
std::string fmt_unit(double v, int decimals, const std::string& unit);

/// True for ASCII whitespace, the C locale's isspace set: ' ', '\t',
/// '\n', '\v', '\f', '\r'.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strip ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// Split `s` on runs of ASCII whitespace into `out` (cleared first, its
/// capacity kept for the next line); no empty tokens. The tokens are
/// views into the characters `s` refers to, so they are valid only as
/// long as those are alive and unchanged: split a named line buffer,
/// never a temporary such as `trim(line)`.
void split_ws(std::string_view s, std::vector<std::string_view>& out);

/// Split on every occurrence of `delim`; keeps empty tokens, so
/// "a,,b" -> {"a", "", "b"} and "" -> {""}.
std::vector<std::string> split_on(const std::string& s, char delim);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Parse a whole string as a double, throwing rip::Error with `context`
/// on failure. The grammar is std::from_chars' general format (decimal
/// with optional fraction and exponent, "inf", "infinity", "nan",
/// "nan(...)", any case) plus a leading '+', so "+2.5" and ".5" parse,
/// and subnormals such as "5e-324" parse to their exact value. Rejected
/// as "expected a number, got '...'": any other character anywhere,
/// including surrounding whitespace and hex floats ("0x1p3"). A value
/// that overflows or underflows to zero ("1e999", "1e-400") is "number
/// out of range: '...'".
double parse_double(std::string_view s, std::string_view context);

/// Parse an int, throwing rip::Error with `context` on failure.
int parse_int(const std::string& s, const std::string& context);

}  // namespace rip

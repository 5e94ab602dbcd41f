#include "util/strings.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>

#include "util/error.hpp"

namespace rip {

std::string fmt_f(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_unit(double v, int decimals, const std::string& unit) {
  return fmt_f(v, decimals) + " " + unit;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

void split_ws(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t j = i;
    while (j < s.size() && !is_space(s[j])) ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
}

std::vector<std::string> split_on(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t end = s.find(delim, begin);
    if (end == std::string::npos) {
      out.push_back(s.substr(begin));
      return out;
    }
    out.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

// Trailing characters ("5x") are malformed input like any other, so they
// get the same plain message as a value from_chars cannot start on. An
// overflow is out of range even when junk follows it ("1e999x").
double parse_double(std::string_view s, std::string_view context) {
  const bool plus = !s.empty() && s.front() == '+';
  const std::string_view body = plus ? s.substr(1) : s;
  // from_chars takes a '-' but no '+'; after an explicit '+' it must not
  // be handed a second sign.
  if (!(plus && !body.empty() && body.front() == '-')) {
    double v = 0;
    const char* end = body.data() + body.size();
    const auto [ptr, ec] = std::from_chars(body.data(), end, v);
    if (ec == std::errc() && ptr == end) return v;
    if (ec == std::errc::result_out_of_range) {
      throw Error("number out of range: '" + std::string(s) + "' (" +
                  std::string(context) + ")");
    }
  }
  throw Error("expected a number, got '" + std::string(s) + "' (" +
              std::string(context) + ")");
}

int parse_int(const std::string& s, const std::string& context) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
    throw Error("integer out of range: '" + s + "' (" + context + ")");
  }
  throw Error("expected an integer, got '" + s + "' (" + context + ")");
}

}  // namespace rip

#include "util/strings.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

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

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
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
// get the same plain message as a value stod/stoi cannot start on.
double parse_double(const std::string& s, const std::string& context) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
    throw Error("number out of range: '" + s + "' (" + context + ")");
  }
  throw Error("expected a number, got '" + s + "' (" + context + ")");
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

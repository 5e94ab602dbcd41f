#include "net/solution_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rip::net {

namespace {

/// A malformed solution file is a typed input error, not a precondition.
void expect(bool ok, const std::string& message) {
  if (!ok) throw Error(message);
}

}  // namespace

ParsedSolution read_solution(std::istream& is) {
  std::string line;
  int line_no = 0;
  bool got_magic = false;
  std::string net_name;
  std::vector<Repeater> repeaters;

  std::vector<std::string_view> tokens;
  while (std::getline(is, line)) {
    ++line_no;
    split_ws(line, tokens);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    const std::string_view kind = tokens[0];
    if (kind == "ripsol") {
      expect(tokens.size() == 2 && tokens[1] == "1",
             "unsupported ripsol version at line " + std::to_string(line_no));
      got_magic = true;
    } else if (kind == "net") {
      expect(tokens.size() == 2,
             "net takes one token at line " + std::to_string(line_no));
      net_name = tokens[1];
    } else if (kind == "repeater") {
      expect(tokens.size() == 5 && tokens[1] == "x_um" && tokens[3] == "w_u",
             "repeater line must be 'repeater x_um <pos> w_u <width>' at "
             "line " + std::to_string(line_no));
      const Repeater r{parse_double(tokens[2], "x_um"),
                       parse_double(tokens[4], "w_u")};
      expect(std::isfinite(r.position_um) && std::isfinite(r.width_u) &&
                 r.width_u > 0,
             "repeater x_um must be finite and w_u finite and > 0 at line " +
                 std::to_string(line_no));
      repeaters.push_back(r);
    } else {
      throw Error("unknown directive '" + std::string(kind) + "' at line " +
                  std::to_string(line_no));
    }
  }
  expect(got_magic, "missing 'ripsol 1' header");
  std::vector<double> positions;
  for (const Repeater& r : repeaters) positions.push_back(r.position_um);
  std::sort(positions.begin(), positions.end());
  expect(std::adjacent_find(positions.begin(), positions.end()) ==
             positions.end(),
         "two repeaters at the same position");
  ParsedSolution out;
  out.solution = RepeaterSolution(std::move(repeaters));
  out.net_name = std::move(net_name);
  return out;
}

ParsedSolution read_solution_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw Error(path + ": cannot open solution file");
  return read_solution(in);
}

void write_solution(std::ostream& os, const RepeaterSolution& solution,
                    const std::string& net_name) {
  os << "ripsol 1\n";
  if (!net_name.empty()) os << "net " << net_name << "\n";
  for (const auto& r : solution.repeaters()) {
    os << "repeater x_um " << r.position_um << " w_u " << r.width_u << "\n";
  }
}

}  // namespace rip::net

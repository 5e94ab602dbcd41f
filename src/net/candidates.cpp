#include "net/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace rip::net {

std::vector<double> uniform_candidates(const Net& net, double pitch_um) {
  RIP_REQUIRE(pitch_um > 0, "candidate pitch must be positive");
  const double total = net.total_length_um();
  // Sized in floating point first: a cast of inf is undefined behaviour,
  // and a reserve of 5e12 positions is one no machine can satisfy.
  const double grid = total / pitch_um;
  if (!(grid <= static_cast<double>(kMaxCandidates))) {
    std::ostringstream msg;
    msg << "net '" << net.name() << "' spans " << grid
        << " candidate positions at " << pitch_um << " um pitch (limit "
        << kMaxCandidates << ")";
    throw Error(msg.str());
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(grid) + 1);
  for (double pos = pitch_um; pos < total; pos += pitch_um) {
    if (net.placement_legal(pos)) out.push_back(pos);
  }
  return out;
}

std::vector<double> window_candidates(const Net& net,
                                      const std::vector<double>& centers_um,
                                      int half_window, double pitch_um) {
  RIP_REQUIRE(half_window >= 0, "window size must be non-negative");
  RIP_REQUIRE(pitch_um > 0, "window pitch must be positive");
  std::vector<double> out;
  out.reserve(centers_um.size() * (2 * half_window + 1));
  for (const double c : centers_um) {
    for (int j = -half_window; j <= half_window; ++j) {
      const double pos = c + j * pitch_um;
      if (net.placement_legal(pos)) out.push_back(pos);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](double a, double b) {
                          return std::abs(a - b) < kWindowDedupTolUm;
                        }),
            out.end());
  return out;
}

}  // namespace rip::net

#include "dp/brute_force.hpp"

#include <cmath>
#include <limits>

#include "dp/workspace.hpp"
#include "rc/buffered_chain.hpp"
#include "util/error.hpp"

namespace rip::dp {

BruteForceResult brute_force(const net::Net& net,
                             const tech::RepeaterDevice& device,
                             const RepeaterLibrary& library,
                             const std::vector<double>& candidates_um,
                             double timing_target_fs,
                             std::size_t max_assignments, Workspace& ws) {
  const std::size_t choices = library.size() + 1;  // widths or "no repeater"
  double estimate = 1.0;
  for (std::size_t i = 0; i < candidates_um.size(); ++i)
    estimate *= static_cast<double>(choices);
  RIP_REQUIRE(estimate <= static_cast<double>(max_assignments),
              "brute force would enumerate too many assignments");

  BruteForceResult result;
  result.min_delay_fs = std::numeric_limits<double>::infinity();
  double best_width = std::numeric_limits<double>::infinity();
  double best_delay_at_width = std::numeric_limits<double>::infinity();

  // Mixed-radix counter over candidates; digit 0 = no repeater, digit k
  // = library width k-1. The expansion buffer lives in the workspace so
  // the enumeration loop reuses one capacity across assignments.
  std::vector<std::size_t> digits(candidates_um.size(), 0);
  ws.repeaters.reserve(candidates_um.size());
  while (true) {
    ws.repeaters.clear();
    for (std::size_t i = 0; i < digits.size(); ++i) {
      if (digits[i] > 0) {
        ws.repeaters.push_back(net::Repeater{
            candidates_um[i], library.widths_u()[digits[i] - 1]});
      }
    }
    net::RepeaterSolution solution(ws.repeaters);
    const double delay = rc::elmore_delay_fs(net, solution, device);
    const double width = solution.total_width_u();
    ++result.assignments;

    if (delay < result.min_delay_fs) {
      result.min_delay_fs = delay;
      result.min_delay_solution = solution;
    }
    if (delay <= timing_target_fs &&
        (width < best_width ||
         (width == best_width && delay < best_delay_at_width))) {
      best_width = width;
      best_delay_at_width = delay;
      result.feasible = true;
      result.solution = solution;
      result.total_width_u = width;
      result.delay_fs = delay;
    }

    // Advance the counter.
    std::size_t i = 0;
    for (; i < digits.size(); ++i) {
      if (++digits[i] < choices) break;
      digits[i] = 0;
    }
    if (i == digits.size()) break;
    if (digits.empty()) break;
  }
  return result;
}

}  // namespace rip::dp

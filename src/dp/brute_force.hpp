#pragma once

/// @file brute_force.hpp
/// Exhaustive enumeration of every repeater assignment over a candidate
/// set — exponential, test-only. Used by the property tests to prove the
/// DP engine optimal on small instances (the DP must return exactly the
/// enumerated optimum) and to validate the pruning rules.

#include <vector>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace rip::dp {

/// Result of exhaustive search.
struct BruteForceResult {
  bool feasible = false;
  net::RepeaterSolution solution;  ///< min-width feasible assignment
  double total_width_u = 0;
  double delay_fs = 0;             ///< Elmore delay of `solution`
  double min_delay_fs = 0;         ///< best delay over all assignments
  net::RepeaterSolution min_delay_solution;
  std::size_t assignments = 0;     ///< how many assignments were evaluated
};

/// Enumerate all (|library|+1)^|candidates| assignments. Throws if that
/// count exceeds `max_assignments` (guards against accidental blow-up in
/// tests). Delays are evaluated with the independent rc::BufferedChain
/// evaluator, so agreement with the DP also validates the DP's
/// incremental Elmore bookkeeping. The per-assignment repeater scratch
/// lives in `ws`, by default this thread's Workspace::local().
BruteForceResult brute_force(const net::Net& net,
                             const tech::RepeaterDevice& device,
                             const RepeaterLibrary& library,
                             const std::vector<double>& candidates_um,
                             double timing_target_fs,
                             std::size_t max_assignments = 2'000'000,
                             Workspace& ws = Workspace::local());

}  // namespace rip::dp

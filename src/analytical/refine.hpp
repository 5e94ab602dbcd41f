#pragma once

/// @file refine.hpp
/// Algorithm REFINE (Fig. 5 of the paper): iteratively re-solve the
/// optimal continuous widths (width_solver.hpp) and move repeaters along
/// the net (movement.hpp) until the total-width improvement per
/// iteration drops below epsilon_0 = 1e-3. Movement runs coarse-to-fine:
/// steps of 8, 4, 2 and then 1 times the paper's preselected distance
/// (50 um), each iterated until it stops paying; large early steps
/// escape shallow basins.
///
/// REFINE assumes the repeater count and ordering of the initial solution
/// (from the coarse DP) and treats widths as continuous; RIP then rounds
/// the result back into a discrete library (core/rip.hpp).

#include <vector>

#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace rip::analytical {

/// REFINE knobs.
struct RefineOptions {
  /// Movement iterations across all step scales (0 = width solve only).
  int max_iterations = 120;
  /// Section 7 extension: a move into a forbidden zone hops to the
  /// zone's far boundary instead of being skipped.
  bool allow_zone_hop = false;
};

/// Result of a REFINE run.
struct RefineResult {
  /// Final placement with *continuous* widths.
  std::vector<double> positions_um;
  std::vector<double> widths_u;
  double lambda = 0;
  double delay_fs = 0;          ///< Elmore delay at the final solution
  double total_width_u = 0;
  int iterations = 0;           ///< movement iterations executed
  bool width_solve_ok = false;  ///< initial width solve converged
  /// Total width after each width solve (monotone non-increasing).
  std::vector<double> width_history_u;

  /// Convenience: the result as a RepeaterSolution.
  net::RepeaterSolution solution() const;
};

/// Run REFINE from an initial discrete solution. If the initial width
/// solve fails (tau_t below the continuous optimum for this repeater
/// count/placement), returns with width_solve_ok == false and the initial
/// solution untouched — RIP falls back to the DP result in that case.
RefineResult refine(const net::Net& net, const tech::RepeaterDevice& device,
                    const net::RepeaterSolution& initial, double tau_t_fs,
                    const RefineOptions& options = {});

}  // namespace rip::analytical

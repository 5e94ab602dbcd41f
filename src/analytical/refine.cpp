#include "analytical/refine.hpp"

#include <cmath>

#include "analytical/movement.hpp"
#include "analytical/width_solver.hpp"
#include "rc/buffered_chain.hpp"
#include "util/error.hpp"

namespace rip::analytical {

namespace {

constexpr double kEpsilon0 = 1e-3;  // relative width improvement threshold
constexpr double kBaseStepUm = 50.0;  // the paper's "preselected distance"
constexpr double kStepScales[] = {8.0, 4.0, 2.0, 1.0};

}  // namespace

net::RepeaterSolution RefineResult::solution() const {
  return repeaters_at(positions_um, widths_u);
}

RefineResult refine(const net::Net& net, const tech::RepeaterDevice& device,
                    const net::RepeaterSolution& initial, double tau_t_fs,
                    const RefineOptions& options) {
  RIP_REQUIRE(tau_t_fs > 0, "timing target must be positive");
  RefineResult result;
  for (const auto& r : initial.repeaters()) {
    result.positions_um.push_back(r.position_um);
    result.widths_u.push_back(r.width_u);
  }
  if (initial.empty()) {
    // Nothing to refine; report the unbuffered delay.
    result.width_solve_ok = true;
    result.delay_fs =
        rc::elmore_delay_fs(net, net::RepeaterSolution{}, device);
    return result;
  }

  // Line 1: optimal continuous widths and lambda for the DP placement.
  WidthSolveResult ws =
      solve_widths(net, device, result.positions_um, tau_t_fs);
  if (!ws.converged) {
    result.width_solve_ok = false;
    return result;  // caller falls back to the DP solution
  }
  result.width_solve_ok = true;
  result.widths_u = ws.widths_u;
  result.lambda = ws.lambda;
  result.delay_fs = ws.delay_fs;
  result.total_width_u = ws.total_width_u;
  result.width_history_u.push_back(ws.total_width_u);

  // Lines 3-9: move repeaters, re-solve widths, until the improvement
  // stalls. Movement runs coarse-to-fine over kStepScales; state reverts
  // if a step fails to improve, which keeps the width history monotone.
  double w_total = ws.total_width_u;
  int iterations = 0;
  for (const double scale : kStepScales) {
    const double step_um = kBaseStepUm * scale;
    while (iterations < options.max_iterations) {
      std::vector<double> trial_positions = result.positions_um;
      const int moved =
          move_repeaters(net, device, trial_positions, result.widths_u,
                         step_um, options.allow_zone_hop);
      if (moved == 0) break;

      WidthSolveResult trial = solve_widths(net, device, trial_positions,
                                            tau_t_fs, result.lambda);
      if (!trial.converged || trial.total_width_u > w_total) {
        break;  // movement overshot at this scale: try a finer step
      }
      ++iterations;
      result.positions_um = std::move(trial_positions);
      result.widths_u = trial.widths_u;
      result.lambda = trial.lambda;
      result.delay_fs = trial.delay_fs;
      result.total_width_u = trial.total_width_u;
      result.width_history_u.push_back(trial.total_width_u);
      result.iterations = iterations;

      const double eps = (w_total - trial.total_width_u) / w_total;
      w_total = trial.total_width_u;
      if (eps < kEpsilon0) break;
    }
  }
  return result;
}

}  // namespace rip::analytical

#include "analytical/width_solver.hpp"

#include <algorithm>
#include <cmath>

#include "rc/buffered_chain.hpp"
#include "util/error.hpp"

namespace rip::analytical {

namespace {

constexpr double kMinWidthU = 1e-3;    // width floor during iteration
constexpr double kGsTol = 1e-12;       // Gauss–Seidel relative convergence
constexpr int kGsMaxSweeps = 500;
constexpr double kDelayRelTol = 1e-9;  // |tau - tau_t| / tau_t convergence
constexpr int kLambdaMaxIters = 200;
constexpr double kLambdaMin = 1e-15;   // bracket lower bound [u/fs]
constexpr double kLambdaMax = 1e9;     // bracket growth limit [u/fs]

/// One lambda evaluation: Gauss–Seidel to the width fixed point (warm
/// started from `widths`), returning the delay of `chain` re-sized to it.
double widths_for_lambda(const tech::RepeaterDevice& device,
                         rc::BufferedChain& chain, double lambda,
                         std::vector<double>& widths) {
  const std::size_t n = widths.size();
  const auto& stages = chain.stages();
  const double rs = device.rs_ohm;
  const double co = device.co_ff;
  const double wd = stages.front().driver_width_u;  // the net's driver
  const double wr = stages.back().load_width_u;     // the net's receiver
  for (int sweep = 0; sweep < kGsMaxSweeps; ++sweep) {
    double max_rel_change = 0.0;
    for (std::size_t i = n; i-- > 0;) {
      // Paper indices: repeater i+1 in 1-based terms. Stage i covers the
      // wire upstream of this repeater, stage i+1 the wire downstream.
      const double w_prev = (i == 0) ? wd : widths[i - 1];
      const double w_next = (i + 1 == n) ? wr : widths[i + 1];
      const double r_up = stages[i].wire_resistance_ohm;        // R_{i-1}
      const double c_down = stages[i + 1].wire_capacitance_ff;  // C_i
      const double num = lambda * rs * (c_down + co * w_next);
      const double den = 1.0 + lambda * co * (r_up + rs / w_prev);
      const double w_new = std::max(kMinWidthU, std::sqrt(num / den));
      max_rel_change = std::max(
          max_rel_change,
          std::abs(w_new - widths[i]) / std::max(widths[i], kMinWidthU));
      widths[i] = w_new;
    }
    if (max_rel_change < kGsTol) break;
  }
  chain.set_widths(widths);
  return chain.total_delay_fs();
}

}  // namespace

net::RepeaterSolution repeaters_at(const std::vector<double>& positions_um,
                                   const std::vector<double>& widths_u) {
  RIP_REQUIRE(positions_um.size() == widths_u.size(),
              "positions/widths size mismatch");
  RIP_REQUIRE(std::is_sorted(positions_um.begin(), positions_um.end()),
              "repeater positions must be sorted");
  std::vector<net::Repeater> reps;
  reps.reserve(positions_um.size());
  for (std::size_t i = 0; i < positions_um.size(); ++i)
    reps.push_back(net::Repeater{positions_um[i], widths_u[i]});
  return net::RepeaterSolution(std::move(reps));
}

WidthSolveResult solve_widths(const net::Net& net,
                              const tech::RepeaterDevice& device,
                              const std::vector<double>& positions_um,
                              double tau_t_fs, double lambda_hint) {
  RIP_REQUIRE(tau_t_fs > 0, "timing target must be positive");
  std::vector<double> widths(positions_um.size(), 1.0);
  rc::BufferedChain chain(net, repeaters_at(positions_um, widths), device);
  const auto finish = [&](double lambda, double delay_fs, bool converged) {
    WidthSolveResult result{widths, lambda, delay_fs, 0, converged};
    for (const double w : widths) result.total_width_u += w;
    return result;
  };
  if (widths.empty()) {
    const double delay_fs = chain.total_delay_fs();
    return finish(0, delay_fs, delay_fs <= tau_t_fs);
  }

  auto delay_at = [&](double lambda) {
    return widths_for_lambda(device, chain, lambda, widths);
  };

  // Bracket lambda: tau(lambda) is monotone decreasing. Small lambda ->
  // tiny widths -> huge delay; grow lambda until the target is met. A
  // lambda_hint narrows the initial bracket (the movement loop re-solves
  // with a nearly unchanged multiplier).
  double lo = kLambdaMin;
  if (lambda_hint > 0) {
    lo = std::clamp(lambda_hint / 100.0, kLambdaMin, kLambdaMax);
  }
  double lo_delay = delay_at(lo);
  while (lo_delay <= tau_t_fs && lo > kLambdaMin) {
    lo = std::max(kLambdaMin, lo / 100.0);
    lo_delay = delay_at(lo);
  }
  if (lo_delay <= tau_t_fs) {
    // Even near-zero widths meet the target: the relaxation's optimum is
    // the width floor everywhere.
    return finish(lo, lo_delay, true);
  }
  double hi = lo;
  double hi_delay = lo_delay;
  while (hi_delay > tau_t_fs && hi < kLambdaMax) {
    hi *= 10.0;
    hi_delay = delay_at(hi);
  }
  if (hi_delay > tau_t_fs) {
    // tau_t below the continuous minimum for this placement: infeasible.
    return finish(hi, hi_delay, false);
  }

  // Log-space bisection on lambda.
  double mid = hi;
  double mid_delay = hi_delay;
  for (int it = 0; it < kLambdaMaxIters; ++it) {
    mid = std::sqrt(lo * hi);
    mid_delay = delay_at(mid);
    if (std::abs(mid_delay - tau_t_fs) <= kDelayRelTol * tau_t_fs) break;
    if (mid_delay > tau_t_fs) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Land on the feasible side of the bracket.
  if (mid_delay > tau_t_fs) {
    mid = hi;
    mid_delay = delay_at(mid);
  }
  return finish(mid, mid_delay, true);
}

std::vector<double> kkt_residuals(const net::Net& net,
                                  const tech::RepeaterDevice& device,
                                  const std::vector<double>& positions_um,
                                  const std::vector<double>& widths_u,
                                  double lambda) {
  const rc::BufferedChain chain(net, repeaters_at(positions_um, widths_u),
                                device);
  const auto& stages = chain.stages();
  const double rs = device.rs_ohm;
  const double co = device.co_ff;
  std::vector<double> residuals(widths_u.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    // Repeater i loads stage i and drives stage i+1.
    const rc::Stage& up = stages[i];
    const rc::Stage& down = stages[i + 1];
    const double w = up.load_width_u;
    const double r_up = up.wire_resistance_ohm;      // R_{i-1}
    const double c_down = down.wire_capacitance_ff;  // C_i
    residuals[i] =
        1.0 + lambda * (co * (r_up + rs / up.driver_width_u) -
                        rs * (c_down + co * down.load_width_u) / (w * w));
  }
  return residuals;
}

}  // namespace rip::analytical

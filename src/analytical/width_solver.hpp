#pragma once

/// @file width_solver.hpp
/// The analytical width solve at the heart of REFINE (Fig. 5, lines 1
/// and 7): given fixed repeater positions, find the *continuous* widths
/// w_1..w_n and multiplier lambda satisfying the KKT system
///
///   tau_total(w) = tau_t                                  (Eq. 5)
///   1 + lambda * (C_o (R_{i-1} + R_s/w_{i-1})
///                 - R_s (C_i + C_o w_{i+1}) / w_i^2) = 0  (Eq. 8)
///
/// Structure of the solve: for fixed lambda the stationarity equations
/// give w_i = sqrt(lambda R_s (C_i + C_o w_{i+1}) /
///               (1 + lambda C_o (R_{i-1} + R_s/w_{i-1}))),
/// which a Gauss–Seidel sweep (i = n..1) drives to a fixed point; the
/// objective p + lambda*tau is a posynomial in w, so the fixed point is
/// the global minimizer and tau(lambda) is monotone decreasing — the
/// outer loop is a robust log-space bisection on lambda.
///
/// One rc::BufferedChain per position set is the stage model: the sweep
/// reads its stage totals R_{i-1} and C_i, and each lambda probe
/// re-sizes it in place and reads its Elmore delay.

#include <vector>

#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace rip::analytical {

/// Solution of the KKT system.
struct WidthSolveResult {
  std::vector<double> widths_u;  ///< optimal continuous widths (size n)
  double lambda = 0;             ///< Lagrange multiplier [u/fs]
  double delay_fs = 0;           ///< Elmore delay at the solution
  double total_width_u = 0;      ///< sum of widths (the objective)
  bool converged = false;        ///< false if tau_t is unreachable with
                                 ///< this repeater count and placement
};

/// The placement REFINE works on as a solution: repeaters of `widths_u`
/// at `positions_um`, which must be sorted (a RepeaterSolution would
/// reorder them silently).
net::RepeaterSolution repeaters_at(const std::vector<double>& positions_um,
                                   const std::vector<double>& widths_u);

/// Solve for the optimal continuous widths at fixed positions.
/// Positions must be sorted, strictly inside (0, L). With n == 0 the
/// result has no widths and reports the unbuffered delay; it converges
/// iff that delay already meets tau_t. `lambda_hint` > 0 warm-starts the
/// lambda bracket near an expected multiplier (REFINE passes the one of
/// its previous placement).
WidthSolveResult solve_widths(const net::Net& net,
                              const tech::RepeaterDevice& device,
                              const std::vector<double>& positions_um,
                              double tau_t_fs, double lambda_hint = 0);

/// Residuals of Eq. (8) at (widths, lambda) — near zero at a converged
/// solution. Exposed for the property tests.
std::vector<double> kkt_residuals(const net::Net& net,
                                  const tech::RepeaterDevice& device,
                                  const std::vector<double>& positions_um,
                                  const std::vector<double>& widths_u,
                                  double lambda);

}  // namespace rip::analytical

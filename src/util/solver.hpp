#pragma once

/// @file solver.hpp
/// The tridiagonal solve of the backward-Euler transient simulator
/// (sim/transient.hpp), its only user. REFINE's lambda search is its own
/// log-space bisection (analytical/width_solver.cpp).

#include <vector>

namespace rip {

/// Solve a tridiagonal system in place via the Thomas algorithm.
///
/// The system is: lower[i] * x[i-1] + diag[i] * x[i] + upper[i] * x[i+1]
/// = rhs[i], with lower[0] and upper[n-1] ignored. Returns the solution
/// vector. Throws rip::Error on size mismatch or a (numerically) singular
/// pivot.
std::vector<double> solve_tridiagonal(std::vector<double> lower,
                                      std::vector<double> diag,
                                      std::vector<double> upper,
                                      std::vector<double> rhs);

}  // namespace rip

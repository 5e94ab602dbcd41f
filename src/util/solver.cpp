#include "util/solver.hpp"

#include "util/error.hpp"

namespace rip {

std::vector<double> solve_tridiagonal(std::vector<double> lower,
                                      std::vector<double> diag,
                                      std::vector<double> upper,
                                      std::vector<double> rhs) {
  const std::size_t n = diag.size();
  RIP_REQUIRE(n > 0, "solve_tridiagonal: empty system");
  RIP_REQUIRE(lower.size() == n && upper.size() == n && rhs.size() == n,
              "solve_tridiagonal: band size mismatch");
  // Forward elimination.
  for (std::size_t i = 1; i < n; ++i) {
    RIP_REQUIRE(diag[i - 1] != 0.0, "solve_tridiagonal: singular pivot");
    const double m = lower[i] / diag[i - 1];
    diag[i] -= m * upper[i - 1];
    rhs[i] -= m * rhs[i - 1];
  }
  RIP_REQUIRE(diag[n - 1] != 0.0, "solve_tridiagonal: singular pivot");
  // Back substitution.
  std::vector<double> x(n);
  x[n - 1] = rhs[n - 1] / diag[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = (rhs[i] - upper[i] * x[i + 1]) / diag[i];
  }
  return x;
}

}  // namespace rip

#include "dp/library.hpp"

#include <algorithm>
#include <cmath>

#include "tech/objective.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"

namespace rip::dp {

RepeaterLibrary::RepeaterLibrary(std::vector<double> widths_u)
    : widths_u_(std::move(widths_u)) {
  RIP_REQUIRE(!widths_u_.empty(), "repeater library must not be empty");
  for (const double w : widths_u_)
    RIP_REQUIRE(w > 0, "library widths must be positive");
  std::sort(widths_u_.begin(), widths_u_.end());
  constexpr double kDedupTolU = 1e-9;
  widths_u_.erase(std::unique(widths_u_.begin(), widths_u_.end(),
                              [](double a, double b) {
                                return std::abs(a - b) < kDedupTolU;
                              }),
                  widths_u_.end());
  RIP_REQUIRE(widths_u_.size() <= kMaxSize,
              "repeater library holds more than 32768 widths");
}

double RepeaterLibrary::round_to_library(double w) const {
  auto it = std::lower_bound(widths_u_.begin(), widths_u_.end(), w);
  if (it == widths_u_.end()) return widths_u_.back();
  if (it == widths_u_.begin()) return widths_u_.front();
  const double hi = *it;
  const double lo = *(it - 1);
  return (w - lo < hi - w) ? lo : hi;
}

void RepeaterLibrary::fill_device_terms(const tech::RepeaterDevice& device,
                                        std::vector<double>& load_ff,
                                        std::vector<double>& rs_over_w) const {
  const std::size_t n = widths_u_.size();
  load_ff.resize(n);
  rs_over_w.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    load_ff[b] = device.co_ff * widths_u_[b];
    rs_over_w[b] = device.rs_ohm / widths_u_[b];
  }
}

void RepeaterLibrary::fill_cost_terms(const tech::ChainCost& cost,
                                      std::vector<double>& cost_u) const {
  if (cost.width_weight == 1.0 && cost.per_repeater == 0.0) {
    // Identity objective: the cost table must be bit-equal to the width
    // table (1.0 * w + 0.0 is exact in IEEE, but a verbatim copy states
    // the intent).
    cost_u.assign(widths_u_.begin(), widths_u_.end());
    return;
  }
  const std::size_t n = widths_u_.size();
  cost_u.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    cost_u[b] = cost.width_weight * widths_u_[b] + cost.per_repeater;
  }
}

RepeaterLibrary RepeaterLibrary::uniform(double min_width_u,
                                         double granularity_u, int count) {
  RIP_REQUIRE(min_width_u > 0, "library min width must be positive");
  RIP_REQUIRE(granularity_u > 0, "library granularity must be positive");
  RIP_REQUIRE(count >= 1, "library must have at least one width");
  std::vector<double> widths;
  widths.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) widths.push_back(min_width_u + i * granularity_u);
  return RepeaterLibrary(std::move(widths));
}

RepeaterLibrary RepeaterLibrary::range(double min_width_u, double max_width_u,
                                       double granularity_u) {
  RIP_REQUIRE(granularity_u > 0, "library granularity must be positive");
  RIP_REQUIRE(min_width_u > 0 && min_width_u <= max_width_u,
              "library width range out of order");
  std::vector<double> widths;
  double w = std::ceil(min_width_u / granularity_u - 1e-12) * granularity_u;
  if (w < min_width_u) w = min_width_u;
  for (; w <= max_width_u + 1e-12; w += granularity_u) widths.push_back(w);
  RIP_REQUIRE(!widths.empty(),
              "width range contains no multiple of the granularity");
  return RepeaterLibrary(std::move(widths));
}

RepeaterLibrary RepeaterLibrary::from_rounding(
    const std::vector<double>& continuous, double granularity_u,
    double min_width_u, double max_width_u) {
  RIP_REQUIRE(!continuous.empty(), "no continuous widths to round");
  RIP_REQUIRE(granularity_u > 0, "granularity must be positive");
  RIP_REQUIRE(min_width_u > 0 && min_width_u <= max_width_u,
              "width bounds out of order");
  std::vector<double> widths;
  widths.reserve(2 * continuous.size());
  for (const double w : continuous) {
    const double lo = std::floor(w / granularity_u) * granularity_u;
    const double hi = std::ceil(w / granularity_u) * granularity_u;
    widths.push_back(std::clamp(lo, min_width_u, max_width_u));
    widths.push_back(std::clamp(hi, min_width_u, max_width_u));
  }
  return RepeaterLibrary(std::move(widths));
}

}  // namespace rip::dp

#pragma once

/// @file library.hpp
/// Discrete repeater libraries: the finite sets of allowed repeater
/// widths the DP algorithms select from. The paper's experiments use
/// three kinds (Section 6):
///   - the baseline DP library: size `n`, smallest width `w0`, uniform
///     granularity `g` (widths w0, w0+g, ..., w0+(n-1)g);
///   - a width *range* with granularity (Table 2: 10u..400u step g);
///   - RIP's refined library: REFINE's continuous widths rounded to the
///     nearest multiple of a granularity (10u), deduplicated.

#include <cstddef>
#include <vector>

namespace rip::tech {
struct RepeaterDevice;
struct ChainCost;
}  // namespace rip::tech

namespace rip::dp {

/// An immutable sorted set of allowed repeater widths (in units of u).
class RepeaterLibrary {
 public:
  /// The most widths a library may hold: the DP kernels store library
  /// indices as std::int16_t.
  static constexpr std::size_t kMaxSize = 32768;

  /// Construct from arbitrary widths; sorts and deduplicates (within
  /// 1e-9 u). All widths must be positive, and at most kMaxSize remain.
  explicit RepeaterLibrary(std::vector<double> widths_u);

  const std::vector<double>& widths_u() const { return widths_u_; }
  std::size_t size() const { return widths_u_.size(); }
  double min_width_u() const { return widths_u_.front(); }
  double max_width_u() const { return widths_u_.back(); }

  /// The library width closest to `w` (ties round up).
  double round_to_library(double w) const;

  /// Per-width device terms the DP gate-delay recurrence needs: the
  /// input load C_o * w_b and the driving resistance R_s / w_b, one
  /// entry per library width. The kernels fill these once per solve
  /// into workspace-owned buffers (resized, capacity reused) instead of
  /// dividing per label — the division is the expensive part of the
  /// inner loop. Both vectors are fully overwritten.
  void fill_device_terms(const tech::RepeaterDevice& device,
                         std::vector<double>& load_ff,
                         std::vector<double>& rs_over_w) const;

  /// Per-width objective cost of inserting one repeater of each library
  /// width under `cost` (tech/objective.hpp): width_weight * w_b +
  /// per_repeater. On the identity cost (the paper's objective) the
  /// table is a verbatim copy of widths_u() — same bits, so the kernels'
  /// historic width arithmetic is unchanged on that path. Fully
  /// overwrites `cost_u` (capacity reused).
  void fill_cost_terms(const tech::ChainCost& cost,
                       std::vector<double>& cost_u) const;

  /// Library of `count` widths starting at `min_width` with uniform
  /// `granularity` spacing — the baseline DP library of Table 1.
  static RepeaterLibrary uniform(double min_width_u, double granularity_u,
                                 int count);

  /// All multiples of `granularity` inside [min_width, max_width] —
  /// the fixed-range libraries of Table 2. The first width is the
  /// smallest multiple of `granularity` that is >= min_width.
  static RepeaterLibrary range(double min_width_u, double max_width_u,
                               double granularity_u);

  /// RIP's stage-3 library construction (Fig. 6, line 3): for each
  /// continuous width from REFINE, include the floor and ceiling
  /// multiples of `granularity` (clamped to [min_width, max_width]),
  /// deduplicated. Bracketing instead of nearest-rounding guarantees the
  /// library always contains a width at least as strong as the
  /// continuous optimum, so the stage-3 DP stays feasible whenever the
  /// relaxation was.
  static RepeaterLibrary from_rounding(const std::vector<double>& continuous,
                                       double granularity_u,
                                       double min_width_u,
                                       double max_width_u);

 private:
  std::vector<double> widths_u_;
};

}  // namespace rip::dp

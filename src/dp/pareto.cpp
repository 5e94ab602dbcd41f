#include "dp/pareto.hpp"

#include <algorithm>

namespace rip::dp {

bool FlatFrontier::try_insert(double q_fs, double width_u) {
  // First staircase point with q' >= q; if its width is no larger, the
  // candidate is dominated.
  const std::size_t pos = static_cast<std::size_t>(
      std::lower_bound(q_.begin(), q_.end(), q_fs) - q_.begin());
  if (pos < q_.size() && w_[pos] <= width_u) return false;

  // The new point dominates the points with q' <= q and width' >= width.
  // Widths ascend with q, so those are exactly the contiguous run
  // [lo, pos) — plus an exact-q entry at pos (its width must be larger,
  // or we would have pruned above).
  std::size_t hi = pos;
  if (hi < q_.size() && q_[hi] == q_fs) ++hi;
  const std::size_t lo = static_cast<std::size_t>(
      std::lower_bound(w_.begin(), w_.begin() + static_cast<std::ptrdiff_t>(pos),
                       width_u) -
      w_.begin());
  if (lo < hi) {
    // Overwrite the first evicted slot, splice out the rest.
    q_[lo] = q_fs;
    w_[lo] = width_u;
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
             q_.begin() + static_cast<std::ptrdiff_t>(hi));
    w_.erase(w_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
             w_.begin() + static_cast<std::ptrdiff_t>(hi));
  } else {
    q_.insert(q_.begin() + static_cast<std::ptrdiff_t>(lo), q_fs);
    w_.insert(w_.begin() + static_cast<std::ptrdiff_t>(lo), width_u);
  }
  return true;
}

}  // namespace rip::dp

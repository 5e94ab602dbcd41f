#pragma once

/// @file pareto.hpp
/// Label dominance pruning for the buffering DP.
///
/// Power mode keeps the 3-D Pareto frontier over (C, q, p): a label is
/// dominated if another has no-larger downstream capacitance, no-smaller
/// required arrival time, and no-larger total repeater width (Lillis'
/// power-aware generalization of van Ginneken pruning). The kernels
/// visit labels in (C asc, q desc, p asc) order (kernel::merge_candidate),
/// so a label is dominated iff some label seen before it has no-smaller q
/// and no-larger p: the (q, p) staircase below decides. Delay mode prunes
/// in 2-D (C, q) and needs only the best q seen.
///
/// The staircase is a sorted flat vector pair (FlatFrontier), not a
/// node-based tree: queries are binary searches over contiguous doubles
/// and updates are single splices, so pruning allocates nothing once the
/// vectors have warmed up — the property the zero-allocation DP
/// workspace (dp/workspace.hpp) is built on.

#include <cstddef>
#include <vector>

namespace rip::dp {

/// The (q, width) staircase over every label seen so far during a 3-D
/// prune: only points not dominated by another seen point are kept, so
/// ordered by q ascending the widths are strictly ascending too. Stored
/// as two parallel sorted flat vectors; clear() keeps the capacity, so a
/// reused frontier allocates nothing in steady state.
class FlatFrontier {
 public:
  void clear() {
    q_.clear();
    w_.clear();
  }
  std::size_t size() const { return q_.size(); }

  /// If some seen point has q' >= q and width' <= width, the candidate
  /// is dominated: return false and leave the staircase unchanged.
  /// Otherwise insert it, evict the points it dominates, return true.
  bool try_insert(double q_fs, double width_u);

 private:
  std::vector<double> q_;  ///< ascending
  std::vector<double> w_;  ///< parallel to q_, ascending
};

}  // namespace rip::dp

#pragma once

/// @file tree_hybrid.hpp
/// "Tree-RIP-lite": our implementation of the paper's announced
/// future-work extension to interconnect trees (Section 7).
///
/// The chain algorithm's REFINE stage relies on closed-form chain
/// equations, so the tree hybrid substitutes a greedy discrete width
/// descent between two DP passes:
///
///   1. coarse power-aware tree DP (small coarse library);
///   2. greedy refinement: per buffer, try removal and every smaller
///      fine-granularity width, keeping the move iff the worst-sink delay
///      still meets the target — repeat to a fixpoint;
///   3. fine tree DP restricted to the concise library of widths the
///      refinement actually used.
///
/// The bench (bench_tree) shows the same quality/runtime tradeoff as the
/// paper's Table 2, transplanted to trees.

#include "dp/tree_dp.hpp"
#include "dp/workspace.hpp"
#include "tech/technology.hpp"

namespace rip::core {

/// Tree hybrid knobs (mirrors RipOptions where meaningful).
struct TreeHybridOptions {
  double coarse_min_width_u = 80.0;
  double coarse_granularity_u = 80.0;
  int coarse_library_size = 5;
  double fine_granularity_u = 10.0;
  double fine_min_width_u = 10.0;
  double fine_max_width_u = 400.0;
  int max_greedy_rounds = 20;
};

/// Result of the tree hybrid.
struct TreeHybridResult {
  dp::Status status = dp::Status::kInfeasible;
  dp::TreeSolution solution;
  double delay_fs = 0;
  double total_width_u = 0;

  dp::TreeDpResult coarse;
  double greedy_width_u = 0;   ///< total width after greedy refinement
  int greedy_moves = 0;        ///< accepted greedy moves
  dp::TreeDpResult final_dp;
  bool used_fallback = false;

  double runtime_s = 0;
};

/// Run the tree hybrid with a driver of `driver_width_u` at the root.
/// Its DP and greedy stages run on `workspace`, by default this
/// thread's dp::Workspace::local().
TreeHybridResult tree_hybrid_insert(
    const dp::BufferTree& tree, const tech::RepeaterDevice& device,
    double driver_width_u, double tau_t_fs,
    const TreeHybridOptions& options = {},
    dp::Workspace& workspace = dp::Workspace::local());

}  // namespace rip::core

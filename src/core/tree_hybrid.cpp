#include "core/tree_hybrid.hpp"

#include <algorithm>
#include <cmath>

#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace rip::core {

TreeHybridResult tree_hybrid_insert(const dp::BufferTree& tree,
                                    const tech::RepeaterDevice& device,
                                    double driver_width_u, double tau_t_fs,
                                    const TreeHybridOptions& options,
                                    dp::Workspace& workspace) {
  RIP_REQUIRE(tau_t_fs > 0, "timing target must be positive");
  WallTimer timer;
  TreeHybridResult result;

  dp::ChainDpOptions dp_options;
  dp_options.mode = dp::Mode::kMinPower;
  dp_options.timing_target_fs = tau_t_fs;

  // ---- Stage 1: coarse tree DP. ----
  const dp::RepeaterLibrary coarse_library = dp::RepeaterLibrary::uniform(
      options.coarse_min_width_u, options.coarse_granularity_u,
      options.coarse_library_size);
  result.coarse = dp::run_tree_dp(tree, device, driver_width_u,
                                  coarse_library, dp_options, workspace);
  if (result.coarse.status != dp::Status::kOptimal) {
    result.status = dp::Status::kInfeasible;
    result.solution = result.coarse.min_delay_solution;
    result.delay_fs = result.coarse.min_delay_fs;
    result.total_width_u = result.solution.total_width_u();
    result.runtime_s = timer.seconds();
    return result;
  }

  // ---- Stage 2: greedy discrete width descent. ----
  const dp::RepeaterLibrary fine_library = dp::RepeaterLibrary::range(
      options.fine_min_width_u, options.fine_max_width_u,
      options.fine_granularity_u);
  // Each trial differs from the incumbent in exactly one node, so the
  // descent edits that entry in place and reverts on rejection — no
  // per-trial copy of the solution vector, keeping the whole descent
  // allocation-free on a warm workspace (tree_delay_fs reuses the
  // workspace's bottom-up sweep arrays).
  dp::TreeSolution greedy = result.coarse.solution;
  for (int round = 0; round < options.max_greedy_rounds; ++round) {
    bool improved = false;
    for (std::size_t node = 0; node < greedy.width_u.size(); ++node) {
      const double current = greedy.width_u[node];
      if (current <= 0) continue;
      // Try removal first, then ascending fine widths below the current
      // one; take the cheapest feasible option.
      greedy.width_u[node] = 0;
      if (dp::tree_delay_fs(tree, device, driver_width_u, greedy,
                            workspace) <= tau_t_fs) {
        improved = true;
        ++result.greedy_moves;
        continue;
      }
      bool shrunk = false;
      for (const double w : fine_library.widths_u()) {
        if (w >= current) break;
        greedy.width_u[node] = w;
        if (dp::tree_delay_fs(tree, device, driver_width_u, greedy,
                              workspace) <= tau_t_fs) {
          improved = true;
          ++result.greedy_moves;
          shrunk = true;
          break;
        }
      }
      if (!shrunk) greedy.width_u[node] = current;
    }
    if (!improved) break;
  }
  result.greedy_width_u = greedy.total_width_u();

  // ---- Stage 3: windowed fine tree DP around the greedy solution.
  // Mirrors chain-RIP's stage 3: each node near a greedy buffer may hold
  // that buffer's floor/ceil fine widths; everything else stays empty.
  // "Near" = the node itself, its parent, and its children (one-edge
  // sliding window in the tree).
  dp::TreeDpResult final_dp;
  std::vector<double> greedy_widths;
  for (const double w : greedy.width_u)
    if (w > 0) greedy_widths.push_back(w);
  if (!greedy_widths.empty()) {
    const dp::RepeaterLibrary concise = dp::RepeaterLibrary::from_rounding(
        greedy_widths, options.fine_granularity_u, options.fine_min_width_u,
        options.fine_max_width_u);
    const auto& lib_widths = concise.widths_u();
    auto library_index = [&](double w) {
      const auto it =
          std::lower_bound(lib_widths.begin(), lib_widths.end(), w - 1e-9);
      RIP_ASSERT(it != lib_widths.end() && std::abs(*it - w) < 1e-6,
                 "bracketed width missing from the tree stage-3 library");
      return static_cast<std::int16_t>(it - lib_widths.begin());
    };
    std::vector<std::vector<std::int16_t>> allowed(tree.nodes().size());
    auto add_bracket = [&](std::size_t node, double w) {
      if (!tree.nodes()[node].candidate) return;
      const double lo = std::clamp(
          std::floor(w / options.fine_granularity_u) *
              options.fine_granularity_u,
          options.fine_min_width_u, options.fine_max_width_u);
      const double hi = std::clamp(
          std::ceil(w / options.fine_granularity_u) *
              options.fine_granularity_u,
          options.fine_min_width_u, options.fine_max_width_u);
      allowed[node].push_back(library_index(lo));
      if (hi != lo) allowed[node].push_back(library_index(hi));
    };
    for (std::size_t node = 0; node < greedy.width_u.size(); ++node) {
      const double w = greedy.width_u[node];
      if (w <= 0) continue;
      add_bracket(node, w);
      const auto parent = tree.nodes()[node].parent;
      if (parent > 0) add_bracket(static_cast<std::size_t>(parent), w);
      for (const auto kid : tree.children()[node])
        add_bracket(static_cast<std::size_t>(kid), w);
    }
    for (auto& a : allowed) {
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
    }
    dp::ChainDpOptions final_options = dp_options;
    final_options.allowed_buffers = &allowed;
    final_dp = dp::run_tree_dp(tree, device, driver_width_u, concise,
                               final_options, workspace);
  }
  result.final_dp = final_dp;

  // Best feasible of {stage 3, greedy, stage 1}.
  const double greedy_delay =
      dp::tree_delay_fs(tree, device, driver_width_u, greedy, workspace);
  result.status = dp::Status::kOptimal;
  if (final_dp.status == dp::Status::kOptimal &&
      final_dp.total_width_u <= greedy.total_width_u()) {
    result.solution = final_dp.solution;
    result.delay_fs = final_dp.delay_fs;
    result.total_width_u = final_dp.total_width_u;
  } else if (greedy_delay <= tau_t_fs) {
    result.solution = greedy;
    result.delay_fs = greedy_delay;
    result.total_width_u = greedy.total_width_u();
    result.used_fallback = true;
  } else {
    result.solution = result.coarse.solution;
    result.delay_fs = result.coarse.delay_fs;
    result.total_width_u = result.coarse.total_width_u;
    result.used_fallback = true;
  }
  result.runtime_s = timer.seconds();
  return result;
}

}  // namespace rip::core

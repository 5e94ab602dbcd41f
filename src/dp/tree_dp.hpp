#pragma once

/// @file tree_dp.hpp
/// Power-aware buffer insertion on interconnect *trees* — the extension
/// the paper announces as future work ("We are currently extending our
/// hybrid scheme to the design of low-power interconnect trees",
/// Section 7). This generalizes the chain DP: labels are merged at
/// branch points (C adds, q takes the min, p adds) with the same 3-D
/// Pareto pruning.
///
/// The kernel runs the chain DP's label algebra (dp/kernel_ops.hpp): the
/// same input checks and library terms, wire propagation, candidate
/// expansion and merge, reconstruction arena, driver gate and selection.
/// Of its own it keeps the bottom-up traversal, the junction merge,
/// which streams the child cross product through a heap of sorted rows
/// and adds the arena's junction entries, and the arena walk that turns a
/// label into a TreeSolution. Per-subtree frontiers live in role-stable
/// dp::Workspace pool slots (zero steady-state allocations per solve). A
/// root-to-sink path tree therefore reproduces run_chain_dp bit for bit;
/// tests/tree_oracle_property_test.cpp pins that and the kernel's
/// optimality against an exhaustive tree oracle.
///
/// Because REFINE's closed-form width equations are chain-specific, the
/// tree hybrid here ("tree-RIP-lite", see rip::core) refines widths by
/// greedy discrete descent instead; DESIGN.md records this as our
/// interpretation of the future-work direction.

#include <cstdint>
#include <string>
#include <vector>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"

namespace rip::dp {

/// A node of a routing tree for buffering. The edge to the parent is a
/// lumped RC (r, c); node 0 is the root (driver output, edge ignored).
struct BufferTreeNode {
  std::int32_t parent = -1;
  double edge_r_ohm = 0;    ///< resistance of the edge to the parent
  double edge_c_ff = 0;     ///< capacitance of the edge to the parent
  bool is_sink = false;     ///< leaf with a receiving gate
  double sink_cap_ff = 0;   ///< input capacitance of the sink gate
  bool candidate = false;   ///< may a repeater be inserted here?
  std::string name;
};

/// A routing tree; children must be added after their parents.
class BufferTree {
 public:
  BufferTree();

  /// Add a node; returns its index. The root is index 0 and always exists.
  std::int32_t add_node(BufferTreeNode node);

  const std::vector<BufferTreeNode>& nodes() const { return nodes_; }
  const std::vector<std::vector<std::int32_t>>& children() const {
    return children_;
  }
  std::size_t sink_count() const { return sink_count_; }

 private:
  std::vector<BufferTreeNode> nodes_;
  std::vector<std::vector<std::int32_t>> children_;
  std::size_t sink_count_ = 0;
};

/// A buffering of a tree: width per node (0 = no repeater).
struct TreeSolution {
  std::vector<double> width_u;  ///< indexed by tree node

  double total_width_u() const;
  std::size_t repeater_count() const;
};

/// Result of the tree DP.
struct TreeDpResult {
  Status status = Status::kInfeasible;
  TreeSolution solution;
  double delay_fs = 0;        ///< worst sink delay of `solution`
  double total_width_u = 0;
  /// Objective cost of `solution` under the active backend (equals
  /// total_width_u on the identity objective; 0 when infeasible). The
  /// tree backend profile is synthetic: anonymous name, zero length,
  /// wire cap = total edge + sink capacitance.
  double objective_cost = 0;
  double min_delay_fs = 0;    ///< best achievable worst-sink delay
  TreeSolution min_delay_solution;
  DpStats stats;
};

/// Run power-aware (kMinPower) or min-delay (kMinDelay) buffering over
/// the tree with a driver of width `driver_width_u` at the root, on the
/// arenas of `ws` (label pools, prune scratch, the flat Pareto
/// frontier), by default this thread's Workspace::local().
TreeDpResult run_tree_dp(const BufferTree& tree,
                         const tech::RepeaterDevice& device,
                         double driver_width_u,
                         const RepeaterLibrary& library,
                         const ChainDpOptions& options,
                         Workspace& ws = Workspace::local());

/// Evaluate the worst-sink Elmore delay of a buffered tree — an
/// independent check of the DP bookkeeping (used in tests, and by the
/// tree hybrid's greedy descent, which calls it thousands of times: it
/// reuses the two bottom-up sweep vectors of `ws`).
double tree_delay_fs(const BufferTree& tree,
                     const tech::RepeaterDevice& device,
                     double driver_width_u, const TreeSolution& solution,
                     Workspace& ws = Workspace::local());

/// Parameters for the random tree generator (test/bench workloads).
struct RandomTreeConfig {
  int sink_count = 8;
  double edge_length_min_um = 400.0;
  double edge_length_max_um = 1200.0;
  double r_ohm_per_um = 0.108;
  double c_ff_per_um = 0.21;
  double sink_cap_min_ff = 5.0;
  double sink_cap_max_ff = 40.0;
  /// Each edge is split into this many candidate nodes.
  int candidates_per_edge = 3;
};

/// Generate a random topology: a binary-ish tree grown by attaching sinks
/// to random existing nodes, each edge subdivided into candidate nodes.
BufferTree random_buffer_tree(const RandomTreeConfig& config, Rng& rng);

}  // namespace rip::dp

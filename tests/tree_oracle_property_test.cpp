// The tree-DP oracle battery for the SoA tree kernel.
//
// Three independent proofs that the rebuilt tree kernel is exact:
//
//  1. TreeOracle*: random small trees solved against a backend-aware
//     exhaustive oracle (every width assignment over candidate nodes,
//     evaluated with the independent tree_delay_fs Elmore walker), all
//     three objective backends x both modes, plus a tie-heavy grid of
//     equal edges, equal sink caps, and duplicate library widths.
//
//  2. PathChain*: a degenerate root-to-sink path tree must reproduce
//     run_chain_dp on the equivalent single-segment chain BIT FOR BIT —
//     both kernels are built from the same kernel_ops.hpp primitives,
//     and a path has no junction merge, so every double must match
//     exactly (status, delay, width, cost, min-delay, and the placed
//     repeaters themselves).
//
//  3. TreeWorkspaceSteadyState: solver results are a pure function of
//     the inputs even on a dirty shared workspace, and the role-stable
//     frontier pool stops reallocating after one warm solve (the
//     test-level twin of bench_dp's counting-operator-new gate).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/tree_dp.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "tech/objective.hpp"
#include "tech/technology.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rip::dp {
namespace {

constexpr double kTolFs = kSlackToleranceFs;

/// The cost coefficients the tree kernel derives for `backend`. The tree
/// profile is synthetic (anonymous name), and every shipped backend's
/// chain_cost depends on the profile only through the name, so an
/// all-defaults NetProfile reproduces the kernel's coefficients exactly.
tech::ChainCost cost_for(const tech::ObjectiveBackend* backend) {
  return backend == nullptr ? tech::ChainCost{}
                            : backend->chain_cost(tech::NetProfile{});
}

struct OracleResult {
  bool feasible = false;
  double best_cost = std::numeric_limits<double>::infinity();
  double min_delay_fs = std::numeric_limits<double>::infinity();
};

/// Exhaustive backend-aware reference: enumerate every width assignment
/// over candidate nodes (the empty assignment only, when the backend
/// forbids repeaters), evaluate delay with tree_delay_fs plus the
/// backend's receiver penalty, and minimize the affine repeater cost
/// over the feasible ones.
OracleResult oracle_solve(const BufferTree& tree,
                          const tech::RepeaterDevice& device,
                          double driver_width_u, const RepeaterLibrary& lib,
                          const tech::ChainCost& cost, double tau_t) {
  std::vector<std::size_t> cand;
  if (cost.allow_repeaters) {
    for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
      if (tree.nodes()[i].candidate) cand.push_back(i);
    }
  }
  const std::size_t choices = lib.size() + 1;
  std::vector<std::size_t> digits(cand.size(), 0);
  OracleResult out;
  while (true) {
    TreeSolution s;
    s.width_u.assign(tree.nodes().size(), 0.0);
    double assignment_cost = 0.0;
    for (std::size_t i = 0; i < digits.size(); ++i) {
      if (digits[i] > 0) {
        const double w = lib.widths_u()[digits[i] - 1];
        s.width_u[cand[i]] = w;
        assignment_cost += cost.width_weight * w + cost.per_repeater;
      }
    }
    const double delay = tree_delay_fs(tree, device, driver_width_u, s) +
                         cost.receiver_penalty_fs;
    out.min_delay_fs = std::min(out.min_delay_fs, delay);
    if (delay <= tau_t + kTolFs) {
      out.feasible = true;
      out.best_cost = std::min(out.best_cost, assignment_cost);
    }
    std::size_t i = 0;
    for (; i < digits.size(); ++i) {
      if (++digits[i] < choices) break;
      digits[i] = 0;
    }
    if (i == digits.size()) break;
  }
  return out;
}

/// Recompute a DP solution's affine cost from its placed widths.
double solution_cost(const TreeSolution& s, const tech::ChainCost& cost) {
  double total = 0.0;
  for (const double w : s.width_u) {
    if (w > 0) total += cost.width_weight * w + cost.per_repeater;
  }
  return total;
}

/// The four objective configurations the battery sweeps: no backend
/// (identity fast path), and the three registry backends.
struct BackendSet {
  std::unique_ptr<tech::ObjectiveBackend> paper;
  std::unique_ptr<tech::ObjectiveBackend> activity;
  std::unique_ptr<tech::ObjectiveBackend> lowswing;
  std::vector<const tech::ObjectiveBackend*> all;

  BackendSet() {
    const tech::Technology tech = tech::make_tech180();
    paper = std::make_unique<tech::Paper2005Backend>(tech.power(),
                                                     test::simple_device());
    activity = std::make_unique<tech::ActivityPowerBackend>(
        tech.power(), test::simple_device());
    lowswing = std::make_unique<tech::LowSwingBackend>(tech.power());
    all = {nullptr, paper.get(), activity.get(), lowswing.get()};
  }
};

/// Run the DP against the oracle for one (tree, backend, mode) point
/// across a grid of timing targets, checking status parity, optimal
/// cost, and the returned solution's self-consistency.
void check_against_oracle(const BufferTree& tree,
                          const tech::RepeaterDevice& device,
                          double driver_width_u, const RepeaterLibrary& lib,
                          const tech::ObjectiveBackend* backend,
                          const std::string& label) {
  const tech::ChainCost cost = cost_for(backend);
  TreeSolution empty;
  empty.width_u.assign(tree.nodes().size(), 0.0);
  const double unbuffered = tree_delay_fs(tree, device, driver_width_u, empty) +
                            cost.receiver_penalty_fs;

  for (const double factor : {0.55, 0.75, 0.95, 1.3}) {
    const double tau_t = unbuffered * factor;
    const OracleResult oracle =
        oracle_solve(tree, device, driver_width_u, lib, cost, tau_t);

    ChainDpOptions opts;
    opts.mode = Mode::kMinPower;
    opts.timing_target_fs = tau_t;
    opts.backend = backend;
    const TreeDpResult dp = run_tree_dp(tree, device, driver_width_u, lib, opts);

    ASSERT_EQ(dp.status == Status::kOptimal, oracle.feasible)
        << label << " factor " << factor;
    EXPECT_NEAR(dp.min_delay_fs, oracle.min_delay_fs,
                1e-9 * std::abs(oracle.min_delay_fs))
        << label << " factor " << factor;
    if (!oracle.feasible) continue;

    EXPECT_NEAR(dp.objective_cost, oracle.best_cost,
                1e-9 * std::max(1.0, oracle.best_cost))
        << label << " factor " << factor;
    // The returned solution must realize the reported cost and meet the
    // target under the independent evaluator.
    EXPECT_NEAR(solution_cost(dp.solution, cost), dp.objective_cost,
                1e-9 * std::max(1.0, dp.objective_cost))
        << label << " factor " << factor;
    EXPECT_NEAR(dp.total_width_u, dp.solution.total_width_u(), 1e-12)
        << label << " factor " << factor;
    const double check =
        tree_delay_fs(tree, device, driver_width_u, dp.solution) +
        cost.receiver_penalty_fs;
    EXPECT_LE(check, tau_t + kTolFs) << label << " factor " << factor;
    if (!cost.allow_repeaters) {
      EXPECT_EQ(dp.solution.repeater_count(), 0u) << label;
    }
  }

  // Delay mode: the DP's minimum must match the exhaustive minimum.
  ChainDpOptions delay_opts;
  delay_opts.mode = Mode::kMinDelay;
  delay_opts.backend = backend;
  const TreeDpResult md =
      run_tree_dp(tree, device, driver_width_u, lib, delay_opts);
  const OracleResult oracle =
      oracle_solve(tree, device, driver_width_u, lib, cost, unbuffered);
  EXPECT_NEAR(md.delay_fs, oracle.min_delay_fs,
              1e-9 * std::abs(oracle.min_delay_fs))
      << label << " min-delay";
  const double check = tree_delay_fs(tree, device, driver_width_u, md.solution) +
                       cost.receiver_penalty_fs;
  EXPECT_NEAR(md.delay_fs, check, 1e-9 * std::abs(check)) << label;
}

// ------------------------------------------------- random-tree battery

class TreeOracle : public ::testing::TestWithParam<int> {};

TEST_P(TreeOracle, AllBackendsBothModesMatchExhaustiveOptimum) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 9176 + 11);
  RandomTreeConfig config;
  config.sink_count = 2 + seed % 2;
  config.candidates_per_edge = 1 + seed % 2;
  if (seed % 2 == 0) {
    // Tie-heavy grid: every edge the same length, every sink the same
    // cap, so junction merges see many bitwise-equal (C, q) clusters.
    config.edge_length_min_um = 500.0;
    config.edge_length_max_um = 500.0;
    config.sink_cap_min_ff = 10.0;
    config.sink_cap_max_ff = 10.0;
  } else {
    config.edge_length_min_um = 300.0;
    config.edge_length_max_um = 900.0;
  }
  const BufferTree tree = random_buffer_tree(config, rng);
  ASSERT_LE(tree.nodes().size(), 10u);

  const auto device = test::simple_device();
  const RepeaterLibrary lib({rng.uniform(3.0, 10.0), rng.uniform(15.0, 40.0)});
  const BackendSet backends;
  for (const auto* backend : backends.all) {
    const std::string label =
        "seed " + std::to_string(seed) + " backend " +
        (backend == nullptr ? std::string("none") : backend->name());
    check_against_oracle(tree, device, 10.0, lib, backend, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeOracle, ::testing::Range(1, 9));

TEST(TreeOracleTieGrid, DuplicateWidthLibraryOnSymmetricTree) {
  // Symmetric two-level binary tree with identical edges everywhere and
  // a duplicate-width library: every junction merge is wall-to-wall
  // exact (C, q) ties, the worst case for the heap merge's tie
  // clustering.
  BufferTree tree;
  auto edge = [](std::int32_t parent, bool sink) {
    BufferTreeNode n;
    n.parent = parent;
    n.edge_r_ohm = 50.0;
    n.edge_c_ff = 100.0;
    n.candidate = true;
    if (sink) {
      n.is_sink = true;
      n.sink_cap_ff = 10.0;
    }
    return n;
  };
  const auto left = tree.add_node(edge(0, false));
  const auto right = tree.add_node(edge(0, false));
  tree.add_node(edge(left, true));
  tree.add_node(edge(left, true));
  tree.add_node(edge(right, true));
  tree.add_node(edge(right, true));

  const auto device = test::simple_device();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 3);  // three equal widths
  const BackendSet backends;
  for (const auto* backend : backends.all) {
    const std::string label =
        std::string("tie-grid backend ") +
        (backend == nullptr ? std::string("none") : backend->name());
    check_against_oracle(tree, device, 10.0, lib, backend, label);
  }
}

// ------------------------------------------------ path == chain, bitwise

/// The path fixture: a single-segment chain and the path tree built from
/// the same positions. All positions are integers, so every edge length
/// (and with it every derived RC value) is bit-identical between the
/// chain's piece decomposition and the tree's lumped edges.
struct PathFixture {
  net::Net net = net::NetBuilder("pathnet")
                     .driver(10.0)
                     .receiver(5.0)
                     .segment(2400.0, 0.1, 0.2, "m4")
                     .build();
  std::vector<double> candidates{300.0, 700.0, 1100.0, 1600.0, 2000.0};
  tech::RepeaterDevice device = test::simple_device();
  BufferTree tree;

  PathFixture() {
    const double r = 0.1;
    const double c = 0.2;
    double prev = 0.0;
    std::int32_t parent = 0;
    for (const double p : candidates) {
      BufferTreeNode n;
      n.parent = parent;
      n.edge_r_ohm = r * (p - prev);
      n.edge_c_ff = c * (p - prev);
      n.candidate = true;
      parent = tree.add_node(n);
      prev = p;
    }
    BufferTreeNode sink;
    sink.parent = parent;
    sink.edge_r_ohm = r * (2400.0 - prev);
    sink.edge_c_ff = c * (2400.0 - prev);
    sink.is_sink = true;
    sink.sink_cap_ff = device.co_ff * net.receiver_width_u();
    tree.add_node(sink);
  }

  /// Map a chain solution onto per-tree-node widths (candidate i is tree
  /// node i + 1).
  std::vector<double> as_tree_widths(const net::RepeaterSolution& s) const {
    std::vector<double> widths(tree.nodes().size(), 0.0);
    for (const net::Repeater& rep : s.repeaters()) {
      const auto it = std::find(candidates.begin(), candidates.end(),
                                rep.position_um);
      EXPECT_NE(it, candidates.end()) << "repeater off-candidate";
      widths[static_cast<std::size_t>(it - candidates.begin()) + 1] =
          rep.width_u;
    }
    return widths;
  }
};

void expect_bitwise_equal(const ChainDpResult& chain, const TreeDpResult& tree,
                          const PathFixture& fx, const std::string& label) {
  EXPECT_EQ(chain.status, tree.status) << label;
  EXPECT_EQ(chain.delay_fs, tree.delay_fs) << label;
  EXPECT_EQ(chain.total_width_u, tree.total_width_u) << label;
  EXPECT_EQ(chain.objective_cost, tree.objective_cost) << label;
  EXPECT_EQ(chain.min_delay_fs, tree.min_delay_fs) << label;
  // An infeasible tree solve leaves width_u empty where the chain's
  // RepeaterSolution is empty-but-sized; normalize to all-zeros.
  auto widths = [&](const TreeSolution& s) {
    return s.width_u.empty() ? std::vector<double>(fx.tree.nodes().size(), 0.0)
                             : s.width_u;
  };
  EXPECT_EQ(fx.as_tree_widths(chain.solution), widths(tree.solution)) << label;
  EXPECT_EQ(fx.as_tree_widths(chain.min_delay_solution),
            widths(tree.min_delay_solution))
      << label;
}

TEST(PathChain, PathTreeReproducesChainBitwiseAllBackends) {
  const PathFixture fx;
  const RepeaterLibrary lib({4.0, 16.0, 64.0});
  const tech::Technology tech = tech::make_tech180();

  // The activity backend keys its per-net switching activity off the net
  // name; the tree profile is anonymous (-> default_activity), so the
  // chain net's name must map to the same value for the coefficients to
  // come out bit-identical.
  const tech::ActivityPowerConfig act_cfg;
  const tech::ActivityPowerBackend activity(
      tech.power(), fx.device, act_cfg,
      {{"pathnet", act_cfg.default_activity}});
  const tech::Paper2005Backend paper(tech.power(), fx.device);
  const tech::LowSwingBackend lowswing(tech.power());
  const std::vector<const tech::ObjectiveBackend*> backends{
      nullptr, &paper, &activity, &lowswing};

  for (const auto* backend : backends) {
    const std::string name =
        backend == nullptr ? std::string("none") : backend->name();

    ChainDpOptions md_opts;
    md_opts.mode = Mode::kMinDelay;
    md_opts.backend = backend;
    const ChainDpResult chain_md = run_chain_dp(fx.net, fx.device, lib,
                                                fx.candidates, md_opts);
    const TreeDpResult tree_md =
        run_tree_dp(fx.tree, fx.device, fx.net.driver_width_u(), lib, md_opts);
    expect_bitwise_equal(chain_md, tree_md, fx, name + " min-delay");

    for (const double factor : {0.9, 1.05, 1.3, 2.0, 6.0}) {
      const double tau_t = chain_md.delay_fs * factor;
      ChainDpOptions opts;
      opts.mode = Mode::kMinPower;
      opts.timing_target_fs = tau_t;
      opts.backend = backend;
      const ChainDpResult chain = run_chain_dp(fx.net, fx.device, lib,
                                               fx.candidates, opts);
      const TreeDpResult tree =
          run_tree_dp(fx.tree, fx.device, fx.net.driver_width_u(), lib, opts);
      expect_bitwise_equal(chain, tree, fx,
                           name + " factor " + std::to_string(factor));
      if (factor == 0.9) {
        EXPECT_EQ(chain.status, Status::kInfeasible) << name;
      }
    }
  }
}

// ------------------------------------------- workspace purity + pooling

TEST(TreeWorkspaceSteadyState, DirtySharedWorkspaceBitIdenticalToFresh) {
  // Three dissimilar tree cases plus an interleaved chain solve, all on
  // one shared workspace that is already dirty from each other's
  // frontiers — results must be bit-identical to fresh-workspace solves.
  const auto device = test::simple_device();
  const BackendSet backends;
  const RepeaterLibrary lib({4.0, 16.0});

  Rng rng(2468);
  RandomTreeConfig config;
  config.sink_count = 4;
  config.candidates_per_edge = 2;
  const BufferTree big = random_buffer_tree(config, rng);
  config.sink_count = 2;
  const BufferTree small = random_buffer_tree(config, rng);
  const PathFixture fx;

  struct Case {
    const BufferTree* tree;
    ChainDpOptions opts;
  };
  TreeSolution empty;
  empty.width_u.assign(big.nodes().size(), 0.0);
  const double big_unbuffered = tree_delay_fs(big, device, 10.0, empty);

  std::vector<Case> cases;
  {
    ChainDpOptions o;
    o.mode = Mode::kMinPower;
    o.timing_target_fs = big_unbuffered * 0.8;
    cases.push_back({&big, o});
    o.backend = backends.activity.get();
    cases.push_back({&big, o});
    ChainDpOptions d;
    d.mode = Mode::kMinDelay;
    cases.push_back({&small, d});
    ChainDpOptions ls;
    ls.mode = Mode::kMinPower;
    ls.backend = backends.lowswing.get();
    ls.timing_target_fs = 1e9;
    cases.push_back({&fx.tree, ls});
  }

  std::vector<TreeDpResult> fresh;
  for (const Case& c : cases) {
    Workspace ws;  // brand new arenas for every solve
    fresh.push_back(run_tree_dp(*c.tree, device, 10.0, lib, c.opts, ws));
  }

  Workspace shared;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      // Dirty the shared chain arrays between tree solves.
      ChainDpOptions chain_opts;
      chain_opts.mode = Mode::kMinDelay;
      (void)run_chain_dp(fx.net, fx.device, lib, fx.candidates, chain_opts,
                         shared);
      const TreeDpResult got =
          run_tree_dp(*cases[i].tree, device, 10.0, lib, cases[i].opts, shared);
      const TreeDpResult& want = fresh[i];
      EXPECT_EQ(got.status, want.status) << "case " << i;
      EXPECT_EQ(got.delay_fs, want.delay_fs) << "case " << i;
      EXPECT_EQ(got.total_width_u, want.total_width_u) << "case " << i;
      EXPECT_EQ(got.objective_cost, want.objective_cost) << "case " << i;
      EXPECT_EQ(got.min_delay_fs, want.min_delay_fs) << "case " << i;
      EXPECT_EQ(got.solution.width_u, want.solution.width_u) << "case " << i;
      EXPECT_EQ(got.min_delay_solution.width_u, want.min_delay_solution.width_u)
          << "case " << i;
    }
  }
  EXPECT_EQ(shared.stats().tree_solves, 2 * cases.size());
}

TEST(TreeWorkspaceSteadyState, PooledFrontiersStopReallocatingAfterWarmup) {
  // The role-stable frontier pool promises: after ONE warm solve of a
  // given shape, repeat solves never grow any pooled vector. Reallocation
  // would move data(); pointer stability across solves proves the
  // zero-steady-state-allocation property at test level (the bench
  // enforces the same with a counting operator new).
  Rng rng(1357);
  RandomTreeConfig config;
  config.sink_count = 6;
  config.candidates_per_edge = 3;
  const BufferTree tree = random_buffer_tree(config, rng);
  const auto device = test::simple_device();
  const auto lib = RepeaterLibrary::uniform(4.0, 40.0, 6);
  TreeSolution empty;
  empty.width_u.assign(tree.nodes().size(), 0.0);
  ChainDpOptions opts;
  opts.mode = Mode::kMinPower;
  opts.timing_target_fs = tree_delay_fs(tree, device, 10.0, empty) * 0.7;
  opts.reconstruct_solutions = false;  // result vectors aside, pure kernel

  Workspace ws;
  const TreeDpResult warm = run_tree_dp(tree, device, 10.0, lib, opts, ws);

  std::vector<const double*> ptrs;
  std::vector<std::size_t> caps;
  auto snapshot = [&] {
    ptrs.clear();
    caps.clear();
    for (const ChainFrontier& f : ws.tree_frontiers) {
      ptrs.push_back(f.cap_ff.data());
      caps.push_back(f.cap_ff.capacity());
      caps.push_back(f.q_fs.capacity());
      caps.push_back(f.width_u.capacity());
    }
    ptrs.push_back(ws.tree_scratch.cap_ff.data());
    ptrs.push_back(ws.tree_pair_cap.data());
    caps.push_back(ws.tree_scratch.cap_ff.capacity());
    caps.push_back(ws.a_parent.capacity());
    caps.push_back(ws.tree_order.capacity());
    caps.push_back(ws.expanded.capacity());
  };
  snapshot();
  const std::vector<const double*> warm_ptrs = ptrs;
  const std::vector<std::size_t> warm_caps = caps;

  for (int i = 0; i < 3; ++i) {
    const TreeDpResult again = run_tree_dp(tree, device, 10.0, lib, opts, ws);
    EXPECT_EQ(again.delay_fs, warm.delay_fs);
    EXPECT_EQ(again.objective_cost, warm.objective_cost);
    snapshot();
    EXPECT_EQ(ptrs, warm_ptrs) << "pooled vector reallocated on solve " << i;
    EXPECT_EQ(caps, warm_caps) << "pooled capacity changed on solve " << i;
  }
}

}  // namespace
}  // namespace rip::dp

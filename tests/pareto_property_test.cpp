// Property tests for the flat-vector Pareto staircase and the reusable DP
// workspace.
//
// The kernels prune labels by offering them, sorted by (C asc, q desc,
// w asc), to a dp::FlatFrontier; these tests pin that filter against a
// brute-force O(n^2) domination oracle over randomized label sets with
// heavy duplicate/tie traffic, which is where staircase splicing bugs
// live. The workspace tests prove the arena-reuse contract: a solve on a
// dirty, many-times-reused dp::Workspace is bit-identical to the same
// solve on a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/min_delay.hpp"
#include "dp/pareto.hpp"
#include "dp/tree_dp.hpp"
#include "dp/workspace.hpp"
#include "net/candidates.hpp"
#include "net/net.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rip::dp {
namespace {

using test::TestLabel;
using Key = std::tuple<double, double, double>;  // (C, -q, w) ascending

Key key_of(const TestLabel& l) { return Key{l.cap_ff, -l.q_fs, l.width_u}; }

bool dominates(const TestLabel& a, const TestLabel& b) {
  return a.cap_ff <= b.cap_ff && a.q_fs >= b.q_fs && a.width_u <= b.width_u;
}

/// The oracle survivor keys: every distinct (C, q, w) tuple that no
/// *different* tuple dominates. (Mutually identical labels collapse to
/// one representative, as the staircase keeps one.)
std::vector<Key> oracle_keys(const std::vector<TestLabel>& labels) {
  std::vector<Key> keys;
  keys.reserve(labels.size());
  for (const TestLabel& l : labels) keys.push_back(key_of(l));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  auto dominates_key = [&](const Key& a, const Key& b) {
    return std::get<0>(a) <= std::get<0>(b) &&
           std::get<1>(a) <= std::get<1>(b) &&
           std::get<2>(a) <= std::get<2>(b);
  };
  std::vector<Key> kept;
  for (const Key& k : keys) {
    bool dominated = false;
    for (const Key& other : keys) {
      if (other != k && dominates_key(other, k)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(k);
  }
  return kept;
}

/// Random label with values drawn from a coarse grid so exact C/q/w
/// ties and full duplicates occur constantly.
TestLabel grid_label(Rng& rng, int tag) {
  return TestLabel{0.5 * rng.uniform_int(0, 12), 2.5 * rng.uniform_int(0, 12),
                   10.0 * rng.uniform_int(0, 8), tag};
}

// The kernels' power-mode dominance filter (labels offered in
// (C asc, q desc, w asc) order to a FlatFrontier) against brute-force
// domination, on random grid labels full of ties and duplicates.
TEST(PruneVsOracle, MatchesBruteForceDomination) {
  Rng rng(77001);
  for (int round = 0; round < 300; ++round) {
    const int n = rng.uniform_int(0, 120);
    std::vector<TestLabel> input;
    input.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (!input.empty() && rng.bernoulli(0.2)) {
        // Exact duplicate of an earlier label, under a tag of its own.
        TestLabel copy = input[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(input.size()) - 1))];
        copy.tag = i;
        input.push_back(copy);
      } else {
        input.push_back(grid_label(rng, i));
      }
    }

    const std::vector<TestLabel> labels = test::staircase_survivors(input);

    // Survivor keys must be exactly the oracle's non-dominated set,
    // one representative per identical group.
    std::vector<Key> got;
    for (const TestLabel& l : labels) got.push_back(key_of(l));
    std::vector<Key> got_sorted = got;
    std::sort(got_sorted.begin(), got_sorted.end());
    ASSERT_TRUE(std::adjacent_find(got_sorted.begin(), got_sorted.end()) ==
                got_sorted.end())
        << "two survivors share tracked dimensions (round " << round << ")";
    EXPECT_EQ(got_sorted, oracle_keys(input))
        << "survivor set mismatch (round " << round << ", n " << n << ")";

    // Every survivor must be one of the input labels (pruning never
    // invents or mutates labels).
    for (const TestLabel& l : labels) {
      const bool found = std::any_of(
          input.begin(), input.end(), [&](const TestLabel& in) {
            return in.cap_ff == l.cap_ff && in.q_fs == l.q_fs &&
                   in.width_u == l.width_u && in.tag == l.tag;
          });
      EXPECT_TRUE(found) << "survivor not present in input";
    }

    // Every input label is dominated by (or identical to) a survivor.
    for (const TestLabel& in : input) {
      const bool covered = std::any_of(
          labels.begin(), labels.end(),
          [&](const TestLabel& s) { return dominates(s, in); });
      EXPECT_TRUE(covered) << "input label escaped domination";
    }
  }
}

TEST(FlatFrontier, RejectsDominatedAndEvictsDominated) {
  FlatFrontier frontier;
  EXPECT_TRUE(frontier.try_insert(10.0, 100.0));
  // Dominated: less q, more width.
  EXPECT_FALSE(frontier.try_insert(5.0, 200.0));
  // Duplicate: dominated by the identical seen point.
  EXPECT_FALSE(frontier.try_insert(10.0, 100.0));
  // Same q, smaller width: evicts the old point.
  EXPECT_TRUE(frontier.try_insert(10.0, 50.0));
  EXPECT_EQ(frontier.size(), 1u);
  // Incomparable points extend the staircase.
  EXPECT_TRUE(frontier.try_insert(20.0, 80.0));
  EXPECT_TRUE(frontier.try_insert(5.0, 30.0));
  EXPECT_EQ(frontier.size(), 3u);
  // One point dominating two staircase points evicts both.
  EXPECT_TRUE(frontier.try_insert(20.0, 30.0));
  EXPECT_EQ(frontier.size(), 1u);
  EXPECT_FALSE(frontier.try_insert(19.0, 31.0));
}

// ---------------------------------------------------------------------
// Workspace reuse: solve results are a pure function of the inputs, no
// matter how dirty the workspace is.

net::Net reuse_net() {
  return net::NetBuilder("reuse")
      .driver(120.0)
      .receiver(60.0)
      .segment(2000.0, 0.108, 0.21, "m4")
      .segment(1500.0, 0.061, 0.24, "m5")
      .zone(900.0, 1400.0)
      .build();
}

/// A few unrelated solves with different shapes (other net, other
/// library, both modes) to leave arbitrary arena contents behind.
void dirty_workspace(Workspace& ws) {
  const net::Net other = net::NetBuilder("dirty")
                             .driver(50.0)
                             .receiver(20.0)
                             .segment(900.0, 0.2, 0.15, "m3")
                             .build();
  const tech::RepeaterDevice device = test::simple_device();
  const RepeaterLibrary lib = RepeaterLibrary::uniform(5.0, 15.0, 7);
  const auto candidates = net::uniform_candidates(other, 120.0);
  ChainDpOptions delay_options;
  delay_options.mode = Mode::kMinDelay;
  run_chain_dp(other, device, lib, candidates, delay_options, ws);
  ChainDpOptions power_options;
  power_options.mode = Mode::kMinPower;
  power_options.timing_target_fs = 2.0 *
      run_chain_dp(other, device, lib, candidates, delay_options, ws)
          .min_delay_fs;
  run_chain_dp(other, device, lib, candidates, power_options, ws);

  Rng rng(424242);
  RandomTreeConfig tree_config;
  tree_config.sink_count = 5;
  const BufferTree tree = random_buffer_tree(tree_config, rng);
  ChainDpOptions tree_options;
  tree_options.mode = Mode::kMinDelay;
  run_tree_dp(tree, device, 80.0, lib, tree_options, ws);
}

void expect_identical(const ChainDpResult& a, const ChainDpResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.delay_fs, b.delay_fs);
  EXPECT_EQ(a.total_width_u, b.total_width_u);
  EXPECT_EQ(a.min_delay_fs, b.min_delay_fs);
  ASSERT_EQ(a.solution.size(), b.solution.size());
  for (std::size_t i = 0; i < a.solution.size(); ++i) {
    EXPECT_EQ(a.solution.repeaters()[i].position_um,
              b.solution.repeaters()[i].position_um);
    EXPECT_EQ(a.solution.repeaters()[i].width_u,
              b.solution.repeaters()[i].width_u);
  }
  ASSERT_EQ(a.min_delay_solution.size(), b.min_delay_solution.size());
  for (std::size_t i = 0; i < a.min_delay_solution.size(); ++i) {
    EXPECT_EQ(a.min_delay_solution.repeaters()[i].position_um,
              b.min_delay_solution.repeaters()[i].position_um);
    EXPECT_EQ(a.min_delay_solution.repeaters()[i].width_u,
              b.min_delay_solution.repeaters()[i].width_u);
  }
  // Every stat is input-deterministic except the reuse counter.
  EXPECT_EQ(a.stats.labels_created, b.stats.labels_created);
  EXPECT_EQ(a.stats.labels_pruned, b.stats.labels_pruned);
  EXPECT_EQ(a.stats.labels_peak, b.stats.labels_peak);
  EXPECT_EQ(a.stats.arena_peak, b.stats.arena_peak);
  EXPECT_EQ(a.stats.positions, b.stats.positions);
}

TEST(WorkspaceReuse, ChainSolveBitIdenticalOnDirtyWorkspace) {
  const net::Net net = reuse_net();
  const tech::Technology tech = tech::make_tech180();
  const RepeaterLibrary library = RepeaterLibrary::uniform(10.0, 10.0, 10);
  const auto candidates = net::uniform_candidates(net, 200.0);

  Workspace fresh_delay;
  ChainDpOptions delay_options;
  delay_options.mode = Mode::kMinDelay;
  const ChainDpResult reference_delay = run_chain_dp(
      net, tech.device(), library, candidates, delay_options, fresh_delay);

  ChainDpOptions power_options;
  power_options.mode = Mode::kMinPower;
  power_options.timing_target_fs = 1.4 * reference_delay.min_delay_fs;

  Workspace fresh;
  const ChainDpResult reference = run_chain_dp(
      net, tech.device(), library, candidates, power_options, fresh);
  EXPECT_EQ(reference.stats.workspace_reuses, 0u);

  Workspace reused;
  dirty_workspace(reused);
  const std::size_t prior = reused.stats().solves();
  EXPECT_GT(prior, 0u);
  // Solve N+1 on the reused workspace, twice: both must equal the
  // fresh-workspace solve bit for bit.
  for (int repeat = 0; repeat < 2; ++repeat) {
    const ChainDpResult again = run_chain_dp(
        net, tech.device(), library, candidates, power_options, reused);
    expect_identical(reference, again);
    EXPECT_GE(again.stats.workspace_reuses, prior);
  }

  // reconstruct_solutions=false must not change any number, only skip
  // the solution objects.
  ChainDpOptions stats_only = power_options;
  stats_only.reconstruct_solutions = false;
  const ChainDpResult bare = run_chain_dp(net, tech.device(), library,
                                          candidates, stats_only, reused);
  EXPECT_TRUE(bare.solution.empty());
  EXPECT_EQ(bare.delay_fs, reference.delay_fs);
  EXPECT_EQ(bare.total_width_u, reference.total_width_u);
  EXPECT_EQ(bare.min_delay_fs, reference.min_delay_fs);
  EXPECT_EQ(bare.stats.labels_created, reference.stats.labels_created);
}

TEST(WorkspaceReuse, TreeSolveBitIdenticalOnDirtyWorkspace) {
  Rng rng(2005);
  RandomTreeConfig config;
  config.sink_count = 6;
  const BufferTree tree = random_buffer_tree(config, rng);
  const tech::Technology tech = tech::make_tech180();
  const RepeaterLibrary library = RepeaterLibrary::uniform(20.0, 40.0, 6);

  Workspace fresh_delay;
  ChainDpOptions delay_options;
  delay_options.mode = Mode::kMinDelay;
  const TreeDpResult reference_delay = run_tree_dp(
      tree, tech.device(), 100.0, library, delay_options, fresh_delay);

  ChainDpOptions power_options;
  power_options.mode = Mode::kMinPower;
  power_options.timing_target_fs = 1.5 * reference_delay.min_delay_fs;

  Workspace fresh;
  const TreeDpResult reference = run_tree_dp(tree, tech.device(), 100.0,
                                             library, power_options, fresh);

  Workspace reused;
  dirty_workspace(reused);
  const TreeDpResult again = run_tree_dp(tree, tech.device(), 100.0, library,
                                         power_options, reused);
  EXPECT_EQ(reference.status, again.status);
  EXPECT_EQ(reference.delay_fs, again.delay_fs);
  EXPECT_EQ(reference.total_width_u, again.total_width_u);
  EXPECT_EQ(reference.min_delay_fs, again.min_delay_fs);
  ASSERT_EQ(reference.solution.width_u.size(), again.solution.width_u.size());
  for (std::size_t i = 0; i < reference.solution.width_u.size(); ++i) {
    EXPECT_EQ(reference.solution.width_u[i], again.solution.width_u[i]);
  }
  EXPECT_EQ(reference.stats.labels_created, again.stats.labels_created);
  EXPECT_EQ(reference.stats.labels_pruned, again.stats.labels_pruned);
  EXPECT_EQ(reference.stats.labels_peak, again.stats.labels_peak);
  EXPECT_EQ(reference.stats.arena_peak, again.stats.arena_peak);
  EXPECT_GT(again.stats.workspace_reuses, 0u);
}

TEST(WorkspaceReuse, ReleaseMemoryKeepsCountersAndCorrectness) {
  const net::Net net = reuse_net();
  const tech::Technology tech = tech::make_tech180();
  const RepeaterLibrary library = RepeaterLibrary::uniform(10.0, 20.0, 6);
  const auto candidates = net::uniform_candidates(net, 250.0);
  ChainDpOptions options;
  options.mode = Mode::kMinDelay;

  Workspace ws;
  const ChainDpResult before = run_chain_dp(net, tech.device(), library,
                                            candidates, options, ws);
  const std::size_t solves = ws.stats().solves();
  ws.release_memory();
  EXPECT_EQ(ws.stats().solves(), solves);
  const ChainDpResult after = run_chain_dp(net, tech.device(), library,
                                           candidates, options, ws);
  expect_identical(before, after);
}

}  // namespace
}  // namespace rip::dp

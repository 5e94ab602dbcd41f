// Cross-process sharding contract: the round-robin assignment puts
// every case in exactly one shard, and for any (shard_count, jobs)
// combo, running every shard's own cases through a parallel_for_indexed
// sweep of run_case and scattering them back reproduces the unsharded
// serial results bit for bit — including the seed-2005 golden values
// pinned in golden_test.cpp. This is the split rip_cli sweep/compare
// --shard performs before rip_cli merge reassembles the shard CSVs.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {
namespace {

constexpr double kPctTol = 1e-6;    // matches golden_test.cpp
constexpr double kWidthTol = 1e-9;  // matches golden_test.cpp

const tech::Technology& technology() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

const std::vector<std::pair<int, int>> kShardJobCombos = {
    {2, 1}, {2, 8}, {3, 2}, {5, 8}};

TEST(ShardAssignment, EveryCaseLandsInExactlyOneShard) {
  for (const std::size_t count : {0u, 1u, 7u, 40u, 101u}) {
    for (const int shards : {1, 2, 3, 8}) {
      std::vector<int> owner(count, -1);
      for (int s = 0; s < shards; ++s) {
        for (const std::size_t i : shard_case_indices(count, s, shards)) {
          ASSERT_LT(i, count);
          EXPECT_EQ(owner[i], -1)
              << "case " << i << " in two shards (" << owner[i] << " and "
              << s << ")";
          owner[i] = s;
          EXPECT_EQ(i % static_cast<std::size_t>(shards),
                    static_cast<std::size_t>(s));
        }
      }
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_NE(owner[i], -1) << "case " << i << " in no shard";
      }
    }
  }
}

TEST(ShardAssignment, RejectsOutOfRangeShards) {
  EXPECT_THROW(shard_case_indices(10, 2, 2), Error);
  EXPECT_THROW(shard_case_indices(10, -1, 2), Error);
  EXPECT_THROW(shard_case_indices(10, 0, 0), Error);
}

TEST(ShardDeterminism, RunCasesShardsMergeToSerialAndGoldenValues) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 2, 2005);
  const auto baseline = core::BaselineOptions::uniform_library(10.0, 10.0, 10);

  // Case 0 and 1 are the exact run_case goldens golden_test.cpp pins
  // (net_1 at 1.25x and 1.85x tau_min); the rest is a normal sweep.
  std::vector<net::NetlistRecord> cases;
  cases.push_back({workload[0].net, 1.25 * workload[0].tau_min_fs});
  cases.push_back({workload[0].net, 1.85 * workload[0].tau_min_fs});
  for (const auto& wn : workload) {
    for (const double tau_t : timing_targets_fs(wn.tau_min_fs, 5)) {
      cases.push_back({wn.net, tau_t});
    }
  }

  std::vector<CaseResult> serial;
  for (const auto& c : cases) {
    serial.push_back(run_case(c.net, tech, c.tau_t_fs, {}, baseline));
  }
  ASSERT_EQ(serial.size(), cases.size());

  for (const auto& [shard_count, jobs] : kShardJobCombos) {
    // Each shard runs only its own cases, and their results scatter
    // back to the global indices it owns.
    std::vector<CaseResult> merged(cases.size());
    std::size_t solved = 0;
    for (int s = 0; s < shard_count; ++s) {
      const auto owned = shard_case_indices(cases.size(), s, shard_count);
      std::vector<CaseResult> piece(owned.size());
      parallel_for_indexed(owned.size(), jobs, [&](std::size_t j) {
        const auto& c = cases[owned[j]];
        piece[j] = run_case(c.net, tech, c.tau_t_fs, {}, baseline);
      });
      ASSERT_EQ(piece.size(), owned.size()) << "shard " << s;
      for (std::size_t j = 0; j < owned.size(); ++j) merged[owned[j]] = piece[j];
      solved += piece.size();
    }
    EXPECT_EQ(solved, cases.size())
        << "shards " << shard_count << " jobs " << jobs;
    ASSERT_EQ(merged.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not just close.
      EXPECT_EQ(merged[i].tau_t_fs, serial[i].tau_t_fs)
          << "case " << i << " shards " << shard_count << " jobs " << jobs;
      EXPECT_EQ(merged[i].rip_feasible, serial[i].rip_feasible);
      EXPECT_EQ(merged[i].dp_feasible, serial[i].dp_feasible);
      EXPECT_EQ(merged[i].rip_width_u, serial[i].rip_width_u) << "case " << i;
      EXPECT_EQ(merged[i].dp_width_u, serial[i].dp_width_u) << "case " << i;
      EXPECT_EQ(merged[i].improvement_pct, serial[i].improvement_pct);
      // Runtimes are wall clock, but must be real per-task measurements
      // in every shard.
      EXPECT_GT(merged[i].rip_runtime_s, 0.0) << "case " << i;
      EXPECT_GT(merged[i].dp_runtime_s, 0.0) << "case " << i;
    }

    // The golden_test.cpp run_case pins, demanded of the merged run.
    EXPECT_TRUE(merged[0].rip_feasible);
    EXPECT_TRUE(merged[0].dp_feasible);
    EXPECT_NEAR(merged[0].rip_width_u, 280.0, kWidthTol);
    EXPECT_NEAR(merged[0].dp_width_u, 280.0, kWidthTol);
    EXPECT_NEAR(merged[0].improvement_pct, 0.0, kPctTol);
    EXPECT_NEAR(merged[1].rip_width_u, 50.0, kWidthTol);
    EXPECT_NEAR(merged[1].dp_width_u, 50.0, kWidthTol);
  }
}

}  // namespace
}  // namespace rip::eval

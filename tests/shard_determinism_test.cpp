// Cross-process sharding contract: for any (shard_count, jobs) combo,
// running every shard independently and merging reproduces the
// unsharded serial results bit for bit — including the seed-2005
// golden values pinned in golden_test.cpp — and the round-robin
// assignment puts every case in exactly one shard. This is what lets
// CI and multi-machine runs split the property sweeps.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/parallel.hpp"
#include "eval/workload.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"

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
          EXPECT_EQ(case_shard(i, shards), s);
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
  EXPECT_THROW(case_shard(3, 0), Error);
}

TEST(ShardDeterminism, RunCasesShardsMergeToSerialAndGoldenValues) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 2, 2005);
  const auto baseline = core::BaselineOptions::uniform_library(10.0, 10.0, 10);

  // Case 0 and 1 are the exact run_case goldens golden_test.cpp pins
  // (net_1 at 1.25x and 1.85x tau_min); the rest is a normal sweep.
  std::vector<Case> cases;
  cases.push_back(Case{&workload[0].net, 1.25 * workload[0].tau_min_fs,
                       core::RipOptions{}, baseline});
  cases.push_back(Case{&workload[0].net, 1.85 * workload[0].tau_min_fs,
                       core::RipOptions{}, baseline});
  for (const auto& wn : workload) {
    for (const double tau_t : timing_targets_fs(wn.tau_min_fs, 5)) {
      cases.push_back(Case{&wn.net, tau_t, core::RipOptions{}, baseline});
    }
  }

  const auto serial = run_cases(tech, cases, BatchOptions{});
  ASSERT_EQ(serial.size(), cases.size());

  for (const auto& [shard_count, jobs] : kShardJobCombos) {
    // Each shard's results scatter back to the global indices it owns.
    std::vector<CaseResult> merged(cases.size());
    std::size_t solved = 0;
    for (int s = 0; s < shard_count; ++s) {
      BatchOptions options;
      options.jobs = jobs;
      options.shard_index = s;
      options.shard_count = shard_count;
      const auto piece = run_cases(tech, cases, options);
      const auto owned = shard_case_indices(cases.size(), s, shard_count);
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

TEST(ShardDeterminism, Table1ShardsMergeToSerialAndGoldenValues) {
  // The golden_test.cpp Table 1 configuration (3 nets x 5 targets).
  Table1Config config;
  config.net_count = 3;
  config.targets_per_net = 5;

  config.jobs = 1;
  const auto serial = run_table1(technology(), config);

  for (const auto& [shard_count, jobs] : kShardJobCombos) {
    config.jobs = jobs;
    std::vector<Table1Shard> shards;
    for (int s = 0; s < shard_count; ++s) {
      shards.push_back(
          run_table1_shard(technology(), config, s, shard_count));
    }
    const auto merged = merge_table1_shards(config, shards);

    ASSERT_EQ(merged.rows.size(), serial.rows.size())
        << "shards " << shard_count << " jobs " << jobs;
    for (std::size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(merged.rows[r].net_name, serial.rows[r].net_name);
      EXPECT_EQ(merged.rows[r].rip_violations,
                serial.rows[r].rip_violations);
      ASSERT_EQ(merged.rows[r].cells.size(), serial.rows[r].cells.size());
      for (std::size_t g = 0; g < serial.rows[r].cells.size(); ++g) {
        EXPECT_EQ(merged.rows[r].cells[g].delta_max_pct,
                  serial.rows[r].cells[g].delta_max_pct)
            << "row " << r << " g " << g << " shards " << shard_count;
        EXPECT_EQ(merged.rows[r].cells[g].delta_mean_pct,
                  serial.rows[r].cells[g].delta_mean_pct);
        EXPECT_EQ(merged.rows[r].cells[g].dp_violations,
                  serial.rows[r].cells[g].dp_violations);
        EXPECT_EQ(merged.rows[r].cells[g].compared,
                  serial.rows[r].cells[g].compared);
      }
    }

    // The same seed-2005 golden Ave values golden_test.cpp pins for
    // the serial runner, demanded of every sharded+merged run.
    ASSERT_EQ(merged.average.cells.size(), 3u);
    EXPECT_NEAR(merged.average.cells[0].delta_max_pct, 1.282051, kPctTol);
    EXPECT_NEAR(merged.average.cells[1].delta_max_pct, 17.587992, kPctTol);
    EXPECT_NEAR(merged.average.cells[2].delta_max_pct, 25.661376, kPctTol);
    EXPECT_NEAR(merged.average.cells[0].delta_mean_pct, 0.320513, kPctTol);
    EXPECT_NEAR(merged.average.cells[1].delta_mean_pct, 5.883723, kPctTol);
    EXPECT_NEAR(merged.average.cells[2].delta_mean_pct, 10.334272,
                kPctTol);
  }
}

TEST(ShardDeterminism, Table2ShardsMergeToSerialQualityColumns) {
  // The parallel_determinism_test Table 2 configuration, now sharded.
  Table2Config config;
  config.net_count = 2;
  config.targets_per_net = 3;
  config.granularities_u = {40.0, 20.0};

  config.jobs = 1;
  const auto serial = run_table2(technology(), config);

  for (const auto& [shard_count, jobs] :
       std::vector<std::pair<int, int>>{{2, 1}, {3, 8}}) {
    config.jobs = jobs;
    std::vector<Table2Shard> shards;
    for (int s = 0; s < shard_count; ++s) {
      shards.push_back(
          run_table2_shard(technology(), config, s, shard_count));
    }
    const auto merged = merge_table2_shards(config, shards);

    ASSERT_EQ(merged.rows.size(), serial.rows.size())
        << "shards " << shard_count << " jobs " << jobs;
    for (std::size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(merged.rows[r].granularity_u, serial.rows[r].granularity_u);
      // Quality columns bit-identical; runtime columns are wall clock
      // but must be genuine per-task measurements in every shard.
      EXPECT_EQ(merged.rows[r].delta_mean_pct, serial.rows[r].delta_mean_pct)
          << "row " << r << " shards " << shard_count << " jobs " << jobs;
      EXPECT_EQ(merged.rows[r].compared, serial.rows[r].compared)
          << "row " << r;
      EXPECT_GT(merged.rows[r].dp_runtime_s, 0.0);
      EXPECT_GT(merged.rows[r].rip_runtime_s, 0.0);
      EXPECT_GT(merged.rows[r].speedup, 0.0);
    }
  }
}

TEST(ShardDeterminism, Fig7ShardsMergeToSerial) {
  Fig7Config config;
  config.points = 7;

  config.jobs = 1;
  const auto serial = run_fig7(technology(), config);

  for (const auto& [shard_count, jobs] :
       std::vector<std::pair<int, int>>{{2, 1}, {3, 8}}) {
    config.jobs = jobs;
    std::vector<Fig7Shard> shards;
    for (int s = 0; s < shard_count; ++s) {
      shards.push_back(run_fig7_shard(technology(), config, s, shard_count));
    }
    const auto merged = merge_fig7_shards(config, shards);

    EXPECT_EQ(merged.net_name, serial.net_name)
        << "shards " << shard_count << " jobs " << jobs;
    EXPECT_EQ(merged.tau_min_fs, serial.tau_min_fs);
    ASSERT_EQ(merged.series.size(), serial.series.size());
    for (std::size_t s = 0; s < serial.series.size(); ++s) {
      ASSERT_EQ(merged.series[s].points.size(),
                serial.series[s].points.size());
      for (std::size_t p = 0; p < serial.series[s].points.size(); ++p) {
        const auto& sp = serial.series[s].points[p];
        const auto& mp = merged.series[s].points[p];
        // Bit-identical, not just close.
        EXPECT_EQ(mp.tau_t_fs, sp.tau_t_fs)
            << "series " << s << " pt " << p << " shards " << shard_count;
        EXPECT_EQ(mp.tau_t_over_tau_min, sp.tau_t_over_tau_min);
        EXPECT_EQ(mp.dp_feasible, sp.dp_feasible);
        EXPECT_EQ(mp.improvement_pct, sp.improvement_pct)
            << "series " << s << " pt " << p;
      }
    }
  }
}

TEST(ShardDeterminism, Table2AndFig7MergeRejectIncompleteSplits) {
  Table2Config t2;
  t2.net_count = 1;
  t2.targets_per_net = 2;
  t2.granularities_u = {40.0};
  const auto t2_shard = run_table2_shard(technology(), t2, 0, 2);
  // One shard of a 2-way split is not a mergeable set.
  EXPECT_THROW(merge_table2_shards(t2, {&t2_shard, 1}), Error);

  Fig7Config f7;
  f7.points = 3;
  f7.granularities_u = {40.0};
  const auto f7_shard = run_fig7_shard(technology(), f7, 1, 2);
  EXPECT_THROW(merge_fig7_shards(f7, {&f7_shard, 1}), Error);
}

TEST(ShardDeterminism, Table1MergeRejectsSlicesOffTheirGroupAssignment) {
  // 3 nets x 2 targets over 2 shards. A group is one net's RIP sweep or
  // one (net, g) baseline sweep, and group j belongs to shard j % 2:
  // shard 0 owns nets 0 and 2 (4 RIP cases), shard 1 owns net 1 (2).
  Table1Config config;
  config.net_count = 3;
  config.targets_per_net = 2;
  config.granularities_u = {40.0};
  const std::vector<Table1Shard> shards = {
      run_table1_shard(technology(), config, 0, 2),
      run_table1_shard(technology(), config, 1, 2)};
  ASSERT_EQ(shards[0].rip.size(), 4u);
  ASSERT_EQ(shards[1].rip.size(), 2u);
  ASSERT_EQ(shards[0].dp.size(), 4u);
  EXPECT_NO_THROW(merge_table1_shards(config, shards));

  // The per-case round-robin layout (3/3) is not this split's.
  auto per_case = shards;
  per_case[1].rip.push_back(per_case[0].rip.back());
  per_case[0].rip.pop_back();
  EXPECT_THROW(merge_table1_shards(config, per_case), Error);

  // A baseline slice one case short of its groups.
  auto short_dp = shards;
  short_dp[1].dp.pop_back();
  EXPECT_THROW(merge_table1_shards(config, short_dp), Error);

  // A merge under another target count cuts different groups.
  Table1Config other = config;
  other.targets_per_net = 3;
  EXPECT_THROW(merge_table1_shards(other, shards), Error);
}

TEST(ShardDeterminism, MergeAcceptsShardsInAnyOrder) {
  Table1Config config;
  config.net_count = 2;
  config.targets_per_net = 3;
  config.jobs = 2;

  const auto serial = run_table1(technology(), config);
  std::vector<Table1Shard> shards;
  shards.push_back(run_table1_shard(technology(), config, 1, 2));
  shards.push_back(run_table1_shard(technology(), config, 0, 2));
  const auto merged = merge_table1_shards(config, shards);
  ASSERT_EQ(merged.rows.size(), serial.rows.size());
  for (std::size_t r = 0; r < serial.rows.size(); ++r) {
    for (std::size_t g = 0; g < serial.rows[r].cells.size(); ++g) {
      EXPECT_EQ(merged.rows[r].cells[g].delta_mean_pct,
                serial.rows[r].cells[g].delta_mean_pct)
          << "row " << r << " g " << g;
    }
  }
}

}  // namespace
}  // namespace rip::eval

// Tests for the experiment harnesses (workload generation, target
// sweeps, and the Table 1 / Table 2 / Fig. 7 runners on reduced
// configurations).

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "dp/workspace.hpp"
#include "eval/experiments.hpp"
#include "eval/workload.hpp"
#include "util/error.hpp"

namespace rip::eval {
namespace {

const tech::Technology& technology() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

// -------------------------------------------------------------- workload

TEST(Workload, DeterministicAcrossCalls) {
  const auto a = make_paper_workload(technology(), 3, 99);
  const auto b = make_paper_workload(technology(), 3, 99);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].net.total_length_um(), b[i].net.total_length_um());
    EXPECT_DOUBLE_EQ(a[i].tau_min_fs, b[i].tau_min_fs);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  const auto a = make_paper_workload(technology(), 2, 1);
  const auto b = make_paper_workload(technology(), 2, 2);
  EXPECT_NE(a[0].net.total_length_um(), b[0].net.total_length_um());
}

TEST(Workload, TauMinIsPositiveAndBelowUnbuffered) {
  const auto wl = make_paper_workload(technology(), 3, 7);
  for (const auto& wn : wl) {
    EXPECT_GT(wn.tau_min_fs, 0.0);
  }
}

TEST(Workload, NetNamesAreSequential) {
  const auto wl = make_paper_workload(technology(), 3, 7);
  EXPECT_EQ(wl[0].net.name(), "net_1");
  EXPECT_EQ(wl[2].net.name(), "net_3");
}

TEST(TimingTargets, PaperSweepSpacing) {
  const auto t = timing_targets_fs(1000.0, 20);
  ASSERT_EQ(t.size(), 20u);
  EXPECT_DOUBLE_EQ(t.front(), 1050.0);
  EXPECT_DOUBLE_EQ(t.back(), 2050.0);
  // Uniform spacing.
  const double step = t[1] - t[0];
  for (std::size_t i = 2; i < t.size(); ++i) {
    EXPECT_NEAR(t[i] - t[i - 1], step, 1e-9);
  }
}

TEST(TimingTargets, SinglePointAndValidation) {
  const auto t = timing_targets_fs(1000.0, 1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t[0], 1050.0);
  EXPECT_THROW(timing_targets_fs(0.0, 5), Error);
  EXPECT_THROW(timing_targets_fs(1000.0, 0), Error);
  EXPECT_THROW(timing_targets_fs(1000.0, 5, 2.0, 1.0), Error);
}

// -------------------------------------------------------------- run_case

TEST(RunCase, PopulatesAllFields) {
  const auto wl = make_paper_workload(technology(), 1, 55);
  const double tau_t = 1.5 * wl[0].tau_min_fs;
  const auto cr = run_case(wl[0].net, technology(), tau_t, core::RipOptions{},
                           core::BaselineOptions::uniform_library(10, 20, 10));
  EXPECT_DOUBLE_EQ(cr.tau_t_fs, tau_t);
  EXPECT_GT(cr.rip_runtime_s, 0.0);
  EXPECT_GT(cr.dp_runtime_s, 0.0);
  if (cr.rip_feasible && cr.dp_feasible) {
    EXPECT_GT(cr.dp_width_u, 0.0);
    // improvement consistent with the widths
    EXPECT_NEAR(cr.improvement_pct,
                (cr.dp_width_u - cr.rip_width_u) / cr.dp_width_u * 100.0,
                1e-9);
  }
}

// --------------------------------------------------------------- table 1

TEST(Table1, MiniRunHasPaperShape) {
  Table1Config config;
  config.net_count = 2;
  config.targets_per_net = 4;
  config.seed = 2005;
  const auto result = run_table1(technology(), config);
  ASSERT_EQ(result.rows.size(), 2u);
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.cells.size(), 3u);  // g = 10, 20, 40
    // The paper's headline claim: RIP never violates timing.
    EXPECT_EQ(row.rip_violations, 0);
    // Improvements are percentages in a sane band.
    for (const auto& cell : row.cells) {
      EXPECT_GE(cell.delta_max_pct, -100.0);
      EXPECT_LE(cell.delta_max_pct, 100.0);
    }
  }
  // The average row aggregates all nets.
  ASSERT_EQ(result.average.cells.size(), 3u);
  EXPECT_EQ(result.average.net_name, "Ave");
}

TEST(Table1, RendersWithExpectedColumns) {
  Table1Config config;
  config.net_count = 1;
  config.targets_per_net = 2;
  const auto result = run_table1(technology(), config);
  const Table table = to_table(result);
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("V_DP(g=10u)"), std::string::npos);
  EXPECT_NE(out.find("dMean%(g=40u)"), std::string::npos);
  EXPECT_NE(out.find("Ave"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);  // one net + Ave
}

// --------------------------------------------------------------- table 2

TEST(Table2, SpeedupGrowsAsGranularityShrinks) {
  Table2Config config;
  config.net_count = 2;
  config.targets_per_net = 3;
  config.granularities_u = {40.0, 10.0};
  const auto result = run_table2(technology(), config);
  ASSERT_EQ(result.rows.size(), 2u);
  const auto& coarse = result.rows[0];
  const auto& fine = result.rows[1];
  EXPECT_DOUBLE_EQ(coarse.granularity_u, 40.0);
  EXPECT_DOUBLE_EQ(fine.granularity_u, 10.0);
  // The finer the DP library, the slower the DP (the paper's headline
  // tradeoff); RIP runtime is granularity-independent.
  EXPECT_GT(fine.dp_runtime_s, coarse.dp_runtime_s);
  EXPECT_GT(fine.speedup, coarse.speedup);
  EXPECT_DOUBLE_EQ(fine.rip_runtime_s, coarse.rip_runtime_s);
  // Fine-granularity DP closes the quality gap.
  EXPECT_LE(fine.delta_mean_pct, coarse.delta_mean_pct + 1e-9);
}

TEST(Table2, RendersRows) {
  Table2Config config;
  config.net_count = 1;
  config.targets_per_net = 2;
  config.granularities_u = {40.0};
  const auto result = run_table2(technology(), config);
  const Table table = to_table(result);
  EXPECT_EQ(table.rows(), 1u);
}

// ---------------------------------------------------------------- fig 7

TEST(Fig7, SeriesCoverTheTargetRange) {
  Fig7Config config;
  config.points = 5;
  config.net_index = 0;
  const auto result = run_fig7(technology(), config);
  ASSERT_EQ(result.series.size(), 2u);  // g = 10u and 40u
  for (const auto& series : result.series) {
    ASSERT_EQ(series.points.size(), 5u);
    EXPECT_NEAR(series.points.front().tau_t_over_tau_min, 1.05, 1e-9);
    EXPECT_NEAR(series.points.back().tau_t_over_tau_min, 2.05, 1e-9);
  }
}

TEST(Fig7, ZoneStructure) {
  // Zone I: with g=10u (library capped at 100u) the DP must violate
  // tight targets; zone III: at loose targets both schemes agree so the
  // improvement collapses toward zero. (The g=40u series has no zone I.)
  Fig7Config config;
  config.points = 9;
  const auto result = run_fig7(technology(), config);
  const auto& g10 = result.series[0];
  const auto& g40 = result.series[1];
  EXPECT_FALSE(g10.points.front().dp_feasible);  // zone I exists
  EXPECT_TRUE(g40.points.front().dp_feasible);   // no zone I for g=40u
  EXPECT_TRUE(g10.points.back().dp_feasible);    // zone III feasible
}

TEST(Fig7, RendersViolationsDistinctly) {
  Fig7Config config;
  config.points = 4;
  const auto result = run_fig7(technology(), config);
  const Table table = to_table(result);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("VIOL"), std::string::npos);
}

// ------------------------------------------------------- frontier reuse
//
// Table 1 and Fig. 7 sweep each (net, library) chain-DP frontier once
// and select every target from it; Table 2 times the paper's cold
// per-design runtimes, so it solves every task cold. At jobs 1
// every solve runs on this thread's workspace, whose chain_solves
// counter then accounts for each one.

template <class Fn>
std::size_t chain_solves_in(Fn&& fn) {
  const std::size_t before = dp::Workspace::local().stats().chain_solves;
  fn();
  return dp::Workspace::local().stats().chain_solves - before;
}

/// Stage-3 solves RIP performs on every (net, target) of the sweep,
/// counted from direct cold rip_insert calls: each sweeps its coarse
/// stage once, so the rest of its chain solves are stage 3.
std::size_t stage3_solves(const std::vector<WorkloadNet>& workload,
                          int targets_per_net) {
  std::size_t solves = 0;
  for (const auto& wn : workload) {
    for (const double tau : timing_targets_fs(wn.tau_min_fs, targets_per_net)) {
      solves += chain_solves_in([&] {
                  core::rip_insert(wn.net, technology().device(), tau);
                }) - 1;
    }
  }
  return solves;
}

/// The runners' own workload: its tau_min solves and its nets.
std::size_t workload_solves(int net_count, std::uint64_t seed,
                            std::vector<WorkloadNet>& workload) {
  return chain_solves_in(
      [&] { workload = make_paper_workload(technology(), net_count, seed); });
}

TEST(FrontierReuse, Table1SweepsEachNetLibraryFrontierOnce) {
  Table1Config config;
  config.net_count = 3;
  config.targets_per_net = 5;
  std::vector<WorkloadNet> workload;
  const std::size_t tau_min = workload_solves(3, config.seed, workload);
  const std::size_t stage3 = stage3_solves(workload, 5);
  ASSERT_GT(stage3, 0u);

  const std::size_t solves =
      chain_solves_in([&] { run_table1(technology(), config); });
  // One frontier per net for RIP's coarse library plus one per
  // (net, g) for the baseline — not one per target.
  const std::size_t g_n = config.granularities_u.size();
  EXPECT_EQ(solves, tau_min + 3 * (g_n + 1) + stage3);
}

TEST(FrontierReuse, Fig7SweepsEachLibraryFrontierOnce) {
  Fig7Config config;
  config.points = 6;
  config.net_index = 1;
  std::vector<WorkloadNet> workload;
  const std::size_t tau_min = workload_solves(2, config.seed, workload);
  const std::size_t stage3 =
      stage3_solves({workload.back()}, config.points);

  const std::size_t solves =
      chain_solves_in([&] { run_fig7(technology(), config); });
  EXPECT_EQ(solves,
            tau_min + (config.granularities_u.size() + 1) + stage3);
}

TEST(FrontierReuse, Table2SolvesEveryTaskCold) {
  Table2Config config;
  config.net_count = 2;
  config.targets_per_net = 3;
  config.granularities_u = {40.0, 20.0};
  std::vector<WorkloadNet> workload;
  const std::size_t tau_min = workload_solves(2, config.seed, workload);
  const std::size_t stage3 = stage3_solves(workload, 3);

  const std::size_t solves =
      chain_solves_in([&] { run_table2(technology(), config); });
  // Every T_RIP task sweeps its coarse stage and every T_DP task its
  // baseline: 2 nets x 3 targets x (1 + 2 granularities).
  EXPECT_EQ(solves, tau_min + 2 * 3 * 3 + stage3);
}

}  // namespace
}  // namespace rip::eval

// The parallel engine's core contract: any job count produces results
// bit-identical to the serial path. Each runner is executed at jobs=1
// and jobs=8 on the seed-2005 workload and compared field by field with
// exact equality (runtime fields excepted — those are wall clock,
// asserted only to be per-task measurements, i.e. positive for every
// case). run_table1 at jobs=8 is additionally checked against the same
// golden Ave values golden_test.cpp pins for the serial path.

#include <gtest/gtest.h>

#include "eval/experiments.hpp"
#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {
namespace {

constexpr double kPctTol = 1e-6;  // matches golden_test.cpp

const tech::Technology& technology() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

void expect_same(const Table1Row& serial, const Table1Row& parallel) {
  EXPECT_EQ(parallel.net_name, serial.net_name);
  EXPECT_EQ(parallel.rip_violations, serial.rip_violations);
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  for (std::size_t g = 0; g < serial.cells.size(); ++g) {
    EXPECT_EQ(parallel.cells[g].delta_max_pct, serial.cells[g].delta_max_pct)
        << "g-index " << g;
    EXPECT_EQ(parallel.cells[g].delta_mean_pct,
              serial.cells[g].delta_mean_pct)
        << "g-index " << g;
    EXPECT_EQ(parallel.cells[g].dp_violations, serial.cells[g].dp_violations)
        << "g-index " << g;
    EXPECT_EQ(parallel.cells[g].compared, serial.cells[g].compared)
        << "g-index " << g;
  }
}

TEST(ParallelDeterminism, WorkloadIsIdenticalAtAnyJobCount) {
  const auto serial = make_paper_workload(technology(), 4, 2005, {},
                                          {10.0, 400.0, 10.0, 200.0}, 1);
  for (const int jobs : {2, 8}) {
    const auto parallel = make_paper_workload(
        technology(), 4, 2005, {}, {10.0, 400.0, 10.0, 200.0}, jobs);
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].net.name(), serial[i].net.name());
      // Bit-identical, not just close.
      EXPECT_EQ(parallel[i].tau_min_fs, serial[i].tau_min_fs)
          << "net " << i << " jobs=" << jobs;
      EXPECT_EQ(parallel[i].net.total_length_um(),
                serial[i].net.total_length_um());
    }
  }
}

TEST(ParallelDeterminism, RunCasesMatchesSerialBitForBit) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 2, 2005);
  const auto baseline = core::BaselineOptions::uniform_library(10.0, 10.0, 10);

  std::vector<net::NetlistRecord> cases;
  for (const auto& wn : workload) {
    for (const double tau_t : timing_targets_fs(wn.tau_min_fs, 5)) {
      cases.push_back({wn.net, tau_t});
    }
  }

  std::vector<CaseResult> serial(cases.size());
  std::vector<CaseResult> parallel(cases.size());
  for (const int jobs : {1, 8}) {
    auto& out = jobs == 1 ? serial : parallel;
    parallel_for_indexed(cases.size(), jobs, [&](std::size_t i) {
      out[i] = run_case(cases[i].net, tech, cases[i].tau_t_fs, {}, baseline);
    });
  }
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].tau_t_fs, serial[i].tau_t_fs) << "case " << i;
    EXPECT_EQ(parallel[i].rip_feasible, serial[i].rip_feasible);
    EXPECT_EQ(parallel[i].dp_feasible, serial[i].dp_feasible);
    EXPECT_EQ(parallel[i].rip_width_u, serial[i].rip_width_u) << "case " << i;
    EXPECT_EQ(parallel[i].dp_width_u, serial[i].dp_width_u) << "case " << i;
    EXPECT_EQ(parallel[i].improvement_pct, serial[i].improvement_pct);
    // Runtimes are measured inside the worker, per task — they must be
    // real (positive) at every job count, not a share of a batch timer.
    EXPECT_GT(parallel[i].rip_runtime_s, 0.0) << "case " << i;
    EXPECT_GT(parallel[i].dp_runtime_s, 0.0) << "case " << i;
  }
}

TEST(ParallelDeterminism, Table1AtJobs8MatchesSerialAndGoldenValues) {
  Table1Config config;
  config.net_count = 3;
  config.targets_per_net = 5;

  config.jobs = 1;
  const auto serial = run_table1(technology(), config);
  config.jobs = 8;
  const auto parallel = run_table1(technology(), config);

  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (std::size_t r = 0; r < serial.rows.size(); ++r) {
    expect_same(serial.rows[r], parallel.rows[r]);
  }
  expect_same(serial.average, parallel.average);

  // The same seed-2005 golden Ave values golden_test.cpp pins for the
  // serial runner, now demanded of the 8-job runner.
  ASSERT_EQ(parallel.average.cells.size(), 3u);
  EXPECT_NEAR(parallel.average.cells[0].delta_max_pct, 1.282051, kPctTol);
  EXPECT_NEAR(parallel.average.cells[1].delta_max_pct, 17.587992, kPctTol);
  EXPECT_NEAR(parallel.average.cells[2].delta_max_pct, 25.661376, kPctTol);
  EXPECT_NEAR(parallel.average.cells[0].delta_mean_pct, 0.320513, kPctTol);
  EXPECT_NEAR(parallel.average.cells[1].delta_mean_pct, 5.883723, kPctTol);
  EXPECT_NEAR(parallel.average.cells[2].delta_mean_pct, 10.334272, kPctTol);
}

TEST(ParallelDeterminism, Table2AtJobs8MatchesSerialQualityColumns) {
  Table2Config config;
  config.net_count = 2;
  config.targets_per_net = 3;
  config.granularities_u = {40.0, 20.0};

  config.jobs = 1;
  const auto serial = run_table2(technology(), config);
  config.jobs = 8;
  const auto parallel = run_table2(technology(), config);

  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (std::size_t r = 0; r < serial.rows.size(); ++r) {
    EXPECT_EQ(parallel.rows[r].granularity_u, serial.rows[r].granularity_u);
    EXPECT_EQ(parallel.rows[r].delta_mean_pct, serial.rows[r].delta_mean_pct)
        << "row " << r;
    EXPECT_EQ(parallel.rows[r].compared, serial.rows[r].compared);
    // Runtime columns are wall clock (not comparable across runs) but
    // must be per-task measurements: positive means every task was
    // individually timed inside its worker.
    EXPECT_GT(parallel.rows[r].dp_runtime_s, 0.0);
    EXPECT_GT(parallel.rows[r].rip_runtime_s, 0.0);
  }
}

TEST(ParallelDeterminism, Fig7AtJobs8MatchesSerial) {
  Fig7Config config;
  config.points = 7;

  config.jobs = 1;
  const auto serial = run_fig7(technology(), config);
  config.jobs = 8;
  const auto parallel = run_fig7(technology(), config);

  EXPECT_EQ(parallel.net_name, serial.net_name);
  EXPECT_EQ(parallel.tau_min_fs, serial.tau_min_fs);
  ASSERT_EQ(parallel.series.size(), serial.series.size());
  for (std::size_t s = 0; s < serial.series.size(); ++s) {
    ASSERT_EQ(parallel.series[s].points.size(),
              serial.series[s].points.size());
    for (std::size_t p = 0; p < serial.series[s].points.size(); ++p) {
      const auto& sp = serial.series[s].points[p];
      const auto& pp = parallel.series[s].points[p];
      EXPECT_EQ(pp.tau_t_fs, sp.tau_t_fs) << "series " << s << " pt " << p;
      EXPECT_EQ(pp.dp_feasible, sp.dp_feasible);
      EXPECT_EQ(pp.improvement_pct, sp.improvement_pct)
          << "series " << s << " pt " << p;
    }
  }
}

}  // namespace
}  // namespace rip::eval

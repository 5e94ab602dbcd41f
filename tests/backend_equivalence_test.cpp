// Integration proof of backend equivalence: an explicit
// Paper2005Backend threaded through every evaluation front-end — the
// Table 1/2 and Fig. 7 runners, a parallel_for_indexed sweep of
// run_case, and the async service — must reproduce the default
// (backend == nullptr) path bit for bit, at jobs {1, 8}, cached and
// uncached. Also pins the SolveContext plumbing itself: the context's
// cache reaches the solver from a sweep and from a service thunk.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "eval/experiments.hpp"
#include "eval/service.hpp"
#include "eval/solve_cache.hpp"
#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "tech/objective.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {
namespace {

void expect_same_cell(const Table1Cell& a, const Table1Cell& b) {
  EXPECT_EQ(a.delta_max_pct, b.delta_max_pct);
  EXPECT_EQ(a.delta_mean_pct, b.delta_mean_pct);
  EXPECT_EQ(a.dp_violations, b.dp_violations);
  EXPECT_EQ(a.compared, b.compared);
}

void expect_same_row(const Table1Row& a, const Table1Row& b) {
  EXPECT_EQ(a.net_name, b.net_name);
  EXPECT_EQ(a.rip_violations, b.rip_violations);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    expect_same_cell(a.cells[i], b.cells[i]);
  }
}

void expect_same_case(const CaseResult& a, const CaseResult& b) {
  EXPECT_EQ(a.tau_t_fs, b.tau_t_fs);
  EXPECT_EQ(a.rip_feasible, b.rip_feasible);
  EXPECT_EQ(a.dp_feasible, b.dp_feasible);
  EXPECT_EQ(a.rip_width_u, b.rip_width_u);
  EXPECT_EQ(a.dp_width_u, b.dp_width_u);
  EXPECT_EQ(a.improvement_pct, b.improvement_pct);
}

/// A paper-shaped but test-sized sweep config pair: same workload seed,
/// one run with config.backend = nullptr, one with the explicit backend.
template <class Config>
Config small_config() {
  Config config;
  config.granularities_u = {20.0, 40.0};
  return config;
}

TEST(BackendEquivalence, Table1PaperBackendMatchesDefault) {
  const tech::Technology tech = tech::make_tech180();
  const tech::Paper2005Backend backend(tech.power(), tech.device());
  auto config = small_config<Table1Config>();
  config.net_count = 4;
  config.targets_per_net = 5;

  config.backend = nullptr;
  config.jobs = 1;
  const auto reference = run_table1(tech, config);

  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    config.backend = &backend;
    config.jobs = jobs;
    const auto with = run_table1(tech, config);
    ASSERT_EQ(with.rows.size(), reference.rows.size());
    for (std::size_t i = 0; i < with.rows.size(); ++i) {
      expect_same_row(with.rows[i], reference.rows[i]);
    }
    expect_same_row(with.average, reference.average);
  }
}

TEST(BackendEquivalence, Table2PaperBackendMatchesDefault) {
  const tech::Technology tech = tech::make_tech180();
  const tech::Paper2005Backend backend(tech.power(), tech.device());
  auto config = small_config<Table2Config>();
  config.net_count = 3;
  config.targets_per_net = 4;

  config.backend = nullptr;
  config.jobs = 1;
  const auto reference = run_table2(tech, config);

  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    config.backend = &backend;
    config.jobs = jobs;
    const auto with = run_table2(tech, config);
    ASSERT_EQ(with.rows.size(), reference.rows.size());
    for (std::size_t i = 0; i < with.rows.size(); ++i) {
      // Quality columns are deterministic; runtime columns are wall
      // clock and excluded by design.
      EXPECT_EQ(with.rows[i].granularity_u, reference.rows[i].granularity_u);
      EXPECT_EQ(with.rows[i].delta_mean_pct, reference.rows[i].delta_mean_pct);
      EXPECT_EQ(with.rows[i].compared, reference.rows[i].compared);
    }
  }
}

TEST(BackendEquivalence, Fig7PaperBackendMatchesDefault) {
  const tech::Technology tech = tech::make_tech180();
  const tech::Paper2005Backend backend(tech.power(), tech.device());
  auto config = small_config<Fig7Config>();
  config.points = 7;

  config.backend = nullptr;
  config.jobs = 1;
  const auto reference = run_fig7(tech, config);

  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    config.backend = &backend;
    config.jobs = jobs;
    const auto with = run_fig7(tech, config);
    EXPECT_EQ(with.net_name, reference.net_name);
    EXPECT_EQ(with.tau_min_fs, reference.tau_min_fs);
    ASSERT_EQ(with.series.size(), reference.series.size());
    for (std::size_t s = 0; s < with.series.size(); ++s) {
      EXPECT_EQ(with.series[s].granularity_u,
                reference.series[s].granularity_u);
      ASSERT_EQ(with.series[s].points.size(),
                reference.series[s].points.size());
      for (std::size_t p = 0; p < with.series[s].points.size(); ++p) {
        EXPECT_EQ(with.series[s].points[p].tau_t_fs,
                  reference.series[s].points[p].tau_t_fs);
        EXPECT_EQ(with.series[s].points[p].dp_feasible,
                  reference.series[s].points[p].dp_feasible);
        EXPECT_EQ(with.series[s].points[p].improvement_pct,
                  reference.series[s].points[p].improvement_pct);
      }
    }
  }
}

/// The cases the engine-level tests share: 2 nets x 3 targets, each
/// against small_baseline().
std::vector<net::NetlistRecord> small_batch(
    const std::vector<WorkloadNet>& workload) {
  std::vector<net::NetlistRecord> cases;
  for (const auto& wn : workload) {
    for (const double f : {1.2, 1.5, 1.9}) {
      cases.push_back({wn.net, f * wn.tau_min_fs});
    }
  }
  return cases;
}

const core::BaselineOptions& small_baseline() {
  static const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 40.0, 5);
  return baseline;
}

TEST(BackendEquivalence, RunCasesBackendCachedAsyncAllBitIdentical) {
  const tech::Technology tech = tech::make_tech180();
  const auto workload = make_paper_workload(tech, 2);
  const auto cases = small_batch(workload);
  const tech::Paper2005Backend backend(tech.power(), tech.device());

  // Reference: the serial default path (no context at all).
  std::vector<CaseResult> reference;
  for (const auto& c : cases) {
    reference.push_back(
        run_case(c.net, tech, c.tau_t_fs, {}, small_baseline()));
  }

  // A parallel_for_indexed sweep of run_case, explicit backend, jobs x
  // cache grid.
  for (const int jobs : {1, 8}) {
    for (const bool cached : {false, true}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + (cached ? " cached" : ""));
      SolveCache cache({64, 4});
      SolveContext context;
      context.backend = &backend;
      if (cached) context.cache = &cache;
      std::vector<CaseResult> got(cases.size());
      parallel_for_indexed(cases.size(), jobs, [&](std::size_t i) {
        got[i] = run_case(cases[i].net, tech, cases[i].tau_t_fs, {},
                          small_baseline(), context);
      });
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        expect_same_case(got[i], reference[i]);
      }
      if (cached) {
        // Counts that do not depend on scheduling: two lookups per case
        // (RIP's coarse stage and the baseline) and one entry per key,
        // 2 nets x {coarse, baseline} (racing duplicate inserts are not
        // counted). Above jobs 1 all six cases can miss at once, so a
        // hit is demanded only of the serial run.
        const SolveCacheStats stats = cache.stats();
        EXPECT_EQ(stats.lookups(), 2 * cases.size());
        EXPECT_EQ(stats.insertions, 4u);
        if (jobs == 1) {
          EXPECT_GT(stats.hits, 0u);
        }
      }
    }
  }

  // Async service with the backend in its thunks' context: same bits
  // again.
  ServiceOptions service_options;
  service_options.jobs = 8;
  SolveContext service_context;
  service_context.backend = &backend;
  EvalService service(tech, service_options);
  std::vector<std::future<CaseResult>> futures;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    futures.push_back(service.submit_fn([&, i] {
      return run_case(cases[i].net, tech, cases[i].tau_t_fs, {},
                      small_baseline(), service_context);
    }));
  }
  std::vector<CaseResult> async;
  for (auto& future : futures) async.push_back(future.get());
  ASSERT_EQ(async.size(), reference.size());
  for (std::size_t i = 0; i < async.size(); ++i) {
    SCOPED_TRACE("async case " + std::to_string(i));
    expect_same_case(async[i], reference[i]);
  }
}

TEST(SolveContextPlumbing, ContextCacheReachesBothBatchEngines) {
  const tech::Technology tech = tech::make_tech180();
  const auto workload = make_paper_workload(tech, 1);
  const auto cases = small_batch(workload);

  // context.cache attaches the cache to a sweep of run_case.
  SolveCache batch_cache({64, 4});
  SolveContext batch_context;
  batch_context.cache = &batch_cache;
  std::vector<CaseResult> via_batch(cases.size());
  parallel_for_indexed(cases.size(), 1, [&](std::size_t i) {
    via_batch[i] = run_case(cases[i].net, tech, cases[i].tau_t_fs, {},
                            small_baseline(), batch_context);
  });
  EXPECT_GT(batch_cache.stats().hits, 0u);

  // A service thunk's context.cache likewise.
  SolveCache service_cache({64, 4});
  SolveContext service_context;
  service_context.cache = &service_cache;
  {
    EvalService service(tech);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      service.submit_fn([&, i] {
        return run_case(cases[i].net, tech, cases[i].tau_t_fs, {},
                        small_baseline(), service_context);
      });
    }
  }  // the destructor drains every thunk
  EXPECT_GT(service_cache.stats().hits, 0u);

  // Cached answers match the context-overload run_case exactly.
  SolveContext context;
  context.cache = &batch_cache;
  const auto direct = run_case(cases[0].net, tech, cases[0].tau_t_fs, {},
                               small_baseline(), context);
  expect_same_case(direct, via_batch[0]);
}

}  // namespace
}  // namespace rip::eval

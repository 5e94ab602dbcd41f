// Tests for the sharded Pareto-frontier solve cache (eval/solve_cache)
// and the target-relative DP substrate under it (dp/chain_dp frontier
// solves): LRU/eviction mechanics and the bit-identity property of
// cached answers versus cold solves under every (target, job count,
// eviction pressure) combination.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/min_delay.hpp"
#include "dp/workspace.hpp"
#include "eval/experiments.hpp"
#include "eval/solve_cache.hpp"
#include "eval/workload.hpp"
#include "net/candidates.hpp"
#include "net/netlist_io.hpp"
#include "tech/objective.hpp"
#include "tech/technology.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {
namespace {

/// Minimal one-label frontier with a recognizable marker, for the cache
/// unit tests (no DP involved).
dp::ChainFrontierSolve tiny_solve(double marker) {
  dp::ChainFrontierSolve s;
  s.q_fs = {marker};
  s.width_u = {0.0};
  s.count = {0};
  s.node = {-1};
  return s;
}

/// Exact equality of every deterministic field of two DP results. The
/// one permitted difference is stats.workspace_reuses (warmth counter).
void expect_same_result(const dp::ChainDpResult& a,
                        const dp::ChainDpResult& b) {
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
  EXPECT_EQ(a.stats.labels_created, b.stats.labels_created);
  EXPECT_EQ(a.stats.labels_peak, b.stats.labels_peak);
  EXPECT_EQ(a.stats.positions, b.stats.positions);
  EXPECT_EQ(a.stats.labels_pruned, b.stats.labels_pruned);
  EXPECT_EQ(a.stats.arena_peak, b.stats.arena_peak);
}

TEST(SolveCacheUnit, MissThenHitRoundTrip) {
  SolveCache cache({4, 2});
  EXPECT_EQ(cache.lookup(7), nullptr);
  const auto stored = cache.insert(7, tiny_solve(42.0));
  ASSERT_NE(stored, nullptr);
  const auto hit = cache.lookup(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), stored.get());
  EXPECT_EQ(hit->q_fs[0], 42.0);

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.lookups(), 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(SolveCacheUnit, LruEvictsTheColdestEntry) {
  // One shard so the LRU order is global and fully observable.
  SolveCache cache({2, 1});
  cache.insert(1, tiny_solve(1.0));
  cache.insert(2, tiny_solve(2.0));
  // Touch key 1: key 2 becomes the eviction victim.
  ASSERT_NE(cache.lookup(1), nullptr);
  cache.insert(3, tiny_solve(3.0));
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SolveCacheUnit, CapacityOneCollapsesToAGlobalLru) {
  // shard_count is clamped to capacity, so capacity 1 is a strict
  // single-entry LRU no matter how many shards were requested.
  SolveCache cache({1, 16});
  EXPECT_EQ(cache.shard_count(), 1u);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert(10, tiny_solve(1.0));
  cache.insert(11, tiny_solve(2.0));
  EXPECT_EQ(cache.lookup(10), nullptr);
  EXPECT_NE(cache.lookup(11), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(SolveCacheUnit, RacingInsertKeepsTheResidentEntry) {
  SolveCache cache({4, 1});
  const auto first = cache.insert(5, tiny_solve(1.0));
  // A second insert under the same key (two threads raced the same
  // miss) must return the already-resident entry, not replace it —
  // equal keys mean bit-identical frontiers, and every caller must
  // select from the same arrays.
  const auto second = cache.insert(5, tiny_solve(2.0));
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(second->q_fs[0], 1.0);
  const auto s = cache.stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SolveCacheUnit, ClearDropsEntriesAndKeepsCounters) {
  SolveCache cache({4, 2});
  cache.insert(1, tiny_solve(1.0));
  ASSERT_NE(cache.lookup(1), nullptr);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.hits, 1u);  // history survives clear()
  EXPECT_EQ(cache.lookup(1), nullptr);
}

TEST(SolveCacheKey, TargetAndToleranceDoNotEnterTheKey) {
  const tech::Technology tech = tech::make_tech180();
  const net::Net n = test::single_segment_net();
  const dp::RepeaterLibrary library =
      dp::RepeaterLibrary::uniform(10.0, 40.0, 5);
  const auto candidates = net::uniform_candidates(n, 200.0);

  dp::ChainDpOptions a;
  a.timing_target_fs = 1e6;
  dp::ChainDpOptions b;
  b.timing_target_fs = 2e6;
  b.reconstruct_solutions = false;
  EXPECT_EQ(dp::chain_solve_key(n, tech.device(), library, candidates, a),
            dp::chain_solve_key(n, tech.device(), library, candidates, b));

  // Anything the sweep actually reads must change the key.
  dp::ChainDpOptions c = a;
  c.mode = dp::Mode::kMinDelay;
  EXPECT_NE(dp::chain_solve_key(n, tech.device(), library, candidates, a),
            dp::chain_solve_key(n, tech.device(), library, candidates, c));
  const dp::RepeaterLibrary other =
      dp::RepeaterLibrary::uniform(10.0, 40.0, 6);
  EXPECT_NE(dp::chain_solve_key(n, tech.device(), library, candidates, a),
            dp::chain_solve_key(n, tech.device(), other, candidates, a));
}

// The backend-identity satellite, negative direction: one net solved
// under two different objective backends must land in two different
// cache entries — a shared SolveCache can serve a multi-backend sweep
// without ever answering one backend's query with another's frontier.
TEST(SolveCacheKey, BackendsNeverShareAnEntry) {
  const tech::Technology tech = tech::make_tech180();
  const net::Net n = test::paper_net(5);
  const dp::RepeaterLibrary library =
      dp::RepeaterLibrary::uniform(10.0, 40.0, 10);
  const auto candidates = net::uniform_candidates(n, 200.0);
  const tech::Paper2005Backend paper(tech.power(), tech.device());
  const tech::ActivityPowerBackend activity(tech.power(), tech.device());

  // A tight target, so the optimum genuinely inserts repeaters (at a
  // loose one every objective returns the zero-cost bare wire and the
  // results could not be told apart).
  const auto md = dp::min_delay(n, tech.device(), {10.0, 400.0, 10.0, 200.0});
  dp::ChainDpOptions none;
  none.timing_target_fs = 1.2 * md.tau_min_fs;
  dp::ChainDpOptions with_paper = none;
  with_paper.backend = &paper;
  dp::ChainDpOptions with_activity = none;
  with_activity.backend = &activity;

  // Three pairwise-distinct keys: even the identity-cost Paper2005
  // backend is keyed apart from the historic no-backend path.
  const auto k_none =
      dp::chain_solve_key(n, tech.device(), library, candidates, none);
  const auto k_paper =
      dp::chain_solve_key(n, tech.device(), library, candidates, with_paper);
  const auto k_activity = dp::chain_solve_key(n, tech.device(), library,
                                              candidates, with_activity);
  EXPECT_NE(k_none, k_paper);
  EXPECT_NE(k_none, k_activity);
  EXPECT_NE(k_paper, k_activity);

  // Same net, two backends, one shared cache: two entries, no
  // cross-backend hits, and per-backend results that genuinely differ
  // (the activity objective pays a per-repeater cost the paper's does
  // not, so its optimum uses fewer, wider repeaters or a higher cost).
  SolveCache cache({64, 4});
  const auto a = dp::run_chain_dp_cached(n, tech.device(), library, candidates,
                                         with_paper, dp::Workspace::local(),
                                         &cache);
  const auto b = dp::run_chain_dp_cached(n, tech.device(), library, candidates,
                                         with_activity, dp::Workspace::local(),
                                         &cache);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
  ASSERT_EQ(a.status, dp::Status::kOptimal);
  ASSERT_EQ(b.status, dp::Status::kOptimal);
  EXPECT_NE(a.objective_cost, b.objective_cost);

  // Re-asking each backend's own query hits its own entry and answers
  // bit-identically.
  const auto a2 = dp::run_chain_dp_cached(n, tech.device(), library, candidates,
                                          with_paper, dp::Workspace::local(),
                                          &cache);
  const auto b2 = dp::run_chain_dp_cached(n, tech.device(), library, candidates,
                                          with_activity, dp::Workspace::local(),
                                          &cache);
  EXPECT_EQ(cache.stats().hits, 2u);
  expect_same_result(a2, a);
  expect_same_result(b2, b);
}

// The satellite property: cached answers are bit-identical to cold
// solves for every target, at jobs 1 and 8, on dirty (reused)
// workspaces, and under capacity-1 eviction pressure.
TEST(SolveCacheProperty, CachedBitIdenticalToColdEverywhere) {
  const tech::Technology tech = tech::make_tech180();
  const std::vector<net::Net> nets = {test::single_segment_net(),
                                      test::two_segment_net_with_zone(),
                                      test::paper_net(3)};
  const dp::RepeaterLibrary library =
      dp::RepeaterLibrary::uniform(10.0, 40.0, 6);

  struct Query {
    const net::Net* net;
    const std::vector<double>* candidates;
    double target_fs;
  };
  std::vector<std::vector<double>> candidates;
  candidates.reserve(nets.size());
  for (const auto& n : nets)
    candidates.push_back(net::uniform_candidates(n, 200.0));

  // Interleave nets target-major, so under a capacity-1 cache every
  // consecutive query evicts the previous net's frontier.
  std::vector<Query> queries;
  constexpr int kTargets = 8;
  std::vector<std::vector<double>> targets(nets.size());
  for (std::size_t ni = 0; ni < nets.size(); ++ni) {
    const auto md =
        dp::min_delay(nets[ni], tech.device(), {10.0, 400.0, 10.0, 200.0});
    targets[ni] = timing_targets_fs(md.tau_min_fs, kTargets);
  }
  for (int t = 0; t < kTargets; ++t) {
    for (std::size_t ni = 0; ni < nets.size(); ++ni) {
      queries.push_back(Query{&nets[ni], &candidates[ni],
                              targets[ni][static_cast<std::size_t>(t)]});
    }
  }

  dp::ChainDpOptions options;
  options.mode = dp::Mode::kMinPower;

  // Cold reference, solved serially on one deliberately dirty
  // workspace (reused across all nets and targets).
  std::vector<dp::ChainDpResult> cold(queries.size());
  dp::Workspace dirty;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    dp::ChainDpOptions o = options;
    o.timing_target_fs = queries[i].target_fs;
    cold[i] = dp::run_chain_dp(*queries[i].net, tech.device(), library,
                               *queries[i].candidates, o, dirty);
  }

  for (const int jobs : {1, 8}) {
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{64}}) {
      SolveCache cache({capacity, 4});
      std::vector<dp::ChainDpResult> cached(queries.size());
      parallel_for_indexed(queries.size(), jobs, [&](std::size_t i) {
        dp::ChainDpOptions o = options;
        o.timing_target_fs = queries[i].target_fs;
        cached[i] = dp::run_chain_dp_cached(
            *queries[i].net, tech.device(), library, *queries[i].candidates,
            o, dp::Workspace::local(), &cache);
      });
      for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("jobs " + std::to_string(jobs) + " capacity " +
                     std::to_string(capacity) + " query " +
                     std::to_string(i));
        expect_same_result(cached[i], cold[i]);
      }
      const auto s = cache.stats();
      EXPECT_EQ(s.lookups(), queries.size());
      if (capacity == 1 && jobs == 1) {
        // The interleaved order thrashes a one-entry cache: every query
        // after the first round evicts, and hits are impossible.
        EXPECT_GT(s.evictions, 0u);
        EXPECT_EQ(s.hits, 0u);
      }
      if (capacity == 64 && jobs == 1) {
        // Every net's frontier is solved once, then every later target
        // is a hit.
        EXPECT_EQ(s.misses, nets.size());
        EXPECT_EQ(s.hits, queries.size() - nets.size());
      }
    }
  }
}

TEST(SolveCacheProperty, MinDelayModeIsCachedIdentically) {
  const tech::Technology tech = tech::make_tech180();
  const net::Net n = test::two_segment_net_with_zone();
  const dp::RepeaterLibrary library =
      dp::RepeaterLibrary::uniform(10.0, 40.0, 6);
  const auto candidates = net::uniform_candidates(n, 200.0);
  dp::ChainDpOptions options;
  options.mode = dp::Mode::kMinDelay;

  dp::Workspace ws;
  const auto cold = dp::run_chain_dp(n, tech.device(), library, candidates,
                                     options, ws);
  SolveCache cache({8, 2});
  const auto miss = dp::run_chain_dp_cached(n, tech.device(), library,
                                            candidates, options, ws, &cache);
  const auto hit = dp::run_chain_dp_cached(n, tech.device(), library,
                                           candidates, options, ws, &cache);
  expect_same_result(miss, cold);
  expect_same_result(hit, cold);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SolveCacheProperty, RunCasesBitIdenticalWithCacheAttached) {
  const tech::Technology tech = tech::make_tech180();
  const auto workload = make_paper_workload(tech, 2);
  const auto baseline = core::BaselineOptions::uniform_library(10.0, 40.0, 5);
  std::vector<net::NetlistRecord> cases;
  for (const auto& wn : workload) {
    for (const double f : {1.2, 1.5, 1.9}) {
      cases.push_back({wn.net, f * wn.tau_min_fs});
    }
  }
  std::vector<CaseResult> reference;
  for (const auto& c : cases) {
    reference.push_back(run_case(c.net, tech, c.tau_t_fs, {}, baseline));
  }

  for (const int jobs : {1, 8}) {
    SolveCache cache({64, 4});
    SolveContext context;
    context.cache = &cache;
    std::vector<CaseResult> cached(cases.size());
    parallel_for_indexed(cases.size(), jobs, [&](std::size_t i) {
      cached[i] = run_case(cases[i].net, tech, cases[i].tau_t_fs, {},
                           baseline, context);
    });
    ASSERT_EQ(cached.size(), reference.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + " case " +
                   std::to_string(i));
      EXPECT_EQ(cached[i].tau_t_fs, reference[i].tau_t_fs);
      EXPECT_EQ(cached[i].rip_feasible, reference[i].rip_feasible);
      EXPECT_EQ(cached[i].dp_feasible, reference[i].dp_feasible);
      EXPECT_EQ(cached[i].rip_width_u, reference[i].rip_width_u);
      EXPECT_EQ(cached[i].dp_width_u, reference[i].dp_width_u);
      EXPECT_EQ(cached[i].improvement_pct, reference[i].improvement_pct);
    }
    // Counts that do not depend on scheduling: two lookups per case
    // (RIP's coarse stage and the baseline) and one entry per key,
    // 2 nets x {coarse, baseline} (racing duplicate inserts are not
    // counted). Above jobs 1 all six cases can miss at once, so a hit
    // is demanded only of the serial run.
    const SolveCacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups(), 2 * cases.size());
    EXPECT_EQ(stats.insertions, 4u);
    if (jobs == 1) {
      EXPECT_GT(stats.hits, 0u);
    }
  }
}

}  // namespace
}  // namespace rip::eval

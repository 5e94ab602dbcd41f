// Exactness of dp::unbuffered_answer, the zero-repeater exit RIP's stage 1
// and the baseline take before the chain DP.
//
// Kernel level: over random nets of 1-5 segments, with and without a
// forbidden zone, on the Table 1 baseline library and RIP's coarse
// library, at targets on and around the exact feasibility boundary of
// the unbuffered labeling and at fixed multiples of its delay, under no
// backend, `activity`, `lowswing` and a backend whose widths cost
// nothing:
//  - an engaged answer is run_chain_dp's, bit for bit, in status,
//    solution, delay, total width and objective cost;
//  - where it declines and every width costs more than 0, run_chain_dp's
//    answer is infeasible or holds a repeater;
//  - the zero-cost backend always declines, and there the DP does pick a
//    free repeater over a feasible unbuffered labeling.
// Caller level: rip_insert and run_baseline answer such a net identically
// with a SolveCache and without, and the cache sees no lookup and no
// insert for it.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "eval/solve_cache.hpp"
#include "net/candidates.hpp"
#include "net/generator.hpp"
#include "tech/objective.hpp"
#include "util/rng.hpp"

namespace rip {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_solution(const net::RepeaterSolution& a,
                   const net::RepeaterSolution& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a.repeaters()[i].position_um,
                   b.repeaters()[i].position_um) ||
        !same_bits(a.repeaters()[i].width_u, b.repeaters()[i].width_u)) {
      return false;
    }
  }
  return true;
}

/// Every field of two chain DP results, bit for bit.
void expect_same_result(const dp::ChainDpResult& a,
                        const dp::ChainDpResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(same_solution(a.solution, b.solution));
  EXPECT_TRUE(same_bits(a.delay_fs, b.delay_fs));
  EXPECT_TRUE(same_bits(a.total_width_u, b.total_width_u));
  EXPECT_TRUE(same_bits(a.objective_cost, b.objective_cost));
  EXPECT_TRUE(same_solution(a.min_delay_solution, b.min_delay_solution));
  EXPECT_TRUE(same_bits(a.min_delay_fs, b.min_delay_fs));
  EXPECT_EQ(a.stats.labels_created, b.stats.labels_created);
  EXPECT_EQ(a.stats.labels_peak, b.stats.labels_peak);
  EXPECT_EQ(a.stats.positions, b.stats.positions);
  EXPECT_EQ(a.stats.labels_pruned, b.stats.labels_pruned);
  EXPECT_EQ(a.stats.arena_peak, b.stats.arena_peak);
  EXPECT_EQ(a.stats.workspace_reuses, b.stats.workspace_reuses);
}

/// A backend whose repeaters cost nothing but are allowed: the one shape
/// of cost under which a repeater label can dominate the empty one.
class ZeroCostBackend final : public tech::ObjectiveBackend {
 public:
  const std::string& name() const override { return name_; }
  tech::ChainCost chain_cost(const tech::NetProfile&) const override {
    tech::ChainCost cost;
    cost.width_weight = 0.0;
    cost.per_repeater = 0.0;
    return cost;
  }
  double net_power_nw(const tech::NetProfile&, double, int) const override {
    return 0.0;
  }
  std::uint64_t fingerprint() const override { return 0x5a5a0001; }

 private:
  std::string name_ = "zerocost";
};

std::unique_ptr<tech::ObjectiveBackend> backend_named(
    const std::string& name, const tech::Technology& tech) {
  if (name == "none") return nullptr;
  if (name == "zerocost") return std::make_unique<ZeroCostBackend>();
  return tech::make_backend(name, tech);
}

/// Short nets, so that the sweep stays cheap and some nets have only a
/// candidate or two.
net::RandomNetConfig small_nets(bool zone) {
  net::RandomNetConfig config;
  config.min_segments = 1;
  config.max_segments = 5;
  config.min_segment_length_um = 200.0;
  config.max_segment_length_um = 2000.0;
  config.zone_count = zone ? 1 : 0;
  return config;
}

/// The targets around the unbuffered labeling's delay d0 = -q: the exact
/// boundary -q - kSlackToleranceFs, its two neighbours, d0 a hair either
/// side, and d0 scaled well below and above.
std::vector<double> targets_around(double q) {
  const double d0 = -q;
  const double boundary = -q - dp::kSlackToleranceFs;
  std::vector<double> targets = {
      boundary,
      std::nextafter(boundary, 0.0),
      std::nextafter(boundary, std::numeric_limits<double>::infinity()),
      d0 * (1 - 1e-12),
      d0 * (1 + 1e-12),
      0.8 * d0,
      1.5 * d0,
      3.0 * d0};
  std::erase_if(targets, [](double t) { return !(t > 0); });
  return targets;
}

class UnbufferedExactness : public ::testing::TestWithParam<const char*> {};

TEST_P(UnbufferedExactness, MatchesRunChainDpBitForBit) {
  const std::string backend_name = GetParam();
  const tech::Technology tech = tech::make_tech180();
  const auto& device = tech.device();
  const std::unique_ptr<tech::ObjectiveBackend> backend =
      backend_named(backend_name, tech);
  const bool free_repeaters = backend_name == "zerocost";
  const dp::RepeaterLibrary baseline_library =
      dp::RepeaterLibrary::uniform(10.0, 10.0, 10);
  const dp::RepeaterLibrary coarse_library =
      dp::RepeaterLibrary::uniform(80.0, 80.0, 5);

  dp::Workspace ws;
  Rng rng(2005);
  int engaged = 0;
  int declined = 0;
  int free_repeater_wins = 0;
  for (int ni = 0; ni < 60; ++ni) {
    const bool zone = rng.bernoulli(0.3);
    const net::Net n = net::random_net(tech, small_nets(zone), rng,
                                       "unet_" + std::to_string(ni));
    const auto candidates = net::uniform_candidates(n, 200.0);
    for (const dp::RepeaterLibrary* library :
         {&baseline_library, &coarse_library}) {
      dp::ChainDpOptions options;
      options.mode = dp::Mode::kMinPower;
      options.timing_target_fs = 1.0;
      options.backend = backend.get();
      const double q =
          dp::LabelingScorer(n, device, *library, candidates, options, ws)
              .unbuffered()
              .slack_fs;
      for (const double target : targets_around(q)) {
        SCOPED_TRACE("net " + std::to_string(ni) + ", library of " +
                     std::to_string(library->size()) + ", target " +
                     std::to_string(target));
        options.timing_target_fs = target;
        const std::optional<dp::ChainDpResult> fast = dp::unbuffered_answer(
            n, device, *library, candidates, options, ws);
        const dp::ChainDpResult dp =
            dp::run_chain_dp(n, device, *library, candidates, options, ws);
        if (fast.has_value()) {
          ++engaged;
          EXPECT_FALSE(free_repeaters);
          EXPECT_EQ(fast->status, dp.status);
          EXPECT_TRUE(same_solution(fast->solution, dp.solution));
          EXPECT_TRUE(same_bits(fast->delay_fs, dp.delay_fs));
          EXPECT_TRUE(same_bits(fast->total_width_u, dp.total_width_u));
          EXPECT_TRUE(same_bits(fast->objective_cost, dp.objective_cost));
          EXPECT_TRUE(fast->min_delay_solution.empty());
          EXPECT_EQ(fast->stats.labels_created, 0u);
          EXPECT_EQ(fast->stats.positions, candidates.size());
          continue;
        }
        ++declined;
        const bool unbuffered_fits = q + target >= -dp::kSlackToleranceFs;
        if (free_repeaters) {
          if (unbuffered_fits && !dp.solution.empty()) ++free_repeater_wins;
          continue;
        }
        EXPECT_TRUE(dp.status == dp::Status::kInfeasible ||
                    !dp.solution.empty())
            << "declined, but the DP picked the unbuffered labeling";
      }
    }
  }
  if (free_repeaters) {
    EXPECT_EQ(engaged, 0);
    EXPECT_GT(free_repeater_wins, 0);
  } else {
    EXPECT_GT(engaged, 100);
    EXPECT_GT(declined, 100);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, UnbufferedExactness,
    ::testing::Values("none", "activity", "lowswing", "zerocost"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

/// The fields of two RIP results that do not measure wall clock.
void expect_same_rip(const core::RipResult& a, const core::RipResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(same_solution(a.solution, b.solution));
  EXPECT_TRUE(same_bits(a.delay_fs, b.delay_fs));
  EXPECT_TRUE(same_bits(a.total_width_u, b.total_width_u));
  EXPECT_TRUE(same_bits(a.objective_cost, b.objective_cost));
  EXPECT_EQ(a.used_fallback, b.used_fallback);
  expect_same_result(a.coarse, b.coarse);
  expect_same_result(a.final_dp, b.final_dp);
  EXPECT_EQ(a.refined.width_solve_ok, b.refined.width_solve_ok);
  EXPECT_EQ(a.refined.iterations, b.refined.iterations);
}

// A net that meets its target unbuffered never reaches the cache: RIP and
// the baseline give the same answer with a cache and without, and the
// cache records no lookup and no insert. A tighter target on the same
// nets does reach it.
TEST(UnbufferedAnswer, CacheOnAndOffAgreeAndTheCacheIsUntouched) {
  const tech::Technology tech = tech::make_tech180();
  const auto& device = tech.device();
  const core::BaselineOptions baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  const core::RipOptions rip_options;
  dp::Workspace ws;
  Rng rng(7919);
  int engaged = 0;
  for (int ni = 0; ni < 30; ++ni) {
    const net::Net n = net::random_net(tech, small_nets(rng.bernoulli(0.3)),
                                       rng, "cnet_" + std::to_string(ni));
    dp::ChainDpOptions options;
    options.mode = dp::Mode::kMinPower;
    options.timing_target_fs = 1.0;
    const double d0 =
        -dp::LabelingScorer(n, device, baseline.library,
                            net::uniform_candidates(n, baseline.pitch_um),
                            options, ws)
             .unbuffered()
             .slack_fs;
    SCOPED_TRACE("net " + std::to_string(ni));

    eval::SolveCache cache;
    const double loose = 3.0 * d0;
    const core::RipResult rip_off =
        core::rip_insert(n, device, loose, rip_options, ws, nullptr);
    const core::RipResult rip_on =
        core::rip_insert(n, device, loose, rip_options, ws, &cache);
    const dp::ChainDpResult base_off =
        core::run_baseline(n, device, loose, baseline, ws, nullptr);
    const dp::ChainDpResult base_on =
        core::run_baseline(n, device, loose, baseline, ws, &cache);
    ASSERT_EQ(rip_on.status, dp::Status::kOptimal);
    EXPECT_TRUE(rip_on.solution.empty());
    EXPECT_TRUE(rip_on.used_fallback);
    EXPECT_TRUE(base_on.solution.empty());
    expect_same_rip(rip_on, rip_off);
    expect_same_result(base_on, base_off);
    EXPECT_EQ(cache.stats().lookups(), 0u);
    EXPECT_EQ(cache.stats().insertions, 0u);
    ++engaged;

    // Tighter than unbuffered: stage 1 and the baseline consult the cache.
    const double tight = 0.8 * d0;
    core::rip_insert(n, device, tight, rip_options, ws, &cache);
    core::run_baseline(n, device, tight, baseline, ws, &cache);
    EXPECT_EQ(cache.stats().lookups(), 2u);
  }
  EXPECT_EQ(engaged, 30);
}

}  // namespace
}  // namespace rip

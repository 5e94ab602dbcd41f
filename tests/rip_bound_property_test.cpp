// Exactness of RIP's stage-3 branch-and-bound (dp::run_chain_dp_bounded),
// over random (paper net, target) cases under every objective backend.
//
// RIP level: rip_insert must answer exactly as the unbounded rule would —
// stage 1, an unbounded run_chain_dp over the same stage-3 problem, and
// the arbitration "keep stage 3 iff it is feasible and costs no more".
// Kernel level: wherever the unbounded stage-3 optimum is feasible at a
// cost within the incumbent, the bounded solve returns it bit for bit;
// everywhere else the bounded solve reports kInfeasible. That holds with
// no cost floor (lambda = 0) and with the one RIP uses (REFINE's lambda).
// The rounded REFINE answer (round_refine) is a labeling of the stage-3
// search space whose score never undercuts the unbounded optimum, and
// dp::score_labeling gives the optimum's own labeling its exact bits.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rip.hpp"
#include "dp/chain_dp.hpp"
#include "dp/min_delay.hpp"
#include "dp/workspace.hpp"
#include "net/generator.hpp"
#include "tech/objective.hpp"
#include "util/rng.hpp"

namespace rip::core {
namespace {

constexpr int kNetsPerSeed = 25;
constexpr int kTargetsPerNet = 20;  // 2 seeds x 25 x 20 = 1,000 per backend

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

/// The fields a caller of the chain DP or of rip_insert consumes.
struct Answer {
  dp::Status status;
  const net::RepeaterSolution* solution;
  double delay_fs;
  double total_width_u;
  double objective_cost;
  bool used_fallback;
};

Answer answer_of(const dp::ChainDpResult& r, bool used_fallback) {
  return {r.status,        &r.solution,        r.delay_fs,
          r.total_width_u, r.objective_cost,   used_fallback};
}

void expect_same(const Answer& got, const Answer& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_TRUE(same_solution(*got.solution, *want.solution));
  EXPECT_TRUE(same_bits(got.delay_fs, want.delay_fs));
  EXPECT_TRUE(same_bits(got.total_width_u, want.total_width_u));
  EXPECT_TRUE(same_bits(got.objective_cost, want.objective_cost));
  EXPECT_EQ(got.used_fallback, want.used_fallback);
}

/// The bounded solve against its unbounded reference at one incumbent.
void expect_bounded_exact(const dp::ChainDpResult& bounded,
                          const dp::ChainDpResult& unbounded,
                          double incumbent) {
  SCOPED_TRACE("incumbent " + std::to_string(incumbent));
  if (unbounded.status == dp::Status::kOptimal &&
      unbounded.objective_cost <= incumbent) {
    expect_same(answer_of(bounded, false), answer_of(unbounded, false));
  } else {
    EXPECT_EQ(bounded.status, dp::Status::kInfeasible);
  }
  EXPECT_LE(bounded.stats.labels_pruned, bounded.stats.labels_created);
}

struct Case {
  const char* backend;  ///< registry name, "none" = no backend
  std::uint64_t seed;
};

// Stable test names and ctest IDs (no pointer bytes from GetParam()).
std::string case_name(const Case& c) {
  return std::string(c.backend) + "_seed" + std::to_string(c.seed);
}
void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

class RipBoundSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RipBoundSweep, BoundedStageThreeIsExact) {
  const tech::Technology tech = tech::make_tech180();
  const auto& device = tech.device();
  const auto [backend_name, seed] = GetParam();
  const std::unique_ptr<tech::ObjectiveBackend> backend =
      std::string(backend_name) == "none"
          ? nullptr
          : tech::make_backend(backend_name, tech);

  const RipOptions options;
  dp::Workspace ws;
  Rng rng(seed);
  int reached_stage3 = 0;
  int rounded_feasible = 0;  // stage-3 runs with a feasible rounded answer
  for (int ni = 0; ni < kNetsPerSeed; ++ni) {
    const net::Net n = net::random_net(tech, net::RandomNetConfig{}, rng,
                                       "bnet_" + std::to_string(ni));
    const double tau_min =
        dp::min_delay(n, device, {10.0, 400.0, 10.0, 200.0}).tau_min_fs;
    for (int ti = 0; ti < kTargetsPerNet; ++ti) {
      const double factor = rng.uniform(1.02, 2.2);
      const double tau_t = factor * tau_min;
      SCOPED_TRACE("net " + std::to_string(ni) + ", factor " +
                   std::to_string(factor));
      const RipResult rip =
          rip_insert(n, device, tau_t, options, ws, nullptr, backend.get());
      if (rip.coarse.status != dp::Status::kOptimal ||
          rip.coarse.solution.empty() || !rip.refined.width_solve_ok) {
        continue;  // stage 3 never ran: nothing bounded to check
      }
      ++reached_stage3;

      const FineProblem fine = fine_problem(n, rip.refined, options);
      dp::ChainDpOptions dp_options;
      dp_options.mode = dp::Mode::kMinPower;
      dp_options.timing_target_fs = tau_t;
      dp_options.backend = backend.get();
      dp_options.allowed_buffers = &fine.allowed;
      const dp::ChainDpResult unbounded = dp::run_chain_dp(
          n, device, fine.library, fine.candidates_um, dp_options, ws);

      // RIP level: the unbounded arbitration rule, reproduced.
      const double incumbent = rip.coarse.objective_cost;
      const bool keep_stage3 = unbounded.status == dp::Status::kOptimal &&
                               unbounded.objective_cost <= incumbent;
      Answer want = keep_stage3 ? answer_of(unbounded, false)
                                : answer_of(rip.coarse, true);
      want.status = dp::Status::kOptimal;
      const Answer got{rip.status,        &rip.solution,
                       rip.delay_fs,      rip.total_width_u,
                       rip.objective_cost, rip.used_fallback};
      expect_same(got, want);

      // Kernel level: stage 1's incumbent, the unbounded optimum's own
      // cost (the <= boundary), and just below it (nothing qualifies),
      // each without and with the cost floor at REFINE's lambda.
      std::vector<double> incumbents = {incumbent};
      if (unbounded.status == dp::Status::kOptimal) {
        incumbents.push_back(unbounded.objective_cost);
        incumbents.push_back(unbounded.objective_cost * 0.999);
      }
      for (const double inc : incumbents) {
        for (const double lambda : {0.0, rip.refined.lambda}) {
          SCOPED_TRACE("lambda " + std::to_string(lambda));
          expect_bounded_exact(
              dp::run_chain_dp_bounded(n, device, fine.library,
                                       fine.candidates_um, dp_options, inc,
                                       ws, lambda),
              unbounded, inc);
        }
      }

      // The rounded REFINE answer: one repeater at each REFINE position's
      // candidate, at an allowed width, costing no less than the optimum.
      const RoundedRefine rounded =
          round_refine(n, device, fine, dp_options, ws);
      if (!rounded.buffer_at.empty()) {
        ASSERT_EQ(rounded.buffer_at.size(), fine.candidates_um.size());
        std::size_t placed = 0;
        for (std::size_t k = 0; k < rounded.buffer_at.size(); ++k) {
          const std::int16_t b = rounded.buffer_at[k];
          if (b < 0) continue;
          ++placed;
          EXPECT_TRUE(std::binary_search(fine.allowed[k].begin(),
                                         fine.allowed[k].end(), b))
              << "candidate " << k << " does not allow width " << b;
        }
        EXPECT_EQ(placed, rip.refined.positions_um.size());
        const dp::LabelingScore again =
            dp::score_labeling(n, device, fine.library, fine.candidates_um,
                               dp_options, rounded.buffer_at, ws);
        EXPECT_TRUE(same_bits(again.objective_cost, rounded.objective_cost));
      }
      if (std::isfinite(rounded.objective_cost)) {
        ++rounded_feasible;
        ASSERT_EQ(unbounded.status, dp::Status::kOptimal);
        EXPECT_LE(unbounded.objective_cost, rounded.objective_cost);
      }

      // The scorer on the optimum's own labeling: its cost and slack bits.
      if (unbounded.status == dp::Status::kOptimal) {
        std::vector<std::int16_t> labeling(fine.candidates_um.size(), -1);
        const auto& widths = fine.library.widths_u();
        for (const net::Repeater& r : unbounded.solution.repeaters()) {
          const auto at = std::find(fine.candidates_um.begin(),
                                    fine.candidates_um.end(), r.position_um);
          ASSERT_NE(at, fine.candidates_um.end());
          const auto width = std::find(widths.begin(), widths.end(),
                                       r.width_u);
          ASSERT_NE(width, widths.end());
          labeling[static_cast<std::size_t>(at - fine.candidates_um.begin())] =
              static_cast<std::int16_t>(width - widths.begin());
        }
        const dp::LabelingScore score =
            dp::score_labeling(n, device, fine.library, fine.candidates_um,
                               dp_options, labeling, ws);
        EXPECT_TRUE(same_bits(score.objective_cost, unbounded.objective_cost));
        EXPECT_TRUE(same_bits(score.slack_fs, -unbounded.delay_fs));
      }
    }
  }
  // The lowswing backend forbids repeaters, so RIP stops after stage 1;
  // every other backend must actually exercise the bounded stage 3.
  if (std::string(backend_name) != "lowswing") {
    EXPECT_GT(reached_stage3, kNetsPerSeed * kTargetsPerNet / 2);
    EXPECT_GT(rounded_feasible, reached_stage3 * 9 / 10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndSeeds, RipBoundSweep,
    ::testing::Values(Case{"none", 2005}, Case{"none", 7919},
                      Case{"paper2005", 2005}, Case{"paper2005", 7919},
                      Case{"activity", 2005}, Case{"activity", 7919},
                      Case{"lowswing", 2005}, Case{"lowswing", 7919}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace rip::core

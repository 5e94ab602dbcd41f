// Tests for the analytical module: the KKT width solver (Eqs. 5 and 8),
// the one-sided location derivatives (Eqs. 17/18 — validated against
// numeric differentiation of the independent Elmore evaluator), the
// movement policy, and the full REFINE loop (Fig. 5), whose output on
// seed-2005 paper nets is pinned by a golden.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "analytical/bakoglu.hpp"
#include "analytical/movement.hpp"
#include "analytical/refine.hpp"
#include "analytical/width_solver.hpp"
#include "core/rip.hpp"
#include "eval/workload.hpp"
#include "rc/buffered_chain.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rip::analytical {
namespace {

net::Net long_uniform_net() {
  return net::NetBuilder("long")
      .driver(20.0)
      .receiver(10.0)
      .segment(10000.0, 0.1, 0.2)
      .build();
}

double delay_at(const net::Net& n, const tech::RepeaterDevice& device,
                const std::vector<double>& pos,
                const std::vector<double>& w) {
  std::vector<net::Repeater> reps;
  for (std::size_t i = 0; i < pos.size(); ++i)
    reps.push_back(net::Repeater{pos[i], w[i]});
  return rc::elmore_delay_fs(n, net::RepeaterSolution(std::move(reps)),
                             device);
}

// ----------------------------------------------------------- width solve

TEST(WidthSolver, MeetsTargetExactly) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const std::vector<double> pos{2500.0, 5000.0, 7500.0};
  const double unbuffered = delay_at(n, device, {}, {});
  const double tau_t = unbuffered * 0.35;
  const auto ws = solve_widths(n, device, pos, tau_t);
  ASSERT_TRUE(ws.converged);
  EXPECT_NEAR(ws.delay_fs, tau_t, 1e-6 * tau_t);
  // Independent evaluation agrees.
  EXPECT_NEAR(delay_at(n, device, pos, ws.widths_u), tau_t, 1e-6 * tau_t);
  for (const double w : ws.widths_u) EXPECT_GT(w, 0.0);
}

TEST(WidthSolver, KktResidualsVanishAtSolution) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const std::vector<double> pos{2500.0, 5000.0, 7500.0};
  const double tau_t = delay_at(n, device, {}, {}) * 0.35;
  const auto ws = solve_widths(n, device, pos, tau_t);
  ASSERT_TRUE(ws.converged);
  const auto res = kkt_residuals(n, device, pos, ws.widths_u, ws.lambda);
  for (const double r : res) EXPECT_NEAR(r, 0.0, 1e-5);
}

TEST(WidthSolver, LambdaIsPositiveAndDelaySensitivityUniform) {
  // At the optimum every d tau / d w_i equals -1/lambda (Eq. 12): check
  // by numeric differentiation.
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const std::vector<double> pos{3000.0, 6000.0};
  // The continuous minimum with this placement is ~0.42x unbuffered.
  const double tau_t = delay_at(n, device, {}, {}) * 0.5;
  const auto ws = solve_widths(n, device, pos, tau_t);
  ASSERT_TRUE(ws.converged);
  EXPECT_GT(ws.lambda, 0.0);
  for (std::size_t i = 0; i < ws.widths_u.size(); ++i) {
    auto w_hi = ws.widths_u;
    auto w_lo = ws.widths_u;
    const double h = ws.widths_u[i] * 1e-6;
    w_hi[i] += h;
    w_lo[i] -= h;
    const double dtau = (delay_at(n, device, pos, w_hi) -
                         delay_at(n, device, pos, w_lo)) /
                        (2.0 * h);
    EXPECT_NEAR(dtau, -1.0 / ws.lambda, std::abs(dtau) * 1e-3)
        << "repeater " << i;
  }
}

TEST(WidthSolver, TighterTargetsNeedMoreTotalWidth) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const std::vector<double> pos{2500.0, 5000.0, 7500.0};
  const double unbuffered = delay_at(n, device, {}, {});
  double prev = 0.0;
  // The continuous minimum for this placement is ~0.345x unbuffered.
  for (const double factor : {0.6, 0.5, 0.42, 0.36}) {
    const auto ws = solve_widths(n, device, pos, unbuffered * factor);
    ASSERT_TRUE(ws.converged) << factor;
    EXPECT_GT(ws.total_width_u, prev);
    prev = ws.total_width_u;
  }
}

TEST(WidthSolver, InfeasibleTargetFlagged) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const auto ws = solve_widths(n, device, {5000.0}, 100.0);
  EXPECT_FALSE(ws.converged);
}

TEST(WidthSolver, EmptyPlacementReportsUnbufferedDelay) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const auto loose = solve_widths(n, device, {}, 50000.0);
  EXPECT_TRUE(loose.converged);
  EXPECT_TRUE(loose.widths_u.empty());
  const auto tight = solve_widths(n, device, {}, 1000.0);
  EXPECT_FALSE(tight.converged);
}

TEST(WidthSolver, RejectsBadPositions) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  EXPECT_THROW(solve_widths(n, device, {600.0, 400.0}, 1000.0), Error);
  EXPECT_THROW(solve_widths(n, device, {0.0}, 1000.0), Error);
  EXPECT_THROW(solve_widths(n, device, {1000.0}, 1000.0), Error);
}

TEST(WidthSolver, WarmStartAgreesWithColdStart) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const std::vector<double> pos{2500.0, 5000.0, 7500.0};
  const double tau_t = delay_at(n, device, {}, {}) * 0.4;
  const auto cold = solve_widths(n, device, pos, tau_t);
  const auto warm = solve_widths(n, device, pos, tau_t, cold.lambda);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm.converged);
  EXPECT_NEAR(warm.total_width_u, cold.total_width_u,
              1e-6 * cold.total_width_u);
}

// ------------------------------------------------------------ derivatives

class DerivativeSeeds : public ::testing::TestWithParam<int> {};

TEST_P(DerivativeSeeds, AnalyticMatchesNumericDifferentiation) {
  // The heart of REFINE: Eqs. (17)/(18) must equal the numeric
  // derivative of the *independent* Elmore evaluator with respect to a
  // repeater position (away from segment boundaries, where left and
  // right derivatives coincide).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2027);
  net::NetBuilder builder("d");
  builder.driver(rng.uniform(10.0, 30.0)).receiver(rng.uniform(4.0, 12.0));
  const int segs = rng.uniform_int(2, 4);
  for (int s = 0; s < segs; ++s) {
    builder.segment(rng.uniform(1500.0, 3000.0), rng.uniform(0.05, 0.2),
                    rng.uniform(0.1, 0.3));
  }
  const net::Net n = builder.build();
  const auto device = test::simple_device();

  const double total = n.total_length_um();
  std::vector<double> pos{total * 0.27 + 11.0, total * 0.55 + 7.0,
                          total * 0.81 + 3.0};
  std::vector<double> widths{rng.uniform(5.0, 40.0),
                             rng.uniform(5.0, 40.0),
                             rng.uniform(5.0, 40.0)};

  const auto derivs = location_derivatives(n, device, pos, widths);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double h = 0.5;  // um; stays inside the same segment
    auto p_hi = pos;
    auto p_lo = pos;
    p_hi[i] += h;
    p_lo[i] -= h;
    const double numeric = (delay_at(n, device, p_hi, widths) -
                            delay_at(n, device, p_lo, widths)) /
                           (2.0 * h);
    // Interior of a segment: left == right == numeric derivative.
    EXPECT_NEAR(derivs[i].right, numeric,
                std::max(1e-6, std::abs(numeric) * 1e-6))
        << "repeater " << i;
    EXPECT_NEAR(derivs[i].left, numeric,
                std::max(1e-6, std::abs(numeric) * 1e-6))
        << "repeater " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivativeSeeds, ::testing::Range(1, 9));

TEST(Derivatives, OneSidedValuesDifferAtLayerBoundary) {
  // Repeater exactly on the boundary between two segments with different
  // RC: Eq. (17) uses the downstream parameters, Eq. (18) the upstream.
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();  // boundary at 1000
  const auto derivs =
      location_derivatives(n, device, {1000.0}, {10.0});
  ASSERT_EQ(derivs.size(), 1u);
  EXPECT_NE(derivs[0].right, derivs[0].left);
}

TEST(Derivatives, RejectsBadPositions) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  EXPECT_THROW(location_derivatives(n, device, {600.0, 400.0}, {5.0, 5.0}),
               Error);
  EXPECT_THROW(location_derivatives(n, device, {0.0}, {5.0}), Error);
  EXPECT_THROW(location_derivatives(n, device, {1000.0}, {5.0}), Error);
}

// --------------------------------------------------------------- movement

TEST(Movement, MovesDownhillAndReducesWidthAfterResolve) {
  // Put one repeater far from its optimal spot; a movement pass plus a
  // width re-solve must not increase the optimal total width.
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  std::vector<double> pos{1500.0};
  // 1 repeater at 1500 um reaches ~0.74x unbuffered at best.
  const double tau_t = delay_at(n, device, {}, {}) * 0.8;
  auto ws = solve_widths(n, device, pos, tau_t);
  ASSERT_TRUE(ws.converged);
  const double before = ws.total_width_u;

  const int moved = move_repeaters(n, device, pos, ws.widths_u, 200.0,
                                   /*allow_zone_hop=*/false);
  EXPECT_EQ(moved, 1);
  EXPECT_NE(pos[0], 1500.0);
  const auto ws2 = solve_widths(n, device, pos, tau_t);
  ASSERT_TRUE(ws2.converged);
  EXPECT_LE(ws2.total_width_u, before + 1e-9);
}

TEST(Movement, SkipsMovesIntoForbiddenZones) {
  const auto device = test::simple_device();
  // Zone [400, 700]; repeater at 380 wanting to move downstream by 100
  // would land at 480 (inside) -> must stay put without hopping.
  const auto n = test::two_segment_net_with_zone();
  std::vector<double> pos{380.0};
  std::vector<double> widths{10.0};
  const auto derivs = location_derivatives(n, device, pos, widths);
  const int moved = move_repeaters(n, device, pos, widths, 100.0,
                                   /*allow_zone_hop=*/false);
  if (derivs[0].right < 0) {
    EXPECT_EQ(moved, 0);
    EXPECT_DOUBLE_EQ(pos[0], 380.0);
  }
}

TEST(Movement, ZoneHopJumpsToFarBoundary) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  std::vector<double> pos{380.0};
  std::vector<double> widths{10.0};
  const auto derivs = location_derivatives(n, device, pos, widths);
  if (derivs[0].right < 0) {  // wants to go downstream
    const int moved = move_repeaters(n, device, pos, widths, 100.0,
                                     /*allow_zone_hop=*/true);
    EXPECT_EQ(moved, 1);
    EXPECT_DOUBLE_EQ(pos[0], 700.0);  // far boundary of [400, 700]
  }
}

TEST(Movement, PreservesOrderingAndBounds) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  std::vector<double> pos{4900.0, 5000.0, 5100.0};
  std::vector<double> widths{20.0, 20.0, 20.0};
  move_repeaters(n, device, pos, widths, 500.0, /*allow_zone_hop=*/false);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[2]);
  EXPECT_GT(pos[0], 0.0);
  EXPECT_LT(pos[2], n.total_length_um());
}

TEST(Movement, RepeaterWithoutRoomBetweenNeighboursStaysPut) {
  // The middle repeater's neighbours sit 0.5 um away, so no spot keeps
  // 1 um from both; the zones block the outer repeaters' own moves.
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("crowded")
                     .driver(20.0)
                     .receiver(10.0)
                     .segment(10000.0, 0.1, 0.2)
                     .zone(4000.0, 4999.0)
                     .zone(5002.0, 6000.0)
                     .build();
  const std::vector<double> start{5000.0, 5000.5, 5001.0};
  const std::vector<double> widths{5.0, 10.0, 20.0};
  const auto derivs = location_derivatives(n, device, start, widths);
  ASSERT_TRUE(derivs[1].right < 0 || derivs[1].left > 0)
      << "the middle repeater must want to move";
  std::vector<double> pos = start;
  EXPECT_EQ(move_repeaters(n, device, pos, widths, 50.0,
                           /*allow_zone_hop=*/false),
            0);
  EXPECT_EQ(pos, start);
}

// ----------------------------------------------------------------- refine

TEST(Refine, WidthHistoryIsMonotoneNonIncreasing) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const net::RepeaterSolution initial(
      {{1500.0, 30.0}, {4000.0, 30.0}, {8600.0, 30.0}});
  const double tau_t = delay_at(n, device, {}, {}) * 0.4;
  const auto r = refine(n, device, initial, tau_t);
  ASSERT_TRUE(r.width_solve_ok);
  ASSERT_FALSE(r.width_history_u.empty());
  for (std::size_t i = 1; i < r.width_history_u.size(); ++i) {
    EXPECT_LE(r.width_history_u[i], r.width_history_u[i - 1] + 1e-9);
  }
  EXPECT_NEAR(r.delay_fs, tau_t, 1e-6 * tau_t);
}

TEST(Refine, ImprovesPoorInitialPlacement) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  // All repeaters crowded near the driver: far from optimal (the
  // continuous minimum at this placement is ~0.72x unbuffered, vs
  // ~0.345x when evenly spread).
  const net::RepeaterSolution poor(
      {{500.0, 30.0}, {1000.0, 30.0}, {1500.0, 30.0}});
  const double tau_t = delay_at(n, device, {}, {}) * 0.78;
  const auto r = refine(n, device, poor, tau_t);
  ASSERT_TRUE(r.width_solve_ok);
  // Width at the original placement:
  const auto at_poor = solve_widths(
      n, device, {500.0, 1000.0, 1500.0}, tau_t);
  ASSERT_TRUE(at_poor.converged);
  EXPECT_LT(r.total_width_u, at_poor.total_width_u * 0.95);
  // Repeaters actually moved.
  EXPECT_GT(r.iterations, 0);
}

TEST(Refine, KeepsRepeatersOutOfZones) {
  const auto device = tech::make_tech180().device();
  const auto n = test::paper_net(1234);
  const net::RepeaterSolution initial = [&] {
    std::vector<net::Repeater> reps;
    const double total = n.total_length_um();
    for (double frac : {0.25, 0.5, 0.75}) {
      double x = frac * total;
      // nudge out of zones for a legal start
      while (n.in_forbidden_zone(x)) x += 10.0;
      reps.push_back(net::Repeater{x, 100.0});
    }
    return net::RepeaterSolution(std::move(reps));
  }();
  const double unbuffered = rc::elmore_delay_fs(n, {}, device);
  const auto r = refine(n, device, initial, unbuffered * 0.5);
  if (r.width_solve_ok) {
    for (const double x : r.positions_um) {
      EXPECT_FALSE(n.in_forbidden_zone(x)) << "position " << x;
    }
  }
}

TEST(Refine, EmptyInitialSolutionIsANoop) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const auto r = refine(n, device, net::RepeaterSolution{}, 50000.0);
  EXPECT_TRUE(r.width_solve_ok);
  EXPECT_TRUE(r.positions_um.empty());
  EXPECT_DOUBLE_EQ(r.total_width_u, 0.0);
}

TEST(Refine, InfeasibleTargetReportsFailure) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const auto r =
      refine(n, device, net::RepeaterSolution({{500.0, 10.0}}), 10.0);
  EXPECT_FALSE(r.width_solve_ok);
}

TEST(Refine, SolutionAccessorRoundTrips) {
  const auto device = test::simple_device();
  const auto n = long_uniform_net();
  const net::RepeaterSolution initial({{3000.0, 20.0}, {6000.0, 20.0}});
  const double tau_t = delay_at(n, device, {}, {}) * 0.45;
  const auto r = refine(n, device, initial, tau_t);
  ASSERT_TRUE(r.width_solve_ok);
  const auto sol = r.solution();
  ASSERT_EQ(sol.size(), 2u);
  EXPECT_NEAR(sol.total_width_u(), r.total_width_u, 1e-9);
}

// ---------------------------------------------------------------- golden

TEST(RefineGolden, Seed2005PaperNetsArePinned) {
  // REFINE's continuous output inside RIP on seed-2005 paper nets: the
  // iteration count and width-solve flag exactly, the placement, widths,
  // multiplier and delay to 1e-12 relative.
  struct Case {
    int net;
    double factor;  ///< timing target = factor * tau_min
    int iterations;
    double lambda;
    double delay_fs;
    std::vector<double> positions_um;
    std::vector<double> widths_u;
  };
  const Case cases[] = {
      {0, 1.05, 6, 0.0014839072036236516, 2406973.3695311835,
       {700, 4350, 5800, 7200, 8800},
       {202.20502498149543, 107.33602464784398, 124.27812476242055,
        136.098976348413, 134.0323933772585}},
      {0, 1.30, 6, 0.00030144249769228215, 2980062.2808501748,
       {4350, 6100, 8300},
       {67.725052019822897, 81.719279169135248, 81.842971889883572}},
      {1, 1.50, 5, 9.5749963436766219e-05, 4550403.4844696242,
       {4000, 5900, 10800},
       {44.743522598103887, 70.002203945221837, 44.214052058370136}},
      {1, 2.20, 1, 1.3634887849751308e-05, 6673925.1170959966,
       {5900},
       {32.344390041160139}},
      {2, 1.05, 4, 0.0018289578823684413, 2978922.5221990691,
       {1800, 3400, 5300, 6750, 10800, 11600},
       {134.21933524447391, 149.47015347277116, 135.68835371328996,
        206.74136718180984, 91.000258471623169, 135.18701789575559}},
  };
  const auto tech = tech::make_tech180();
  const auto workload = eval::make_paper_workload(tech, 3, 2005);
  const auto expect_close = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-12 * std::abs(want));
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("net " + std::to_string(c.net) + " x" +
                 std::to_string(c.factor));
    const auto& w = workload[static_cast<std::size_t>(c.net)];
    const RefineResult r =
        core::rip_insert(w.net, tech.device(), c.factor * w.tau_min_fs)
            .refined;
    EXPECT_TRUE(r.width_solve_ok);
    EXPECT_EQ(r.iterations, c.iterations);
    expect_close(r.lambda, c.lambda);
    expect_close(r.delay_fs, c.delay_fs);
    ASSERT_EQ(r.positions_um.size(), c.positions_um.size());
    ASSERT_EQ(r.widths_u.size(), c.widths_u.size());
    for (std::size_t i = 0; i < c.positions_um.size(); ++i) {
      expect_close(r.positions_um[i], c.positions_um[i]);
      expect_close(r.widths_u[i], c.widths_u[i]);
    }
  }
}

// ---------------------------------------------------------------- bakoglu

TEST(Bakoglu, ClosedFormAgreesWithDpTauMinOnUniformLine) {
  const auto device = test::simple_device();
  const auto insertion =
      optimal_uniform_insertion(device, 10000.0, 0.1, 0.2);
  EXPECT_GT(insertion.stage_count, 1.0);
  EXPECT_GT(insertion.width_u, 1.0);
  // w* = sqrt(Rs*c / (r*Co)) = sqrt(1000*0.2/(0.1*2)) = sqrt(1000).
  EXPECT_NEAR(insertion.width_u, std::sqrt(1000.0), 1e-9);
  // k* = sqrt(R*C / (2*Rs*(Co+Cp))) = sqrt(1000*2000/6000).
  EXPECT_NEAR(insertion.stage_count, std::sqrt(1000.0 * 2000.0 / 6000.0),
              1e-9);
}

TEST(Bakoglu, RejectsBadArguments) {
  const auto device = test::simple_device();
  EXPECT_THROW(optimal_uniform_insertion(device, 0.0, 0.1, 0.2), Error);
  EXPECT_THROW(optimal_uniform_insertion(device, 100.0, 0.0, 0.2), Error);
}

}  // namespace
}  // namespace rip::analytical

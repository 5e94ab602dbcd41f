// Unit tests for the RC module: Elmore (hand-checked values), stage
// decomposition, pi-model/moments, and RC trees.

#include <cmath>

#include <gtest/gtest.h>

#include "net/solution.hpp"
#include "rc/buffered_chain.hpp"
#include "rc/elmore.hpp"
#include "rc/moments.hpp"
#include "rc/delay_metrics.hpp"
#include "rc/pi_model.hpp"
#include "rc/tree.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rip::rc {
namespace {

using net::WirePiece;

// ------------------------------------------------------------ wire elmore

TEST(WireElmore, SinglePieceHandChecked) {
  // One piece: R = 100 Ohm, C = 200 fF, load 50 fF.
  // delay = R * (load + C/2) = 100 * (50 + 100) = 15000 fs.
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2}};
  const WireElmore we = wire_elmore(pieces, 50.0);
  EXPECT_DOUBLE_EQ(we.delay_fs, 15000.0);
  EXPECT_DOUBLE_EQ(we.total_cap_ff, 200.0);
}

TEST(WireElmore, TwoPiecesHandChecked) {
  // Piece A: R=10, C=20. Piece B: R=40, C=60. Load 5.
  // Walking from the load: B contributes 40*(5+30)=1400;
  // A contributes 10*(5+60+10)=750. Total 2150.
  const std::vector<WirePiece> pieces{{100.0, 0.1, 0.2}, {200.0, 0.2, 0.3}};
  const WireElmore we = wire_elmore(pieces, 5.0);
  EXPECT_DOUBLE_EQ(we.delay_fs, 1400.0 + 750.0);
  EXPECT_DOUBLE_EQ(we.total_cap_ff, 80.0);
}

TEST(WireElmore, ZeroLoadAndEmptyWire) {
  EXPECT_DOUBLE_EQ(wire_elmore({}, 10.0).delay_fs, 0.0);
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2}};
  EXPECT_DOUBLE_EQ(wire_elmore(pieces, 0.0).delay_fs, 100.0 * 100.0);
}

TEST(WireElmore, SplittingAPieceIsExactlyEquivalent) {
  // Elmore of a uniform line is invariant to subdividing the pi pieces?
  // No — the lumped pi model changes with discretization. But our model
  // uses the exact distributed form r*l*(C + c*l/2) per piece, which IS
  // invariant: check 1 piece vs the same wire as 4 pieces.
  const std::vector<WirePiece> one{{1000.0, 0.1, 0.2}};
  const std::vector<WirePiece> four{{250.0, 0.1, 0.2},
                                    {250.0, 0.1, 0.2},
                                    {250.0, 0.1, 0.2},
                                    {250.0, 0.1, 0.2}};
  EXPECT_NEAR(wire_elmore(one, 33.0).delay_fs,
              wire_elmore(four, 33.0).delay_fs, 1e-9);
}

TEST(StageElmore, FullStageHandChecked) {
  // Device: Rs=1000, Co=2, Cp=1. Driver w=10 -> Rs/w = 100.
  // Wire: R=100, C=200. Load = 50 fF.
  // tau = Rs*Cp + (Rs/w)(C+load) + wire = 1000 + 100*250 + 15000 = 41000.
  const auto device = test::simple_device();
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2}};
  EXPECT_DOUBLE_EQ(stage_elmore_fs(device, 10.0, pieces, 50.0), 41000.0);
}

TEST(StageElmore, RejectsBadArguments) {
  const auto device = test::simple_device();
  EXPECT_THROW(stage_elmore_fs(device, 0.0, {}, 10.0), Error);
  EXPECT_THROW(stage_elmore_fs(device, 10.0, {}, -1.0), Error);
}

// --------------------------------------------------------- buffered chain

TEST(BufferedChain, UnbufferedMatchesSingleStage) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  // Driver 10u, wire R=100 C=200, receiver 5u -> load = Co*5 = 10 fF.
  // tau = 1000 + 100*(200+10) + 100*(10+100) = 1000+21000+11000 = 33000.
  const double d = elmore_delay_fs(n, net::RepeaterSolution{}, device);
  EXPECT_DOUBLE_EQ(d, 33000.0);
}

TEST(BufferedChain, OneRepeaterHandChecked) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  // Repeater w=4 at x=600.
  // Stage 0: driver 10u over [0,600]: wire R=60, C=120; load = Co*4 = 8.
  //   tau0 = 1000 + 100*(120+8) + 60*(8+60) = 1000+12800+4080 = 17880.
  // Stage 1: driver 4u (Rs/w=250) over [600,1000]: R=40, C=80; load=10.
  //   tau1 = 1000 + 250*(80+10) + 40*(10+40) = 1000+22500+2000 = 25500.
  const net::RepeaterSolution s({{600.0, 4.0}});
  const BufferedChain chain(n, s, device);
  ASSERT_EQ(chain.stages().size(), 2u);
  EXPECT_DOUBLE_EQ(chain.stage_delay_fs(0), 17880.0);
  EXPECT_DOUBLE_EQ(chain.stage_delay_fs(1), 25500.0);
  EXPECT_DOUBLE_EQ(chain.total_delay_fs(), 43380.0);
}

TEST(BufferedChain, StageGeometryFieldsAreConsistent) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  const net::RepeaterSolution s({{800.0, 6.0}, {1500.0, 8.0}});
  const BufferedChain chain(n, s, device);
  ASSERT_EQ(chain.stages().size(), 3u);
  const auto& st = chain.stages();
  EXPECT_DOUBLE_EQ(st[0].from_um, 0.0);
  EXPECT_DOUBLE_EQ(st[0].to_um, 800.0);
  EXPECT_DOUBLE_EQ(st[1].from_um, 800.0);
  EXPECT_DOUBLE_EQ(st[1].to_um, 1500.0);
  EXPECT_DOUBLE_EQ(st[2].to_um, 3000.0);
  EXPECT_DOUBLE_EQ(st[0].driver_width_u, 10.0);
  EXPECT_DOUBLE_EQ(st[1].driver_width_u, 6.0);
  EXPECT_DOUBLE_EQ(st[2].driver_width_u, 8.0);
  EXPECT_DOUBLE_EQ(st[2].load_width_u, 5.0);
  // Stage wire totals match the net integrals.
  EXPECT_DOUBLE_EQ(st[1].wire_resistance_ohm,
                   n.resistance_between_ohm(800, 1500));
  EXPECT_DOUBLE_EQ(st[1].wire_capacitance_ff,
                   n.capacitance_between_ff(800, 1500));
}

TEST(BufferedChain, ResizedInPlaceMatchesAFreshChain) {
  // REFINE re-sizes one chain per lambda probe, so its delay must be
  // bit-identical to a chain decomposed afresh at the new widths. The
  // stages cross the zone [400, 700] and the segment boundary at 1000.
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  BufferedChain chain(
      n, net::RepeaterSolution({{300.0, 1.0}, {800.0, 1.0}, {1500.0, 1.0}}),
      device);
  chain.set_widths({7.3, 3.9, 12.7});
  const BufferedChain fresh(
      n, net::RepeaterSolution({{300.0, 7.3}, {800.0, 3.9}, {1500.0, 12.7}}),
      device);
  ASSERT_EQ(chain.stages().size(), fresh.stages().size());
  for (std::size_t i = 0; i < fresh.stages().size(); ++i) {
    EXPECT_EQ(chain.stages()[i].driver_width_u,
              fresh.stages()[i].driver_width_u);
    EXPECT_EQ(chain.stages()[i].load_width_u, fresh.stages()[i].load_width_u);
    EXPECT_EQ(chain.stage_delay_fs(i), fresh.stage_delay_fs(i));
  }
  EXPECT_EQ(chain.total_delay_fs(), fresh.total_delay_fs());
  // One width per repeater, no more and no fewer.
  EXPECT_THROW(chain.set_widths({7.3, 3.9}), Error);
  EXPECT_THROW(chain.set_widths({7.3, 3.9, 12.7, 1.0}), Error);
}

TEST(BufferedChain, RepeaterAtEndThrows) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  EXPECT_THROW(BufferedChain(n, net::RepeaterSolution({{1000.0, 4.0}}),
                             device),
               Error);
  EXPECT_THROW(BufferedChain(n, net::RepeaterSolution({{0.0, 4.0}}),
                             device),
               Error);
}

TEST(BufferedChain, MoreRepeatersShortenLongNetDelay) {
  // On a long resistive net, well-placed repeaters must reduce delay.
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("long")
                     .driver(10)
                     .receiver(5)
                     .segment(10000, 0.1, 0.2)
                     .build();
  const double unbuffered = elmore_delay_fs(n, {}, device);
  const double buffered = elmore_delay_fs(
      n,
      net::RepeaterSolution(
          {{2500.0, 30.0}, {5000.0, 30.0}, {7500.0, 30.0}}),
      device);
  EXPECT_LT(buffered, unbuffered);
}

// ------------------------------------------------------------- moments

TEST(Moments, PureCapacitiveLoad) {
  const YMoments y = wire_admittance_moments({}, 42.0);
  EXPECT_DOUBLE_EQ(y.y1, 42.0);
  EXPECT_DOUBLE_EQ(y.y2, 0.0);
  EXPECT_DOUBLE_EQ(y.y3, 0.0);
}

TEST(Moments, SinglePiSectionHandChecked) {
  // One pi section (C/2, R, C/2) with no load:
  // Y = sC/2 + sC/2/(1+sRC/2) -> y1 = C, y2 = -R(C/2)^2, y3 = R^2(C/2)^3.
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2}};  // R=100, C=200
  const YMoments y = wire_admittance_moments(pieces, 0.0, 1);
  EXPECT_DOUBLE_EQ(y.y1, 200.0);
  EXPECT_DOUBLE_EQ(y.y2, -100.0 * 100.0 * 100.0);
  EXPECT_DOUBLE_EQ(y.y3, 100.0 * 100.0 * 100.0 * 100.0 * 100.0);
}

TEST(Moments, SubdivisionApproachesDistributedLimit) {
  // Distributed open line: y2 = -R C^2 / 3 (vs -R C^2 / 4 for one pi).
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2}};
  const double rc2 = 100.0 * 200.0 * 200.0;
  const YMoments coarse = wire_admittance_moments(pieces, 0.0, 1);
  const YMoments fine = wire_admittance_moments(pieces, 0.0, 64);
  EXPECT_NEAR(coarse.y2, -rc2 / 4.0, 1e-9);
  EXPECT_NEAR(fine.y2, -rc2 / 3.0, rc2 * 2e-2 / 3.0);
  // Moments must be signed correctly for a passive RC input.
  EXPECT_GT(fine.y1, 0);
  EXPECT_LT(fine.y2, 0);
  EXPECT_GT(fine.y3, 0);
}

TEST(Moments, D2mIsBelowElmoreScale) {
  // For a single pole m2 = m1^2 -> D2M = ln2 * m1 (the exact 50% point).
  const double m1 = 1000.0;
  EXPECT_NEAR(d2m_delay_fs(m1, m1 * m1), std::log(2.0) * m1, 1e-9);
  EXPECT_THROW(d2m_delay_fs(-1.0, 1.0), Error);
  EXPECT_THROW(d2m_delay_fs(1.0, 0.0), Error);
}

// ------------------------------------------------------------- pi model

TEST(PiModel, MatchesMomentsOfSinglePi) {
  // Reducing a single lumped pi must reproduce it exactly.
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2}};
  const PiModel pi = reduce_to_pi(pieces, 0.0, 1);
  EXPECT_NEAR(pi.c_far_ff, 100.0, 1e-9);
  EXPECT_NEAR(pi.c_near_ff, 100.0, 1e-9);
  EXPECT_NEAR(pi.r_ohm, 100.0, 1e-9);
}

TEST(PiModel, TotalCapIsPreserved) {
  const std::vector<WirePiece> pieces{{1000.0, 0.1, 0.2},
                                      {500.0, 0.2, 0.1}};
  const PiModel pi = reduce_to_pi(pieces, 30.0, 16);
  EXPECT_NEAR(pi.total_cap_ff(), 200.0 + 50.0 + 30.0, 1e-9);
  EXPECT_GT(pi.r_ohm, 0);
  EXPECT_GT(pi.c_far_ff, 0);
}

TEST(PiModel, PureCapReducesToSingleCap) {
  const PiModel pi = reduce_to_pi(YMoments{25.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(pi.c_near_ff, 25.0);
  EXPECT_DOUBLE_EQ(pi.r_ohm, 0.0);
  EXPECT_DOUBLE_EQ(pi.c_far_ff, 0.0);
}


// ---------------------------------------------------------- delay metrics

TEST(DelayMetrics, D2mIsBoundedByElmoreAndAboveHalfOfIt) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  const net::RepeaterSolution s({{800.0, 6.0}, {1500.0, 8.0}});
  const double elmore = elmore_delay_fs(n, s, device);
  const double d2m = chain_d2m_fs(n, s, device);
  EXPECT_LT(d2m, elmore);
  EXPECT_GT(d2m, 0.4 * elmore);
}

TEST(DelayMetrics, SingleLumpedPoleMatchesLn2) {
  // A stage that is almost a single pole (tiny wire, big load): D2M must
  // approach ln2 * Elmore.
  const auto device = test::simple_device();
  const std::vector<net::WirePiece> tiny{{1.0, 0.001, 0.001}};
  const double load = 500.0;
  const double d2m = stage_d2m_fs(device, 10.0, tiny, load);
  const double elmore = stage_elmore_fs(device, 10.0, tiny, load);
  EXPECT_NEAR(d2m, std::log(2.0) * elmore, 0.01 * elmore);
}

TEST(DelayMetrics, PreservesSolutionOrdering) {
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("order")
                     .driver(10)
                     .receiver(5)
                     .segment(6000, 0.1, 0.2)
                     .build();
  const net::RepeaterSolution good({{3000.0, 20.0}});
  const net::RepeaterSolution bad({{5500.0, 2.0}});
  EXPECT_LT(chain_d2m_fs(n, good, device), chain_d2m_fs(n, bad, device));
}

TEST(DelayMetrics, FinerSubdivisionConverges) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const net::RepeaterSolution s({{600.0, 4.0}});
  const double coarse = chain_d2m_fs(n, s, device, 4);
  const double fine = chain_d2m_fs(n, s, device, 64);
  EXPECT_NEAR(coarse, fine, 0.02 * fine);
}
// ----------------------------------------------------------------- tree

TEST(RcTree, PathTreeMatchesLadderElmore) {
  // A 3-node path with driver resistance: delays must equal the ladder
  // prefix formula.
  RcTree tree;
  const auto a = tree.add_node(RcTree::kRoot, 10.0, 5.0);
  const auto b = tree.add_node(a, 20.0, 7.0);
  const auto c = tree.add_node(b, 30.0, 9.0);
  const auto delay = tree.elmore_delay_fs(100.0);
  // Cdown: root=21, a=21, b=16, c=9.
  EXPECT_DOUBLE_EQ(delay[RcTree::kRoot], 100.0 * 21.0);
  EXPECT_DOUBLE_EQ(delay[a], 100.0 * 21.0 + 10.0 * 21.0);
  EXPECT_DOUBLE_EQ(delay[b], delay[a] + 20.0 * 16.0);
  EXPECT_DOUBLE_EQ(delay[c], delay[b] + 30.0 * 9.0);
}

TEST(RcTree, BranchingSharesUpstreamDelay) {
  RcTree tree;
  const auto stem = tree.add_node(RcTree::kRoot, 50.0, 10.0);
  const auto left = tree.add_node(stem, 10.0, 4.0);
  const auto right = tree.add_node(stem, 20.0, 6.0);
  const auto delay = tree.elmore_delay_fs(0.0);
  // Cdown(stem) = 20; stem delay = 50*20 = 1000.
  EXPECT_DOUBLE_EQ(delay[stem], 1000.0);
  EXPECT_DOUBLE_EQ(delay[left], 1000.0 + 10.0 * 4.0);
  EXPECT_DOUBLE_EQ(delay[right], 1000.0 + 20.0 * 6.0);
}

TEST(RcTree, DownstreamCapAccumulates) {
  RcTree tree;
  const auto a = tree.add_node(RcTree::kRoot, 1.0, 2.0);
  const auto b = tree.add_node(a, 1.0, 3.0);
  tree.add_cap(b, 4.0);
  const auto cdown = tree.downstream_cap_ff();
  EXPECT_DOUBLE_EQ(cdown[RcTree::kRoot], 9.0);
  EXPECT_DOUBLE_EQ(cdown[a], 9.0);
  EXPECT_DOUBLE_EQ(cdown[b], 7.0);
}

TEST(RcTree, SecondMomentSinglePole) {
  // Single RC: m1 = RC, m2 = R*C*m1 = (RC)^2 -> D2M = ln2*RC exactly.
  RcTree tree;
  tree.add_node(RcTree::kRoot, 0.0, 0.0);  // structural node
  tree.add_cap(RcTree::kRoot, 10.0);
  const auto m1 = tree.elmore_delay_fs(100.0);
  const auto m2 = tree.second_moment_fs2(100.0);
  EXPECT_DOUBLE_EQ(m1[RcTree::kRoot], 1000.0);
  EXPECT_DOUBLE_EQ(m2[RcTree::kRoot], 1000.0 * 1000.0);
}

TEST(RcTree, InvalidNodesThrow) {
  RcTree tree;
  EXPECT_THROW(tree.add_node(99, 1.0, 1.0), Error);
  EXPECT_THROW(tree.add_node(RcTree::kRoot, -1.0, 1.0), Error);
  EXPECT_THROW(tree.add_node(RcTree::kRoot, 1.0, -1.0), Error);
  EXPECT_THROW(tree.add_cap(99, 1.0), Error);
  EXPECT_THROW(tree.parent(99), Error);
}

TEST(RcTree, ChainEquivalenceWithBufferedChain) {
  // Model the single-segment net's unbuffered stage as an RcTree and
  // compare against the BufferedChain evaluator (using a fine
  // discretization so the lumped tree converges to the pi form).
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const double reference =
      elmore_delay_fs(n, net::RepeaterSolution{}, device);

  RcTree tree;
  std::size_t cur = RcTree::kRoot;
  tree.add_cap(RcTree::kRoot, device.cp_ff * n.driver_width_u());
  const int sections = 200;
  const double dl = 1000.0 / sections;
  for (int i = 0; i < sections; ++i) {
    const auto next = tree.add_node(cur, 0.1 * dl, 0.0);
    // pi: half cap at each side of the section resistance
    tree.add_cap(cur, 0.2 * dl / 2.0);
    tree.add_cap(next, 0.2 * dl / 2.0);
    cur = next;
  }
  tree.add_cap(cur, device.co_ff * n.receiver_width_u());
  const auto delay = tree.elmore_delay_fs(device.rs_ohm /
                                          n.driver_width_u());
  // The tree includes Cp loading at the root; reference includes Rs*Cp.
  EXPECT_NEAR(delay[cur], reference, reference * 1e-3);
}

}  // namespace
}  // namespace rip::rc

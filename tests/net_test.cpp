// Unit tests for the net module: geometry, prefix integrals, forbidden
// zones, candidates, solutions, and the random generator (netlist files
// are netlist_io_test's).

#include <cmath>

#include <gtest/gtest.h>

#include "net/candidates.hpp"
#include "net/generator.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rip::net {
namespace {

// ------------------------------------------------------------- geometry

TEST(Net, TotalsMatchSegmentSums) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_DOUBLE_EQ(n.total_length_um(), 3000.0);
  EXPECT_DOUBLE_EQ(n.total_resistance_ohm(), 1000.0 * 0.1 + 2000.0 * 0.05);
  EXPECT_DOUBLE_EQ(n.total_capacitance_ff(), 1000.0 * 0.2 + 2000.0 * 0.3);
}

TEST(Net, ResistanceBetweenIntegratesAcrossSegments) {
  const Net n = test::two_segment_net_with_zone();
  // [500, 1500]: 500 um of segment 0 plus 500 um of segment 1.
  EXPECT_DOUBLE_EQ(n.resistance_between_ohm(500, 1500),
                   500 * 0.1 + 500 * 0.05);
  EXPECT_DOUBLE_EQ(n.capacitance_between_ff(500, 1500),
                   500 * 0.2 + 500 * 0.3);
}

TEST(Net, IntegralsWithinOneSegment) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_DOUBLE_EQ(n.resistance_between_ohm(100, 300), 200 * 0.1);
  EXPECT_DOUBLE_EQ(n.capacitance_between_ff(1200, 1700), 500 * 0.3);
}

TEST(Net, EmptySpanIntegralsAreZero) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_DOUBLE_EQ(n.resistance_between_ohm(800, 800), 0.0);
  EXPECT_TRUE(n.pieces_between(800, 800).empty());
}

TEST(Net, FullSpanEqualsTotals) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_DOUBLE_EQ(n.resistance_between_ohm(0, 3000),
                   n.total_resistance_ohm());
  EXPECT_DOUBLE_EQ(n.capacitance_between_ff(0, 3000),
                   n.total_capacitance_ff());
}

TEST(Net, PiecesBetweenSplitsAtSegmentBoundary) {
  const Net n = test::two_segment_net_with_zone();
  const auto pieces = n.pieces_between(900, 1100);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_DOUBLE_EQ(pieces[0].length_um, 100.0);
  EXPECT_DOUBLE_EQ(pieces[0].r_ohm_per_um, 0.1);
  EXPECT_DOUBLE_EQ(pieces[1].length_um, 100.0);
  EXPECT_DOUBLE_EQ(pieces[1].r_ohm_per_um, 0.05);
}

TEST(Net, SegmentIndexRespectsSide) {
  const Net n = test::two_segment_net_with_zone();
  // Exactly on the internal boundary at 1000 um.
  EXPECT_EQ(n.segment_index_at(1000.0, Side::kDownstream), 1u);
  EXPECT_EQ(n.segment_index_at(1000.0, Side::kUpstream), 0u);
  // Interior points ignore the side.
  EXPECT_EQ(n.segment_index_at(500.0, Side::kUpstream), 0u);
  EXPECT_EQ(n.segment_index_at(500.0, Side::kDownstream), 0u);
  // Net ends.
  EXPECT_EQ(n.segment_index_at(0.0, Side::kDownstream), 0u);
  EXPECT_EQ(n.segment_index_at(3000.0, Side::kUpstream), 1u);
}

TEST(Net, WireAtReturnsSideResolvedParameters) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_DOUBLE_EQ(n.wire_at(1000.0, Side::kDownstream).r_ohm_per_um, 0.05);
  EXPECT_DOUBLE_EQ(n.wire_at(1000.0, Side::kUpstream).r_ohm_per_um, 0.1);
}

TEST(Net, OutOfRangeQueriesThrow) {
  const Net n = test::single_segment_net();
  EXPECT_THROW(n.resistance_between_ohm(-1, 10), Error);
  EXPECT_THROW(n.resistance_between_ohm(0, 1001), Error);
  EXPECT_THROW(n.resistance_between_ohm(500, 100), Error);
  EXPECT_THROW(n.segment_index_at(-0.5), Error);
}

// ---------------------------------------------------------------- zones

TEST(Net, ZoneInteriorIsForbiddenBoundariesAreNot) {
  const Net n = test::two_segment_net_with_zone();  // zone [400, 700]
  EXPECT_TRUE(n.in_forbidden_zone(500.0));
  EXPECT_FALSE(n.in_forbidden_zone(400.0));  // boundary is legal
  EXPECT_FALSE(n.in_forbidden_zone(700.0));
  EXPECT_FALSE(n.in_forbidden_zone(399.9));
  EXPECT_EQ(n.zone_index_at(500.0), 0);
  EXPECT_EQ(n.zone_index_at(300.0), -1);
}

TEST(Net, PlacementLegalExcludesEndsAndZones) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_FALSE(n.placement_legal(0.0));
  EXPECT_FALSE(n.placement_legal(3000.0));
  EXPECT_FALSE(n.placement_legal(550.0));
  EXPECT_TRUE(n.placement_legal(400.0));
  EXPECT_TRUE(n.placement_legal(1500.0));
}

TEST(Net, RejectsOverlappingZones) {
  EXPECT_THROW(NetBuilder("bad")
                   .driver(10)
                   .receiver(5)
                   .segment(1000, 0.1, 0.2)
                   .zone(100, 400)
                   .zone(300, 600)
                   .build(),
               Error);
}

TEST(Net, AcceptsTouchingZones) {
  const Net n = NetBuilder("ok")
                    .driver(10)
                    .receiver(5)
                    .segment(1000, 0.1, 0.2)
                    .zone(100, 400)
                    .zone(400, 600)
                    .build();
  EXPECT_EQ(n.zones().size(), 2u);
  EXPECT_FALSE(n.in_forbidden_zone(400.0));  // the shared boundary
}

TEST(Net, RejectsZoneOutsideNet) {
  EXPECT_THROW(NetBuilder("bad")
                   .driver(10)
                   .receiver(5)
                   .segment(1000, 0.1, 0.2)
                   .zone(800, 1200)
                   .build(),
               Error);
}

TEST(Net, RejectsZoneCoveringWholeNet) {
  EXPECT_THROW(NetBuilder("bad")
                   .driver(10)
                   .receiver(5)
                   .segment(1000, 0.1, 0.2)
                   .zone(0, 1000)
                   .build(),
               Error);
}

TEST(Net, SortsZonesOnConstruction) {
  const Net n = NetBuilder("ok")
                    .driver(10)
                    .receiver(5)
                    .segment(1000, 0.1, 0.2)
                    .zone(600, 800)
                    .zone(100, 300)
                    .build();
  EXPECT_DOUBLE_EQ(n.zones()[0].start_um, 100.0);
  EXPECT_DOUBLE_EQ(n.zones()[1].start_um, 600.0);
}

// ----------------------------------------------------------- validation

TEST(Net, RejectsBadInputs) {
  EXPECT_THROW(NetBuilder("n").driver(0).receiver(5)
                   .segment(100, 0.1, 0.2).build(), Error);
  EXPECT_THROW(NetBuilder("n").driver(10).receiver(-5)
                   .segment(100, 0.1, 0.2).build(), Error);
  EXPECT_THROW(NetBuilder("n").driver(10).receiver(5).build(), Error);
  EXPECT_THROW(NetBuilder("n").driver(10).receiver(5)
                   .segment(0, 0.1, 0.2).build(), Error);
  EXPECT_THROW(NetBuilder("n").driver(10).receiver(5)
                   .segment(100, -0.1, 0.2).build(), Error);
  EXPECT_THROW(NetBuilder("").driver(10).receiver(5)
                   .segment(100, 0.1, 0.2).build(), Error);
}

// ------------------------------------------------------------ solutions

TEST(RepeaterSolution, SortsByPosition) {
  const RepeaterSolution s({{800.0, 20.0}, {200.0, 10.0}});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.repeaters()[0].position_um, 200.0);
  EXPECT_DOUBLE_EQ(s.repeaters()[1].position_um, 800.0);
  EXPECT_DOUBLE_EQ(s.total_width_u(), 30.0);
}

TEST(RepeaterSolution, RejectsDuplicatePositionsAndBadWidths) {
  EXPECT_THROW(RepeaterSolution({{100.0, 5.0}, {100.0, 6.0}}), Error);
  EXPECT_THROW(RepeaterSolution({{100.0, 0.0}}), Error);
  EXPECT_THROW(RepeaterSolution({{100.0, -3.0}}), Error);
}

TEST(RepeaterSolution, LegalForChecksZonesAndEnds) {
  const Net n = test::two_segment_net_with_zone();
  EXPECT_TRUE(RepeaterSolution({{300.0, 10.0}}).legal_for(n));
  EXPECT_FALSE(RepeaterSolution({{500.0, 10.0}}).legal_for(n));  // in zone
  EXPECT_FALSE(RepeaterSolution({{3000.0, 10.0}}).legal_for(n)); // at end
  EXPECT_TRUE(RepeaterSolution{}.legal_for(n));
}

// ------------------------------------------------------------ candidates

TEST(Candidates, UniformSpacingExcludesZones) {
  const Net n = test::two_segment_net_with_zone();  // L=3000, zone [400,700]
  const auto c = uniform_candidates(n, 200.0);
  // 200, 400, (600 in zone), 800, ..., 2800: 14 grid points, minus one.
  EXPECT_EQ(c.size(), 13u);
  for (const double pos : c) {
    EXPECT_TRUE(n.placement_legal(pos));
    EXPECT_NEAR(std::fmod(pos, 200.0), 0.0, 1e-9);
  }
}

TEST(Candidates, UniformExcludesEndpoints) {
  const Net n = test::single_segment_net();
  const auto c = uniform_candidates(n, 500.0);
  ASSERT_EQ(c.size(), 1u);  // only 500; 1000 == L excluded
  EXPECT_DOUBLE_EQ(c[0], 500.0);
}

TEST(Candidates, PitchLargerThanNetGivesNothing) {
  const Net n = test::single_segment_net();
  EXPECT_TRUE(uniform_candidates(n, 5000.0).empty());
}

TEST(Candidates, WindowAroundCentersClipsAndDedupes) {
  const Net n = test::single_segment_net();  // L = 1000
  const auto c = window_candidates(n, {100.0, 150.0}, 2, 50.0);
  // centers 100: {0x,50,100,150,200}; 150: {50,...,250}; dedup; 0 illegal.
  ASSERT_FALSE(c.empty());
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_LT(c[i - 1], c[i]);
  for (const double pos : c) EXPECT_TRUE(n.placement_legal(pos));
  EXPECT_EQ(c.size(), 5u);  // 50, 100, 150, 200, 250
}

TEST(Candidates, WindowExcludesZoneInterior) {
  const Net n = test::two_segment_net_with_zone();  // zone [400,700]
  const auto c = window_candidates(n, {500.0}, 3, 50.0);
  for (const double pos : c) EXPECT_FALSE(n.in_forbidden_zone(pos));
}

TEST(Candidates, InvalidArgumentsThrow) {
  const Net n = test::single_segment_net();
  EXPECT_THROW(uniform_candidates(n, 0.0), Error);
  EXPECT_THROW(window_candidates(n, {100.0}, -1, 50.0), Error);
  EXPECT_THROW(window_candidates(n, {100.0}, 1, 0.0), Error);
}

TEST(Candidates, GridPastTheKernelCountRangeIsATypedError) {
  // Finite, positive lengths the reader accepts: 5e12 grid positions,
  // and two segments whose sum is inf. Each is refused before anything
  // is allocated, as an input error rather than a precondition.
  const Net huge("huge", 100, 50, {Segment{1e15, 0.1, 0.2, "metal4"}});
  const Net endless("endless", 100, 50,
                    {Segment{1e308, 0.1, 0.2, "metal4"},
                     Segment{1e308, 0.1, 0.2, "metal4"}});
  for (const Net* n : {&huge, &endless}) {
    try {
      uniform_candidates(*n, 200.0);
      ADD_FAILURE() << n->name() << ": expected rip::Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("(limit 32767)"), std::string::npos) << what;
      EXPECT_EQ(what.find("precondition"), std::string::npos) << what;
    }
  }
  // A grid of exactly kMaxCandidates pitches is still built.
  const Net edge("edge", 100, 50, {Segment{32767.0, 0.1, 0.2, "metal4"}});
  EXPECT_EQ(uniform_candidates(edge, 1.0).size(), kMaxCandidates - 1);
}

// -------------------------------------------------------------- generator

TEST(Generator, RespectsPaperDistributions) {
  const tech::Technology tech = tech::make_tech180();
  RandomNetConfig config;  // paper defaults
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const Net n = random_net(tech, config, rng, "g");
    const int m = static_cast<int>(n.segments().size());
    EXPECT_GE(m, 4);
    EXPECT_LE(m, 10);
    for (const auto& s : n.segments()) {
      EXPECT_GE(s.length_um, 1000.0);
      EXPECT_LE(s.length_um, 2500.0);
      EXPECT_TRUE(s.layer == "metal4" || s.layer == "metal5");
    }
    ASSERT_EQ(n.zones().size(), 1u);
    const double frac = n.zones()[0].length_um() / n.total_length_um();
    EXPECT_GE(frac, 0.20 - 1e-9);
    EXPECT_LE(frac, 0.40 + 1e-9);
  }
}

TEST(Generator, DeterministicGivenSeed) {
  const tech::Technology tech = tech::make_tech180();
  RandomNetConfig config;
  Rng a(7);
  Rng b(7);
  const Net na = random_net(tech, config, a, "x");
  const Net nb = random_net(tech, config, b, "x");
  EXPECT_DOUBLE_EQ(na.total_length_um(), nb.total_length_um());
  EXPECT_DOUBLE_EQ(na.driver_width_u(), nb.driver_width_u());
  ASSERT_EQ(na.segments().size(), nb.segments().size());
  EXPECT_DOUBLE_EQ(na.zones()[0].start_um, nb.zones()[0].start_um);
}

TEST(Generator, RejectsBadConfig) {
  const tech::Technology tech = tech::make_tech180();
  Rng rng(1);
  RandomNetConfig bad;
  bad.min_segments = 5;
  bad.max_segments = 4;
  EXPECT_THROW(random_net(tech, bad, rng, "x"), Error);
  RandomNetConfig bad2;
  bad2.layers = {};
  EXPECT_THROW(random_net(tech, bad2, rng, "x"), Error);
  RandomNetConfig bad3;
  bad3.zone_fraction_max = 1.5;
  EXPECT_THROW(random_net(tech, bad3, rng, "x"), Error);
}

TEST(Generator, ZoneCountZeroGivesNoZones) {
  const tech::Technology tech = tech::make_tech180();
  RandomNetConfig config;
  config.zone_count = 0;
  Rng rng(3);
  const Net n = random_net(tech, config, rng, "nz");
  EXPECT_TRUE(n.zones().empty());
}

}  // namespace
}  // namespace rip::net

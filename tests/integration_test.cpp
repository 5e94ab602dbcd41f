// End-to-end integration tests: full pipeline determinism, file-format
// interchange between stages, and the SPICE export of a finished design.

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "dp/min_delay.hpp"
#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "rc/buffered_chain.hpp"
#include "sim/spice.hpp"
#include "sim/transient.hpp"
#include "tech/tech_io.hpp"
#include "test_helpers.hpp"

namespace rip {
namespace {

TEST(Integration, FullPipelineIsDeterministic) {
  const auto tech = tech::make_tech180();
  const auto wl1 = eval::make_paper_workload(tech, 2, 42);
  const auto wl2 = eval::make_paper_workload(tech, 2, 42);
  for (std::size_t i = 0; i < wl1.size(); ++i) {
    const double tau1 = 1.5 * wl1[i].tau_min_fs;
    const double tau2 = 1.5 * wl2[i].tau_min_fs;
    ASSERT_DOUBLE_EQ(tau1, tau2);
    const auto r1 = core::rip_insert(wl1[i].net, tech.device(), tau1);
    const auto r2 = core::rip_insert(wl2[i].net, tech.device(), tau2);
    ASSERT_EQ(r1.status, r2.status);
    ASSERT_EQ(r1.solution.size(), r2.solution.size());
    EXPECT_DOUBLE_EQ(r1.total_width_u, r2.total_width_u);
    for (std::size_t j = 0; j < r1.solution.size(); ++j) {
      EXPECT_DOUBLE_EQ(r1.solution.repeaters()[j].position_um,
                       r2.solution.repeaters()[j].position_um);
      EXPECT_DOUBLE_EQ(r1.solution.repeaters()[j].width_u,
                       r2.solution.repeaters()[j].width_u);
    }
  }
}

TEST(Integration, NetSurvivesSerializationIntoSameRipResult) {
  const auto tech = tech::make_tech180();
  const net::Net original = test::paper_net(1001);

  // A one-record text netlist, the file every single-net rip_cli
  // command reads: shortest-round-trip doubles, so every value comes
  // back bit for bit.
  std::ostringstream os;
  net::NetlistWriter writer(os, net::NetlistFormat::kText, "mem");
  writer.add(original);
  writer.close();
  std::istringstream is(os.str());
  net::NetlistReader reader(is, "mem");
  auto record = reader.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(reader.next().has_value());
  const net::Net& parsed = record->net;

  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.driver_width_u(), original.driver_width_u());
  EXPECT_EQ(parsed.receiver_width_u(), original.receiver_width_u());
  ASSERT_EQ(parsed.segments().size(), original.segments().size());
  for (std::size_t i = 0; i < original.segments().size(); ++i) {
    const auto& a = parsed.segments()[i];
    const auto& b = original.segments()[i];
    EXPECT_EQ(a.length_um, b.length_um) << "segment " << i;
    EXPECT_EQ(a.r_ohm_per_um, b.r_ohm_per_um) << "segment " << i;
    EXPECT_EQ(a.c_ff_per_um, b.c_ff_per_um) << "segment " << i;
    EXPECT_EQ(a.layer, b.layer) << "segment " << i;
  }
  ASSERT_EQ(parsed.zones().size(), original.zones().size());
  for (std::size_t i = 0; i < original.zones().size(); ++i) {
    EXPECT_EQ(parsed.zones()[i].start_um, original.zones()[i].start_um);
    EXPECT_EQ(parsed.zones()[i].end_um, original.zones()[i].end_um);
  }

  const auto md = dp::min_delay(original, tech.device(),
                                {10.0, 400.0, 10.0, 200.0});
  const double tau_t = 1.4 * md.tau_min_fs;
  const auto r1 = core::rip_insert(original, tech.device(), tau_t);
  const auto r2 = core::rip_insert(parsed, tech.device(), tau_t);
  ASSERT_EQ(r1.status, r2.status);
  EXPECT_EQ(r1.total_width_u, r2.total_width_u);
}

TEST(Integration, TechnologySurvivesFileRoundTrip) {
  const auto tech = tech::make_tech180();
  const std::string path = testing::TempDir() + "/rip_tech_roundtrip.txt";
  {
    std::ofstream out(path);
    tech::write_technology(out, tech);
  }
  const auto parsed = tech::read_technology_file(path);
  EXPECT_DOUBLE_EQ(parsed.device().rs_ohm, tech.device().rs_ohm);
  std::remove(path.c_str());
}

TEST(Integration, SpiceDeckForRipSolutionIsWellFormed) {
  const auto tech = tech::make_tech180();
  const net::Net n = test::paper_net(1002);
  const auto md = dp::min_delay(n, tech.device(), {10.0, 400.0, 10.0, 200.0});
  const auto rip = core::rip_insert(n, tech.device(), 1.4 * md.tau_min_fs);
  ASSERT_EQ(rip.status, dp::Status::kOptimal);

  std::ostringstream os;
  sim::write_spice_deck(os, n, rip.solution, tech.device());
  const std::string deck = os.str();
  // One controlled source per stage.
  std::size_t stages = 0;
  for (std::size_t pos = 0; (pos = deck.find("\nE", pos)) != std::string::npos;
       ++pos) {
    ++stages;
  }
  EXPECT_EQ(stages, rip.solution.size() + 1);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(Integration, ElmoreAndTransientAgreeOnRipVsNaive) {
  // RIP's buffered design must beat a naive single-repeater design in
  // both the Elmore metric and the transient simulation.
  const auto tech = tech::make_tech180();
  const net::Net n = test::paper_net(1003);
  const auto md = dp::min_delay(n, tech.device(), {10.0, 400.0, 10.0, 200.0});
  const auto rip = core::rip_insert(n, tech.device(), 1.1 * md.tau_min_fs);
  ASSERT_EQ(rip.status, dp::Status::kOptimal);
  ASSERT_FALSE(rip.solution.empty());

  double naive_pos = n.total_length_um() / 2;
  while (n.in_forbidden_zone(naive_pos)) naive_pos += 25.0;
  const net::RepeaterSolution naive({{naive_pos, 40.0}});

  const double rip_elmore = rc::elmore_delay_fs(n, rip.solution, tech.device());
  const double naive_elmore = rc::elmore_delay_fs(n, naive, tech.device());
  ASSERT_LT(rip_elmore, naive_elmore);

  sim::TransientOptions fast;
  fast.max_section_um = 150.0;
  const double rip_t50 = sim::chain_t50_fs(n, rip.solution, tech.device(), fast);
  const double naive_t50 = sim::chain_t50_fs(n, naive, tech.device(), fast);
  EXPECT_LT(rip_t50, naive_t50);
}

TEST(Integration, BaselineAndRipAgreeOnEasyCases) {
  // At very loose targets both RIP and the DP baseline should settle on
  // zero (or equal-width) solutions — no scheme invents repeaters it
  // does not need.
  const auto tech = tech::make_tech180();
  const net::Net n = test::paper_net(1004);
  const double unbuffered =
      rc::elmore_delay_fs(n, net::RepeaterSolution{}, tech.device());
  const double tau_t = unbuffered * 2.0;
  const auto rip = core::rip_insert(n, tech.device(), tau_t);
  const auto dp = core::run_baseline(
      n, tech.device(), tau_t, core::BaselineOptions::uniform_library(10, 20, 10));
  ASSERT_EQ(rip.status, dp::Status::kOptimal);
  ASSERT_EQ(dp.status, dp::Status::kOptimal);
  EXPECT_DOUBLE_EQ(rip.total_width_u, 0.0);
  EXPECT_DOUBLE_EQ(dp.total_width_u, 0.0);
}

}  // namespace
}  // namespace rip

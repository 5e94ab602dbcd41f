// The lookahead floor of RIP's stage 3 (dp::kernel::fill_lookahead_floor),
// against exhaustive enumeration on small random nets.
//
// After a bounded solve the workspace holds the floor that solve used:
// per candidate i, D0(i) and Rmin(i), and per allowed width b of i,
// F(i, b). Every buffering of the candidates before i is evaluated with
// rc::elmore_delay_fs, which shares none of the DP's arithmetic, on the
// net cut at i and loaded there with C. The floor must never exceed any
// of those delays — F(i, b) at C = co*w_b, and D0(i) + Rmin(i)*C over a
// range of C, also with a repeater at i — and F(i, b) must be their
// minimum.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"
#include "rc/buffered_chain.hpp"
#include "tech/objective.hpp"
#include "tech/technology.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rip::dp {
namespace {

constexpr double kRel = 1e-12;
constexpr int kWidths = 3;

struct FloorCase {
  net::Net net;
  RepeaterLibrary library;
  std::vector<double> candidates;
  std::vector<std::vector<std::int16_t>> allowed;  ///< some lists empty
};

/// 1-3 segments with distinct RC, an optional zone, 4-7 legal candidates
/// at least 1 um apart, 3 widths, and a random sorted allowed list per
/// candidate (empty about one time in four).
FloorCase random_case(Rng& rng, int max_candidates) {
  net::NetBuilder builder("floor");
  builder.driver(rng.uniform(5.0, 40.0)).receiver(rng.uniform(2.0, 20.0));
  const int segments = rng.uniform_int(1, 3);
  double length = 0;
  for (int s = 0; s < segments; ++s) {
    const double len = rng.uniform(400.0, 2500.0);
    builder.segment(len, rng.uniform(0.02, 0.3), rng.uniform(0.1, 0.4));
    length += len;
  }
  if (rng.bernoulli(0.5)) {
    const double start = rng.uniform(0.1, 0.6) * length;
    builder.zone(start, start + rng.uniform(0.05, 0.3) * length);
  }
  net::Net net = builder.build();

  std::vector<double> widths;
  for (int b = 0; b < kWidths; ++b) widths.push_back(rng.uniform(2.0, 120.0));
  RepeaterLibrary library(std::move(widths));

  const int want = rng.uniform_int(4, max_candidates);
  std::vector<double> candidates;
  while (static_cast<int>(candidates.size()) < want) {
    const double pos = rng.uniform(1.0, net.total_length_um() - 1.0);
    const bool spaced = std::none_of(
        candidates.begin(), candidates.end(),
        [pos](double c) { return std::abs(c - pos) < 1.0; });
    if (net.placement_legal(pos) && spaced) candidates.push_back(pos);
  }
  std::sort(candidates.begin(), candidates.end());

  std::vector<std::vector<std::int16_t>> allowed(candidates.size());
  for (auto& list : allowed) {
    if (rng.bernoulli(0.25)) continue;
    while (list.empty()) {
      for (std::int16_t b = 0; b < static_cast<std::int16_t>(library.size());
           ++b) {
        if (rng.bernoulli(0.5)) list.push_back(b);
      }
    }
  }
  return FloorCase{std::move(net), std::move(library), std::move(candidates),
                   std::move(allowed)};
}

/// `net` from its driver to `end_um`, loaded there by a receiver of input
/// capacitance `load_ff`. Zones only restrict placement, so none is kept.
net::Net cut_at(const net::Net& net, double end_um, double load_ff,
                const tech::RepeaterDevice& device) {
  net::NetBuilder builder("cut");
  builder.driver(net.driver_width_u()).receiver(load_ff / device.co_ff);
  double start = 0;
  for (const auto& s : net.segments()) {
    const double len = std::min(s.length_um, end_um - start);
    if (len <= 0) break;
    builder.segment(len, s.r_ohm_per_um, s.c_ff_per_um);
    start += s.length_um;
  }
  return builder.build();
}

/// Every buffering of candidates [0, i): each candidate empty or one of
/// its allowed widths.
std::vector<net::RepeaterSolution> prefixes(
    const FloorCase& c,
    const std::vector<const std::vector<std::int16_t>*>& lists,
    std::size_t i) {
  std::vector<std::vector<net::Repeater>> out(1);
  for (std::size_t k = 0; k < i; ++k) {
    const std::size_t n = out.size();
    for (const std::int16_t b : *lists[k]) {
      for (std::size_t p = 0; p < n; ++p) {
        std::vector<net::Repeater> with = out[p];
        with.push_back(net::Repeater{
            c.candidates[k],
            c.library.widths_u()[static_cast<std::size_t>(b)]});
        out.push_back(std::move(with));
      }
    }
  }
  std::vector<net::RepeaterSolution> solutions;
  solutions.reserve(out.size());
  for (auto& reps : out) solutions.emplace_back(std::move(reps));
  return solutions;
}

/// Solve `c` bounded at a target no buffering meets, which fills the
/// workspace's floor, and check that floor against every prefix.
/// `allowed` (nullptr = the whole library) and `backend` are the solve's.
void check_floor(const FloorCase& c, const tech::RepeaterDevice& device,
                 const std::vector<std::vector<std::int16_t>>* allowed,
                 const tech::ObjectiveBackend* backend, Workspace& ws,
                 std::size_t& prefixes_checked) {
  ChainDpOptions options;
  options.timing_target_fs = 1.0;
  options.allowed_buffers = allowed;
  options.backend = backend;
  run_chain_dp_bounded(c.net, device, c.library, c.candidates, options,
                       std::numeric_limits<double>::infinity(), ws);

  const bool repeaters =
      backend == nullptr ||
      backend->chain_cost(tech::NetProfile{c.net.name(),
                                           c.net.total_length_um(),
                                           c.net.total_capacitance_ff()})
          .allow_repeaters;
  std::vector<std::int16_t> all;
  for (std::int16_t b = 0; b < static_cast<std::int16_t>(c.library.size());
       ++b) {
    all.push_back(b);
  }
  const std::vector<std::int16_t> none;
  std::vector<const std::vector<std::int16_t>*> lists;
  for (std::size_t k = 0; k < c.candidates.size(); ++k) {
    lists.push_back(!repeaters          ? &none
                    : allowed != nullptr ? &(*allowed)[k]
                                         : &all);
  }

  const double intrinsic = device.rs_ohm * device.cp_ff;
  const std::vector<double> loads = {0.5 * device.co_ff, 5.0 * device.co_ff,
                                     50.0 * device.co_ff,
                                     500.0 * device.co_ff};
  ASSERT_EQ(ws.floor_d0.size(), c.candidates.size());
  for (std::size_t i = 0; i < c.candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const double d0 = ws.floor_d0[i];
    const double rmin = ws.floor_rmin[i];
    const double* group = ws.floor_group.data() + ws.floor_group_at[i];
    const std::vector<std::int16_t>& here = *lists[i];

    // The cut net at each probe load and at each width's input load.
    std::vector<net::Net> at_load;
    for (const double load : loads)
      at_load.push_back(cut_at(c.net, c.candidates[i], load, device));
    std::vector<net::Net> at_width;
    for (std::size_t b = 0; b < c.library.size(); ++b) {
      at_width.push_back(cut_at(c.net, c.candidates[i],
                                device.co_ff * c.library.widths_u()[b],
                                device));
    }

    std::vector<double> group_min(here.size(),
                                  std::numeric_limits<double>::infinity());
    for (const net::RepeaterSolution& prefix : prefixes(c, lists, i)) {
      ++prefixes_checked;
      for (std::size_t l = 0; l < loads.size(); ++l) {
        const double delay = rc::elmore_delay_fs(at_load[l], prefix, device);
        EXPECT_LE(d0 + rmin * loads[l], delay * (1 + kRel))
            << "load " << loads[l];
      }
      for (std::size_t g = 0; g < here.size(); ++g) {
        const auto b = static_cast<std::size_t>(here[g]);
        const double into = rc::elmore_delay_fs(at_width[b], prefix, device);
        group_min[g] = std::min(group_min[g], into);
        EXPECT_LE(group[g], into * (1 + kRel)) << "width " << b;
        // A repeater b at i itself, driving C with no wire between.
        const double rs_over_w = device.rs_ohm / c.library.widths_u()[b];
        for (const double load : loads) {
          EXPECT_LE(d0 + rmin * load,
                    (into + intrinsic + rs_over_w * load) * (1 + kRel))
              << "repeater " << b << " at i, load " << load;
        }
      }
    }
    for (std::size_t g = 0; g < here.size(); ++g) {
      EXPECT_NEAR(group[g], group_min[g], kRel * group_min[g])
          << "width " << here[g];
    }
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Random allowed lists, some empty. Each case also checks that the
// bounded solve still answers exactly as the unbounded one at targets
// from infeasible to loose.
TEST(LookaheadFloor, BoundsEveryPrefixOnRandomAllowedLists) {
  const auto device = test::simple_device();
  Rng rng(2005);
  Workspace ws;
  std::size_t checked = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FloorCase c = random_case(rng, 7);
    check_floor(c, device, &c.allowed, nullptr, ws, checked);

    const double unbuffered = rc::elmore_delay_fs(c.net, {}, device);
    for (const double factor : {0.3, 0.5, 0.7, 0.9, 1.2}) {
      ChainDpOptions options;
      options.timing_target_fs = factor * unbuffered;
      options.allowed_buffers = &c.allowed;
      const ChainDpResult want =
          run_chain_dp(c.net, device, c.library, c.candidates, options, ws);
      const ChainDpResult got = run_chain_dp_bounded(
          c.net, device, c.library, c.candidates, options,
          std::numeric_limits<double>::infinity(), ws);
      ASSERT_EQ(got.status, want.status) << "factor " << factor;
      if (want.status != Status::kOptimal) continue;
      EXPECT_TRUE(same_bits(got.delay_fs, want.delay_fs));
      EXPECT_TRUE(same_bits(got.total_width_u, want.total_width_u));
      ASSERT_EQ(got.solution.size(), want.solution.size());
      for (std::size_t k = 0; k < want.solution.size(); ++k) {
        EXPECT_TRUE(same_bits(got.solution.repeaters()[k].position_um,
                              want.solution.repeaters()[k].position_um));
        EXPECT_TRUE(same_bits(got.solution.repeaters()[k].width_u,
                              want.solution.repeaters()[k].width_u));
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// allowed_buffers == nullptr: every width at every candidate.
TEST(LookaheadFloor, BoundsEveryPrefixWithTheWholeLibrary) {
  const auto device = test::simple_device();
  Rng rng(7919);
  Workspace ws;
  std::size_t checked = 0;
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    check_floor(random_case(rng, 6), device, nullptr, nullptr, ws, checked);
  }
  EXPECT_GT(checked, 1000u);
}

// The lowswing backend forbids repeaters: no group floors, and the pass
// floor is the unbuffered prefix, D0 + Rmin*C equal to its delay.
TEST(LookaheadFloor, LowswingFloorIsTheUnbufferedPrefix) {
  const tech::Technology tech = tech::make_tech180();
  const std::unique_ptr<tech::ObjectiveBackend> lowswing =
      tech::make_backend("lowswing", tech);
  const auto& device = tech.device();
  Rng rng(42);
  Workspace ws;
  std::size_t checked = 0;
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FloorCase c = random_case(rng, 7);
    check_floor(c, device, &c.allowed, lowswing.get(), ws, checked);
    EXPECT_TRUE(ws.floor_group.empty());
    const std::size_t last = c.candidates.size() - 1;
    const double load = 10.0 * device.co_ff;
    const double delay = rc::elmore_delay_fs(
        cut_at(c.net, c.candidates[last], load, device), {}, device);
    EXPECT_NEAR(ws.floor_d0[last] + ws.floor_rmin[last] * load, delay,
                kRel * delay);
  }
  EXPECT_GE(checked, 30u * 4);
}

}  // namespace
}  // namespace rip::dp

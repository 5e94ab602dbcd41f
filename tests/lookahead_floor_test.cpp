// The floors of RIP's stage 3 (dp::kernel::fill_lookahead_floor),
// against exhaustive enumeration on small random nets.
//
// After a bounded solve the workspace holds the floor that solve used:
// per candidate i, D0(i) and Rmin(i), and per allowed width b of i,
// F(i, b). Every buffering of the candidates before i is evaluated with
// rc::elmore_delay_fs, which shares none of the DP's arithmetic, on the
// net cut at i and loaded there with C. The floor must never exceed any
// of those delays — F(i, b) at C = co*w_b, and D0(i) + Rmin(i)*C over a
// range of C, also with a repeater at i — and F(i, b) must be their
// minimum. The Lagrangian cost floor, the same sweep priced at lambda,
// is held to the same standard with each buffering priced at its
// repeaters' cost plus lambda times its delay. Run at weight 1 with zero
// costs, the sweep must give the lookahead floor's arrays bit for bit as
// the (R, t) sweep it generalizes did.

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
#include "dp/kernel_ops.hpp"
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

/// The cost of a buffering under `cost`, summed the way
/// RepeaterLibrary::fill_cost_terms prices each width.
double buffering_cost(const net::RepeaterSolution& s,
                      const tech::ChainCost& cost) {
  double c = 0;
  for (const net::Repeater& r : s.repeaters())
    c += cost.width_weight * r.width_u + cost.per_repeater;
  return c;
}

/// Solve `c` bounded with no incumbent and the cost floor at `lambda`
/// (a price in width, in cost `price` = lambda * the backend's width
/// weight), which fills the workspace's cost floor, and check it against
/// every prefix: V0(i) + price*Rmin(i)*C never exceeds the cost plus
/// price times the delay of any buffering of the prefix loaded with C,
/// also with a repeater at i, and G(i, b) is the least such price into
/// width b.
void check_cost_floor(const FloorCase& c, const tech::RepeaterDevice& device,
                      const tech::ObjectiveBackend* backend, double lambda,
                      Workspace& ws, std::size_t& prefixes_checked) {
  ChainDpOptions options;
  options.timing_target_fs = 1.0;
  options.allowed_buffers = &c.allowed;
  options.backend = backend;
  run_chain_dp_bounded(c.net, device, c.library, c.candidates, options,
                       std::numeric_limits<double>::infinity(), ws, lambda);

  const tech::ChainCost cost =
      backend == nullptr
          ? tech::ChainCost{}
          : backend->chain_cost(tech::NetProfile{
                c.net.name(), c.net.total_length_um(),
                c.net.total_capacitance_ff()});
  const double price = lambda * cost.width_weight;
  std::vector<const std::vector<std::int16_t>*> lists;
  for (const auto& list : c.allowed) lists.push_back(&list);

  const double intrinsic = device.rs_ohm * device.cp_ff;
  const std::vector<double> loads = {0.5 * device.co_ff, 5.0 * device.co_ff,
                                     50.0 * device.co_ff,
                                     500.0 * device.co_ff};
  ASSERT_EQ(ws.cost_floor_v0.size(), c.candidates.size());
  for (std::size_t i = 0; i < c.candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const double v0 = ws.cost_floor_v0[i];
    const double rmin = ws.cost_floor_rmin[i];
    const double* group = ws.cost_floor_group.data() + ws.floor_group_at[i];
    const std::vector<std::int16_t>& here = c.allowed[i];

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
      const double paid = buffering_cost(prefix, cost);
      for (std::size_t l = 0; l < loads.size(); ++l) {
        const double delay = rc::elmore_delay_fs(at_load[l], prefix, device);
        EXPECT_LE(v0 + price * rmin * loads[l],
                  (paid + price * delay) * (1 + kRel))
            << "load " << loads[l];
      }
      for (std::size_t g = 0; g < here.size(); ++g) {
        const auto b = static_cast<std::size_t>(here[g]);
        const double w_b = c.library.widths_u()[b];
        const double into =
            paid + price * rc::elmore_delay_fs(at_width[b], prefix, device);
        group_min[g] = std::min(group_min[g], into);
        EXPECT_LE(group[g], into * (1 + kRel)) << "width " << b;
        // A repeater b at i itself, driving C with no wire between.
        const double with_b = into + cost.width_weight * w_b +
                              cost.per_repeater + price * intrinsic;
        for (const double load : loads) {
          EXPECT_LE(v0 + price * rmin * load,
                    (with_b + price * (device.rs_ohm / w_b) * load) *
                        (1 + kRel))
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

// The cost floor on random allowed lists, at prices from far below to
// far above the one that balances width against delay. Each case also
// checks that a bounded solve at that price, with the unbounded optimum's
// cost as incumbent, answers exactly as the unbounded one.
TEST(LookaheadFloor, CostFloorBoundsEveryPrefix) {
  const auto device = test::simple_device();
  Rng rng(4099);
  Workspace ws;
  std::size_t checked = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FloorCase c = random_case(rng, 7);
    const double unbuffered = rc::elmore_delay_fs(c.net, {}, device);
    // About one library width per unbuffered delay, scaled by 1e-2..1e2.
    const double lambda = c.library.widths_u()[1] / unbuffered *
                          std::pow(10.0, rng.uniform(-2.0, 2.0));
    check_cost_floor(c, device, nullptr, lambda, ws, checked);

    for (const double factor : {0.3, 0.5, 0.7, 0.9, 1.2}) {
      ChainDpOptions options;
      options.timing_target_fs = factor * unbuffered;
      options.allowed_buffers = &c.allowed;
      const ChainDpResult want =
          run_chain_dp(c.net, device, c.library, c.candidates, options, ws);
      if (want.status != Status::kOptimal) continue;
      const ChainDpResult got = run_chain_dp_bounded(
          c.net, device, c.library, c.candidates, options,
          want.objective_cost, ws, lambda);
      ASSERT_EQ(got.status, Status::kOptimal) << "factor " << factor;
      EXPECT_TRUE(same_bits(got.delay_fs, want.delay_fs));
      EXPECT_TRUE(same_bits(got.objective_cost, want.objective_cost));
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

// The activity backend prices a width at weight * w + a per-repeater
// cost; the cost floor must count both, and price delay at lambda times
// the weight.
TEST(LookaheadFloor, CostFloorCountsTheBackendsCosts) {
  const tech::Technology tech = tech::make_tech180();
  const std::unique_ptr<tech::ObjectiveBackend> activity =
      tech::make_backend("activity", tech);
  const auto& device = tech.device();
  Rng rng(77);
  Workspace ws;
  std::size_t checked = 0;
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FloorCase c = random_case(rng, 6);
    const double unbuffered = rc::elmore_delay_fs(c.net, {}, device);
    const double lambda = c.library.widths_u()[1] / unbuffered *
                          std::pow(10.0, rng.uniform(-1.0, 1.0));
    check_cost_floor(c, device, activity.get(), lambda, ws, checked);
  }
  EXPECT_GT(checked, 500u);
}

/// The lookahead floor's (R, t) sweep before it was generalized over a
/// delay weight and per-width costs, kept verbatim as the reference the
/// weight-1, zero-cost call must reproduce bit for bit.
void reference_floor(const Workspace& ws,
                     const std::vector<std::vector<std::int16_t>>& allowed,
                     double driver_rs_over_w, double intrinsic_fs,
                     std::vector<double>& d0, std::vector<double>& rmin,
                     std::vector<double>& group) {
  const auto push = [](std::vector<ForwardPair>& set, ForwardPair p) {
    if (!set.empty() && p.v >= set.back().v) return;
    if (!set.empty() && p.r_ohm == set.back().r_ohm) set.pop_back();
    set.push_back(p);
  };
  const std::size_t n = ws.wire.size() - 1;
  d0.assign(n, 0);
  rmin.assign(n, 0);
  group.clear();
  std::vector<ForwardPair> set{{driver_rs_over_w, intrinsic_fs}};
  std::vector<ForwardPair> next;
  for (std::size_t i = 0; i < n; ++i) {
    const WireAffine& wire = ws.wire[i];
    next.clear();
    for (const ForwardPair& p : set) {
      push(next, {p.r_ohm + wire.r_tot,
                  p.v + (p.r_ohm * wire.c_tot + wire.k)});
    }
    std::swap(set, next);
    const std::size_t at = group.size();
    for (const std::int16_t b : allowed[i]) {
      const double load = ws.lib_load_ff[static_cast<std::size_t>(b)];
      double f = std::numeric_limits<double>::infinity();
      for (const ForwardPair& p : set) f = std::min(f, p.v + p.r_ohm * load);
      group.push_back(f);
    }
    if (!allowed[i].empty()) {
      next.clear();
      std::size_t k = 0;
      for (std::size_t g = allowed[i].size(); g-- > 0;) {
        const ForwardPair fresh{
            ws.lib_rs_over_w[static_cast<std::size_t>(allowed[i][g])],
            group[at + g] + intrinsic_fs};
        for (; k < set.size() &&
               (set[k].r_ohm < fresh.r_ohm ||
                (set[k].r_ohm == fresh.r_ohm && set[k].v <= fresh.v));
             ++k) {
          push(next, set[k]);
        }
        push(next, fresh);
      }
      for (; k < set.size(); ++k) push(next, set[k]);
      std::swap(set, next);
    }
    rmin[i] = set.front().r_ohm;
    d0[i] = set.back().v;
  }
}

bool same_array(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

// Weight 1 and zero costs (nullptr, or an explicit table of zeros) give
// the lookahead floor of the (R, t) sweep, bit for bit; so does every
// bounded solve, with or without a cost floor beside it.
TEST(LookaheadFloor, WeightOneWithZeroCostsIsTheDelayFloor) {
  const auto device = test::simple_device();
  Rng rng(31337);
  Workspace ws;
  const double intrinsic = device.rs_ohm * device.cp_ff;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FloorCase c = random_case(rng, 7);
    ChainDpOptions options;
    options.timing_target_fs = 1.0;
    options.allowed_buffers = &c.allowed;
    const double lambda = round % 2 == 0 ? 0.0 : 1e-3;
    run_chain_dp_bounded(c.net, device, c.library, c.candidates, options,
                         std::numeric_limits<double>::infinity(), ws, lambda);
    const std::vector<double> solved_d0 = ws.floor_d0;
    const std::vector<double> solved_rmin = ws.floor_rmin;
    const std::vector<double> solved_group = ws.floor_group;

    const double driver = device.rs_ohm / c.net.driver_width_u();
    std::vector<double> d0, rmin, group;
    reference_floor(ws, c.allowed, driver, intrinsic, d0, rmin, group);
    EXPECT_TRUE(same_array(solved_d0, d0));
    EXPECT_TRUE(same_array(solved_rmin, rmin));
    EXPECT_TRUE(same_array(solved_group, group));

    const std::vector<double> zeros(c.library.size(), 0.0);
    std::vector<double> z_d0, z_rmin, z_group;
    kernel::fill_lookahead_floor(ws, tech::ChainCost{}, &c.allowed, driver,
                                 intrinsic, 1.0, zeros.data(), z_d0, z_rmin,
                                 z_group);
    EXPECT_TRUE(same_array(z_d0, d0));
    EXPECT_TRUE(same_array(z_rmin, rmin));
    EXPECT_TRUE(same_array(z_group, group));
  }
}

// A delay price must be finite and non-negative.
TEST(LookaheadFloor, RefusesABadDelayPrice) {
  const auto device = test::simple_device();
  Rng rng(5);
  const FloorCase c = random_case(rng, 5);
  ChainDpOptions options;
  options.timing_target_fs = 1.0;
  options.allowed_buffers = &c.allowed;
  Workspace ws;
  for (const double lambda : {-1.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(run_chain_dp_bounded(c.net, device, c.library, c.candidates,
                                      options, 100.0, ws, lambda),
                 Error)
        << "lambda " << lambda;
  }
}

}  // namespace
}  // namespace rip::dp

// Unit tests for the DP module: libraries, Pareto pruning, and the chain
// DP engine (feasibility, correctness of the incremental Elmore
// bookkeeping, zone handling, tau_min).

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dp/brute_force.hpp"
#include "dp/chain_dp.hpp"
#include "dp/kernel_ops.hpp"
#include "dp/library.hpp"
#include "dp/min_delay.hpp"
#include "net/candidates.hpp"
#include "rc/buffered_chain.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rip::dp {
namespace {

// -------------------------------------------------------------- library

TEST(Library, UniformFactory) {
  const auto lib = RepeaterLibrary::uniform(10.0, 20.0, 10);
  ASSERT_EQ(lib.size(), 10u);
  EXPECT_DOUBLE_EQ(lib.min_width_u(), 10.0);
  EXPECT_DOUBLE_EQ(lib.max_width_u(), 10.0 + 9 * 20.0);
  EXPECT_DOUBLE_EQ(lib.widths_u()[1], 30.0);
}

TEST(Library, RangeFactoryStartsAtGranularityMultiple) {
  const auto lib = RepeaterLibrary::range(10.0, 400.0, 40.0);
  EXPECT_DOUBLE_EQ(lib.min_width_u(), 40.0);
  EXPECT_DOUBLE_EQ(lib.max_width_u(), 400.0);
  ASSERT_EQ(lib.size(), 10u);
  const auto lib10 = RepeaterLibrary::range(10.0, 400.0, 10.0);
  EXPECT_EQ(lib10.size(), 40u);
  EXPECT_DOUBLE_EQ(lib10.min_width_u(), 10.0);
}

TEST(Library, SortsAndDeduplicates) {
  const RepeaterLibrary lib({30.0, 10.0, 30.0, 20.0});
  ASSERT_EQ(lib.size(), 3u);
  EXPECT_DOUBLE_EQ(lib.widths_u()[0], 10.0);
  EXPECT_DOUBLE_EQ(lib.widths_u()[2], 30.0);
}

TEST(Library, RoundToLibrary) {
  const RepeaterLibrary lib({10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(lib.round_to_library(5.0), 10.0);
  EXPECT_DOUBLE_EQ(lib.round_to_library(14.0), 10.0);
  EXPECT_DOUBLE_EQ(lib.round_to_library(16.0), 20.0);
  EXPECT_DOUBLE_EQ(lib.round_to_library(100.0), 40.0);
  EXPECT_DOUBLE_EQ(lib.round_to_library(30.0), 40.0);  // ties round up
}

TEST(Library, FromRoundingBracketsEachWidth) {
  const auto lib =
      RepeaterLibrary::from_rounding({62.2, 118.0}, 10.0, 10.0, 400.0);
  // 62.2 -> {60, 70}; 118 -> {110, 120}.
  ASSERT_EQ(lib.size(), 4u);
  EXPECT_DOUBLE_EQ(lib.widths_u()[0], 60.0);
  EXPECT_DOUBLE_EQ(lib.widths_u()[1], 70.0);
  EXPECT_DOUBLE_EQ(lib.widths_u()[2], 110.0);
  EXPECT_DOUBLE_EQ(lib.widths_u()[3], 120.0);
}

TEST(Library, FromRoundingClampsToBounds) {
  const auto lib = RepeaterLibrary::from_rounding({3.0, 999.0}, 10.0, 10.0,
                                                  400.0);
  EXPECT_DOUBLE_EQ(lib.min_width_u(), 10.0);
  EXPECT_DOUBLE_EQ(lib.max_width_u(), 400.0);
}

TEST(Library, ExactMultipleRoundsToItselfOnly) {
  const auto lib = RepeaterLibrary::from_rounding({80.0}, 10.0, 10.0, 400.0);
  ASSERT_EQ(lib.size(), 1u);
  EXPECT_DOUBLE_EQ(lib.widths_u()[0], 80.0);
}

TEST(Library, InvalidInputsThrow) {
  EXPECT_THROW(RepeaterLibrary({}), Error);
  EXPECT_THROW(RepeaterLibrary({-1.0}), Error);
  EXPECT_THROW(RepeaterLibrary::uniform(0.0, 10.0, 5), Error);
  EXPECT_THROW(RepeaterLibrary::uniform(10.0, 0.0, 5), Error);
  EXPECT_THROW(RepeaterLibrary::uniform(10.0, 10.0, 0), Error);
  EXPECT_THROW(RepeaterLibrary::range(100.0, 10.0, 10.0), Error);
}

// The kernels store library indices as int16: 32,768 widths is the cap.
TEST(Library, SizeIsCappedAtTheKernelIndexRange) {
  EXPECT_EQ(RepeaterLibrary::uniform(1.0, 1.0, 32768).size(),
            RepeaterLibrary::kMaxSize);
  EXPECT_THROW(RepeaterLibrary::uniform(1.0, 1.0, 32769), Error);
}

// --------------------------------------------------------------- pareto

using test::staircase_survivors;
using test::TestLabel;

TEST(Pareto, PruneKeepsFrontierOnly3D) {
  const std::vector<TestLabel> labels = staircase_survivors({
      {10, 100, 5, 0},  // dominated by (10, 100, 4)
      {12, 90, 6, 1},   // dominated by (10, 100, 5)
      {8, 80, 9, 2},    // kept (smallest C)
      {10, 110, 9, 3},  // kept (best q)
      {10, 100, 4, 4},  // kept (best p at C=10, q=100)
  });
  ASSERT_EQ(labels.size(), 3u);
  for (const auto& l : labels) {
    EXPECT_NE(l.cap_ff, 12.0) << "dominated label survived";
    if (l.cap_ff == 10.0 && l.q_fs == 100.0) {
      EXPECT_DOUBLE_EQ(l.width_u, 4.0);
    }
  }
}

TEST(Pareto, PruneRemovesExactDuplicatesKeepingOne) {
  const std::vector<TestLabel> labels = staircase_survivors({
      {10, 100, 5, 0},
      {10, 100, 5, 1},
      {10, 100, 5, 2},
  });
  EXPECT_EQ(labels.size(), 1u);
}

/// Reference O(n^2) pruner: keep each label that no other label
/// dominates in (C, q, w), and of mutually identical labels the first.
std::vector<TestLabel> prune_quadratic(const std::vector<TestLabel>& labels) {
  const auto dominates = [](const TestLabel& a, const TestLabel& b) {
    return a.cap_ff <= b.cap_ff && a.q_fs >= b.q_fs && a.width_u <= b.width_u;
  };
  std::vector<TestLabel> kept;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < labels.size() && !dominated; ++j) {
      if (i == j) continue;
      if (!dominates(labels[j], labels[i])) continue;
      if (dominates(labels[i], labels[j])) {
        // Mutually identical: keep only the first occurrence.
        dominated = (j < i);
      } else {
        dominated = true;
      }
    }
    if (!dominated) kept.push_back(labels[i]);
  }
  return kept;
}

class ParetoRandomized : public ::testing::TestWithParam<int> {};

TEST_P(ParetoRandomized, FastPrunerMatchesQuadraticReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    std::vector<TestLabel> labels;
    const int n = rng.uniform_int(1, 60);
    for (int i = 0; i < n; ++i) {
      // Small discrete grids force plenty of ties.
      labels.push_back(TestLabel{static_cast<double>(rng.uniform_int(1, 6)),
                                 static_cast<double>(rng.uniform_int(1, 6)),
                                 static_cast<double>(rng.uniform_int(1, 6)),
                                 i});
    }
    const auto fast = staircase_survivors(labels);
    const auto slow = prune_quadratic(labels);
    EXPECT_EQ(fast.size(), slow.size());
    // Same multiset of survivors in (C, q, w). (Which representative
    // survives among identical labels is the filter's business.)
    auto key = [](const TestLabel& l) {
      return std::make_tuple(l.cap_ff, l.q_fs, l.width_u);
    };
    std::vector<std::tuple<double, double, double>> fk, sk;
    for (const auto& l : fast) fk.push_back(key(l));
    for (const auto& l : slow) sk.push_back(key(l));
    std::sort(fk.begin(), fk.end());
    std::sort(sk.begin(), sk.end());
    EXPECT_EQ(fk, sk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------------------------- chain DP

ChainDpOptions power_options(double tau_t) {
  ChainDpOptions o;
  o.mode = Mode::kMinPower;
  o.timing_target_fs = tau_t;
  return o;
}

TEST(ChainDp, UnbufferedWhenTargetIsLoose) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  // Unbuffered delay is 33000 fs (hand-checked in rc_test).
  const auto lib = RepeaterLibrary::uniform(2.0, 2.0, 5);
  const auto cands = net::uniform_candidates(n, 100.0);
  const auto r = run_chain_dp(n, device, lib, cands, power_options(50000.0));
  EXPECT_EQ(r.status, Status::kOptimal);
  EXPECT_TRUE(r.solution.empty());
  EXPECT_DOUBLE_EQ(r.total_width_u, 0.0);
  EXPECT_DOUBLE_EQ(r.delay_fs, 33000.0);
}

TEST(ChainDp, InfeasibleTargetReported) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const auto lib = RepeaterLibrary::uniform(2.0, 2.0, 5);
  const auto cands = net::uniform_candidates(n, 100.0);
  const auto r = run_chain_dp(n, device, lib, cands, power_options(100.0));
  EXPECT_EQ(r.status, Status::kInfeasible);
  EXPECT_TRUE(r.solution.empty());
  // Best-effort diagnostics still populated.
  EXPECT_GT(r.min_delay_fs, 0.0);
}

TEST(ChainDp, DelayBookkeepingMatchesIndependentEvaluator) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 6);
  const auto cands = net::uniform_candidates(n, 150.0);
  const double unbuffered = rc::elmore_delay_fs(n, {}, device);
  const auto r =
      run_chain_dp(n, device, lib, cands, power_options(unbuffered * 0.8));
  ASSERT_EQ(r.status, Status::kOptimal);
  ASSERT_FALSE(r.solution.empty());
  const double check = rc::elmore_delay_fs(n, r.solution, device);
  EXPECT_NEAR(r.delay_fs, check, 1e-6 * check);
  EXPECT_LE(check, unbuffered * 0.8 + 1.0);
  EXPECT_NEAR(r.total_width_u, r.solution.total_width_u(), 1e-12);
}

TEST(ChainDp, RespectsForbiddenZones) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 6);
  const auto cands = net::uniform_candidates(n, 100.0);
  for (const double pos : cands) {
    EXPECT_FALSE(n.in_forbidden_zone(pos));
  }
  const double unbuffered = rc::elmore_delay_fs(n, {}, device);
  const auto r =
      run_chain_dp(n, device, lib, cands, power_options(unbuffered * 0.7));
  if (r.status == Status::kOptimal) {
    EXPECT_TRUE(r.solution.legal_for(n));
  }
}

TEST(ChainDp, RejectsIllegalCandidates) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 3);
  EXPECT_THROW(
      run_chain_dp(n, device, lib, {500.0}, power_options(1000.0)),
      Error);  // 500 is inside the zone
  EXPECT_THROW(
      run_chain_dp(n, device, lib, {900.0, 300.0}, power_options(1000.0)),
      Error);  // unsorted
}

TEST(ChainDp, RequiresPositiveTarget) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 3);
  ChainDpOptions bad;
  bad.mode = Mode::kMinPower;
  bad.timing_target_fs = 0.0;
  EXPECT_THROW(run_chain_dp(n, device, lib, {}, bad), Error);
}

TEST(ChainDp, TighterTargetsNeedMoreWidth) {
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("mono")
                     .driver(10)
                     .receiver(5)
                     .segment(8000, 0.1, 0.2)
                     .build();
  const auto lib = RepeaterLibrary::uniform(5.0, 5.0, 8);
  const auto cands = net::uniform_candidates(n, 250.0);
  const double unbuffered = rc::elmore_delay_fs(n, {}, device);
  double prev_width = 1e18;
  for (const double factor : {0.45, 0.55, 0.7, 0.9}) {
    const auto r = run_chain_dp(n, device, lib, cands,
                                power_options(unbuffered * factor));
    ASSERT_EQ(r.status, Status::kOptimal) << "factor " << factor;
    EXPECT_LE(r.total_width_u, prev_width);
    prev_width = r.total_width_u;
  }
}

TEST(ChainDp, MinDelayModeMatchesPowerModeMinDelaySolution) {
  const auto device = test::simple_device();
  const auto n = test::two_segment_net_with_zone();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 6);
  const auto cands = net::uniform_candidates(n, 200.0);
  ChainDpOptions delay_opts;
  delay_opts.mode = Mode::kMinDelay;
  const auto rd = run_chain_dp(n, device, lib, cands, delay_opts);
  const auto rp = run_chain_dp(n, device, lib, cands,
                               power_options(1e9));  // very loose
  EXPECT_EQ(rd.status, Status::kOptimal);
  // Both sweeps discover the same minimum delay.
  EXPECT_NEAR(rd.delay_fs, rp.min_delay_fs, 1e-6 * rd.delay_fs);
  const double check = rc::elmore_delay_fs(n, rd.solution, device);
  EXPECT_NEAR(rd.delay_fs, check, 1e-6 * check);
}

TEST(ChainDp, StatsArePopulated) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const auto lib = RepeaterLibrary::uniform(4.0, 4.0, 4);
  const auto cands = net::uniform_candidates(n, 100.0);
  const auto r = run_chain_dp(n, device, lib, cands, power_options(30000.0));
  EXPECT_EQ(r.stats.positions, cands.size());
  EXPECT_GT(r.stats.labels_created, 0u);
  EXPECT_GT(r.stats.labels_peak, 0u);
}


TEST(ChainDp, AllowedBuffersRestrictsInsertion) {
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("mask")
                     .driver(10)
                     .receiver(5)
                     .segment(8000, 0.1, 0.2)
                     .build();
  const RepeaterLibrary lib({10.0, 20.0, 40.0});
  const std::vector<double> cands{2000.0, 4000.0, 6000.0};
  const double unbuffered = rc::elmore_delay_fs(n, {}, device);
  ChainDpOptions opts;
  opts.mode = Mode::kMinPower;
  opts.timing_target_fs = unbuffered * 0.6;

  // Unrestricted run for reference.
  const auto free_run = run_chain_dp(n, device, lib, cands, opts);
  ASSERT_EQ(free_run.status, Status::kOptimal);

  // Restrict: only width 40 at 4000 um, nothing elsewhere.
  std::vector<std::vector<std::int16_t>> allowed{{}, {2}, {}};
  opts.allowed_buffers = &allowed;
  const auto masked = run_chain_dp(n, device, lib, cands, opts);
  if (masked.status == Status::kOptimal) {
    for (const auto& rep : masked.solution.repeaters()) {
      EXPECT_DOUBLE_EQ(rep.position_um, 4000.0);
      EXPECT_DOUBLE_EQ(rep.width_u, 40.0);
    }
    // The restricted optimum cannot beat the free optimum.
    EXPECT_GE(masked.total_width_u, free_run.total_width_u - 1e-9);
  }
}

TEST(ChainDp, AllowedBuffersValidation) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const RepeaterLibrary lib({10.0});
  const std::vector<double> cands{500.0};
  ChainDpOptions opts;
  opts.mode = Mode::kMinPower;
  opts.timing_target_fs = 1e6;
  std::vector<std::vector<std::int16_t>> wrong_size;  // != candidates
  opts.allowed_buffers = &wrong_size;
  EXPECT_THROW(run_chain_dp(n, device, lib, cands, opts), Error);
  std::vector<std::vector<std::int16_t>> bad_index{{5}};
  opts.allowed_buffers = &bad_index;
  EXPECT_THROW(run_chain_dp(n, device, lib, cands, opts), Error);
}

TEST(ChainDp, EmptyMaskEverywhereMeansUnbuffered) {
  const auto device = test::simple_device();
  const auto n = test::single_segment_net();
  const RepeaterLibrary lib({10.0, 20.0});
  const std::vector<double> cands{300.0, 600.0};
  ChainDpOptions opts;
  opts.mode = Mode::kMinPower;
  opts.timing_target_fs = 50000.0;  // loose: unbuffered is 33000
  std::vector<std::vector<std::int16_t>> none{{}, {}};
  opts.allowed_buffers = &none;
  const auto r = run_chain_dp(n, device, lib, cands, opts);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_TRUE(r.solution.empty());
}
// The group staircase ranks labels by (q desc, w asc, frontier index
// asc), a total order: when two frontier labels expand to the same
// (q, w) under one buffer, the lower frontier index survives, however
// many unrelated labels share the group and wherever the width order
// puts the pair.
TEST(ChainDp, EqualExpansionsKeepTheLowerOrigin) {
  Workspace ws;
  ws.lib_load_ff = {3.0};
  ws.lib_rs_over_w = {1.0};
  const std::vector<double> cost{4.0};
  const std::vector<std::int16_t> allowed{0};
  std::mt19937 rng(17);
  for (int unrelated = 0; unrelated <= 300; unrelated += 10) {
    // Unrelated labels expand either faster and wider, or slower and
    // narrower, than the tied pair (q 90, w 9): none dominates the pair
    // or ties it.
    struct Entry {
      double cap, q, w;
      bool tied;
    };
    std::vector<Entry> entries;
    for (int k = 0; k < unrelated; ++k) {
      const double d = 1.0 + k;
      entries.push_back(k % 2 == 0 ? Entry{d, 100.0 + 2 * d, 5.0 + d, false}
                                   : Entry{d, 90.0, 5.0 - d / 1e3, false});
    }
    std::shuffle(entries.begin(), entries.end(), rng);
    // Two labels that expand to exactly (90, 9): q - 1.0 * cap, w + 4.
    const auto first = static_cast<std::size_t>(
        std::uniform_int_distribution<int>(0, unrelated)(rng));
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(first),
                   Entry{10.0, 100.0, 5.0, true});
    const auto second = static_cast<std::size_t>(
        std::uniform_int_distribution<int>(static_cast<int>(first) + 1,
                                           unrelated + 1)(rng));
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(second),
                   Entry{20.0, 110.0, 5.0, true});
    ChainFrontier front;
    for (const Entry& e : entries) front.push(e.cap, e.q, e.w, 0, -1);

    kernel::expand_candidate(ws, front,
                             kernel::width_order(front, ws.width_order),
                             allowed, cost, 0.0, true);
    int tied = 0;
    for (const ExpandLabel& g : ws.expanded) {
      if (g.q_fs == 90.0 && g.width_u == 9.0) {
        ++tied;
        EXPECT_EQ(g.origin, static_cast<std::int32_t>(first))
            << unrelated << " unrelated labels";
      }
    }
    EXPECT_EQ(tied, 1) << unrelated << " unrelated labels";
  }
}

// The group staircase as a sort computes it: drop what the bounds
// reject, sort by (q desc, w asc, frontier index asc), keep each label
// whose width strictly undercuts every label before it.
std::vector<ExpandLabel> sorted_staircase(
    const Workspace& ws, const ChainFrontier& front,
    const std::vector<std::int16_t>& allowed, const std::vector<double>& cost,
    double intrinsic_fs, const kernel::LabelBounds* bounds) {
  struct Entry {
    double q, w;
    std::int32_t origin;
  };
  std::vector<ExpandLabel> out;
  for (const std::int16_t b : allowed) {
    const auto bi = static_cast<std::size_t>(b);
    std::vector<Entry> group;
    for (std::size_t i = 0; i < front.size(); ++i) {
      const double up_q = front.q_fs[i] - (intrinsic_fs + ws.lib_rs_over_w[bi] *
                                                              front.cap_ff[i]);
      const double up_w = front.width_u[i] + cost[bi];
      if (bounds != nullptr && !bounds->admits(up_q, up_w)) continue;
      group.push_back(Entry{up_q, up_w, static_cast<std::int32_t>(i)});
    }
    std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& c) {
      if (a.q != c.q) return a.q > c.q;
      if (a.w != c.w) return a.w < c.w;
      return a.origin < c.origin;
    });
    double min_w = std::numeric_limits<double>::infinity();
    for (const Entry& e : group) {
      if (e.w < min_w) {
        min_w = e.w;
        out.push_back(ExpandLabel{ws.lib_load_ff[bi], e.q, e.w, e.origin, b});
      }
    }
  }
  return out;
}

// expand_candidate's linear sweep along the width order keeps exactly the
// sorted staircase's survivors, in the same order, on seeded frontiers
// full of ties: values come from small grids, and some widths are x and
// nextafter(x), which add up to the same w + w_b. Every case runs with
// and without bounds, and with the order's equal-width runs as the
// helper sorts them and reversed.
TEST(ChainDp, LinearGroupSweepEqualsTheSortedStaircase) {
  constexpr int kLibrary = 12;
  std::mt19937_64 rng(2005);
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  Workspace ws;
  std::size_t admitted = 0;
  std::size_t offered = 0;
  for (int c = 0; c < 300; ++c) {
    ws.lib_load_ff.clear();
    ws.lib_rs_over_w.clear();
    std::vector<double> cost;
    for (int b = 0; b < kLibrary; ++b) {
      ws.lib_load_ff.push_back(2.0 * (b + 1));
      ws.lib_rs_over_w.push_back(0.25 * (1 + pick(4)));
      cost.push_back(b % 3 == 0 ? 1000.0 * (b + 1) : 4.0 * (1 + pick(8)));
    }
    std::vector<std::int16_t> allowed;
    while (allowed.empty()) {
      for (int b = 0; b < kLibrary; ++b) {
        if (pick(3) == 0) allowed.push_back(static_cast<std::int16_t>(b));
      }
    }
    const int n = 1 + pick(400);
    ChainFrontier front;
    for (int i = 0; i < n; ++i) {
      double w = 1.0 + pick(12);
      if (pick(4) == 0) w = std::nextafter(w, 100.0);
      front.push(1.0 + pick(8), -10.0 * pick(20), w, 0, -1);
    }
    const double intrinsic_fs = 5.0 * pick(2);

    // Bounds at the 30th q percentile and the 70th cost percentile of the
    // case's expansions: together they cut about half.
    std::vector<double> up_q;
    std::vector<double> up_w;
    for (const std::int16_t b : allowed) {
      const auto bi = static_cast<std::size_t>(b);
      for (std::size_t i = 0; i < front.size(); ++i) {
        up_q.push_back(front.q_fs[i] -
                       (intrinsic_fs + ws.lib_rs_over_w[bi] * front.cap_ff[i]));
        up_w.push_back(front.width_u[i] + cost[bi]);
      }
    }
    std::vector<double> q_rank = up_q;
    std::vector<double> w_rank = up_w;
    std::sort(q_rank.begin(), q_rank.end());
    std::sort(w_rank.begin(), w_rank.end());
    const kernel::LabelBounds bounds{-q_rank[q_rank.size() * 3 / 10],
                                     w_rank[w_rank.size() * 7 / 10]};
    for (std::size_t k = 0; k < up_q.size(); ++k) {
      admitted += bounds.admits(up_q[k], up_w[k]) ? 1 : 0;
    }
    offered += up_q.size();

    std::vector<std::int32_t> sorted;
    kernel::width_order(front, sorted);
    std::vector<std::int32_t> reversed = sorted;
    for (std::size_t lo = 0; lo < reversed.size();) {
      std::size_t hi = lo + 1;
      while (hi < reversed.size() &&
             front.width_u[static_cast<std::size_t>(reversed[hi])] ==
                 front.width_u[static_cast<std::size_t>(reversed[lo])]) {
        ++hi;
      }
      std::reverse(reversed.begin() + static_cast<std::ptrdiff_t>(lo),
                   reversed.begin() + static_cast<std::ptrdiff_t>(hi));
      lo = hi;
    }

    for (const kernel::LabelBounds* b :
         {static_cast<const kernel::LabelBounds*>(nullptr), &bounds}) {
      const std::vector<ExpandLabel> want =
          sorted_staircase(ws, front, allowed, cost, intrinsic_fs, b);
      for (const auto* order : {&sorted, &reversed}) {
        kernel::expand_candidate(ws, front, *order, allowed, cost,
                                 intrinsic_fs, true, b);
        ASSERT_EQ(ws.expanded.size(), want.size()) << "case " << c;
        for (std::size_t k = 0; k < want.size(); ++k) {
          const ExpandLabel& got = ws.expanded[k];
          EXPECT_EQ(got.cap_ff, want[k].cap_ff) << "case " << c << " #" << k;
          EXPECT_EQ(got.q_fs, want[k].q_fs) << "case " << c << " #" << k;
          EXPECT_EQ(got.width_u, want[k].width_u) << "case " << c << " #" << k;
          EXPECT_EQ(got.origin, want[k].origin) << "case " << c << " #" << k;
          EXPECT_EQ(got.buffer, want[k].buffer) << "case " << c << " #" << k;
        }
      }
    }
  }
  const double kept =
      static_cast<double>(admitted) / static_cast<double>(offered);
  EXPECT_GT(kept, 0.3);
  EXPECT_LT(kept, 0.7);
}

// Incumbent 0 on a net that needs repeaters: every repeater label costs
// more and the unbuffered label misses the target, so the bounds empty
// the frontier. That is an infeasible answer, not a lost-labels assert.
TEST(ChainDp, BoundedSolveThatDropsEveryLabelIsInfeasible) {
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("needs_repeaters")
                     .driver(10)
                     .receiver(5)
                     .segment(8000, 0.1, 0.2)
                     .build();
  const auto lib = RepeaterLibrary::uniform(5.0, 5.0, 8);
  const auto cands = net::uniform_candidates(n, 250.0);
  const auto opts = power_options(0.45 * rc::elmore_delay_fs(n, {}, device));
  const auto unbounded = run_chain_dp(n, device, lib, cands, opts);
  ASSERT_EQ(unbounded.status, Status::kOptimal);
  ASSERT_FALSE(unbounded.solution.empty());

  Workspace ws;
  const auto r = run_chain_dp_bounded(n, device, lib, cands, opts, 0.0, ws);
  EXPECT_EQ(r.status, Status::kInfeasible);
  EXPECT_TRUE(r.solution.empty());
  EXPECT_TRUE(r.min_delay_solution.empty());
  // Every label created was dropped: the frontier ended empty.
  EXPECT_EQ(r.stats.labels_pruned, r.stats.labels_created);
}

// ------------------------------------------------------------- min delay

TEST(MinDelay, BufferedBeatsUnbufferedOnLongNets) {
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("long")
                     .driver(10)
                     .receiver(5)
                     .segment(10000, 0.1, 0.2)
                     .build();
  MinDelayOptions opts;
  opts.min_width_u = 5.0;
  opts.max_width_u = 100.0;
  opts.granularity_u = 5.0;
  opts.pitch_um = 250.0;
  const auto r = min_delay(n, device, opts);
  EXPECT_LT(r.tau_min_fs, r.unbuffered_delay_fs);
  EXPECT_FALSE(r.solution.empty());
}

TEST(MinDelay, ShortNetNeedsNoRepeaters) {
  const auto device = test::simple_device();
  const auto n = net::NetBuilder("short")
                     .driver(50)
                     .receiver(5)
                     .segment(100, 0.1, 0.2)
                     .build();
  const auto r = min_delay(n, device, {5.0, 100.0, 5.0, 25.0});
  EXPECT_TRUE(r.solution.empty());
  EXPECT_DOUBLE_EQ(r.tau_min_fs, r.unbuffered_delay_fs);
}

}  // namespace
}  // namespace rip::dp

#pragma once

/// @file test_helpers.hpp
/// Shared fixtures for the test suite: canonical nets and devices small
/// enough to reason about by hand, random-net helpers for the property
/// sweeps, and the kernels' dominance filter for the pruning tests.

#include <algorithm>
#include <vector>

#include "dp/pareto.hpp"
#include "net/generator.hpp"
#include "net/net.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"

namespace rip::test {

/// A device with round numbers so expected delays are hand-computable:
/// R_s = 1000 Ohm, C_o = 2 fF, C_p = 1 fF.
inline tech::RepeaterDevice simple_device() {
  tech::RepeaterDevice d;
  d.rs_ohm = 1000.0;
  d.co_ff = 2.0;
  d.cp_ff = 1.0;
  d.min_width_u = 1.0;
  d.max_width_u = 1000.0;
  return d;
}

/// One uniform segment: 1000 um at 0.1 Ohm/um and 0.2 fF/um
/// (R = 100 Ohm, C = 200 fF), driver 10u, receiver 5u.
inline net::Net single_segment_net() {
  return net::NetBuilder("single")
      .driver(10.0)
      .receiver(5.0)
      .segment(1000.0, 0.1, 0.2, "m4")
      .build();
}

/// Two segments with distinct RC and a forbidden zone in the middle of
/// the first segment.
inline net::Net two_segment_net_with_zone() {
  return net::NetBuilder("two_zone")
      .driver(10.0)
      .receiver(5.0)
      .segment(1000.0, 0.1, 0.2, "m4")
      .segment(2000.0, 0.05, 0.3, "m5")
      .zone(400.0, 700.0)
      .build();
}

/// A paper-scale random net drawn from the Section 6 population.
inline net::Net paper_net(std::uint64_t seed) {
  const tech::Technology tech = tech::make_tech180();
  net::RandomNetConfig config;
  Rng rng(seed);
  return net::random_net(tech, config, rng, "pnet");
}

/// A label for the dominance tests: (C, q, w) and a tag naming it.
struct TestLabel {
  double cap_ff = 0;
  double q_fs = 0;
  double width_u = 0;
  int tag = 0;
};

/// The labels the kernels' power-mode dominance filter keeps
/// (kernel::merge_candidate): offered in (C asc, q desc, w asc) order,
/// ties in input order, to a dp::FlatFrontier staircase. Survivors come
/// out in that order.
inline std::vector<TestLabel> staircase_survivors(
    std::vector<TestLabel> labels) {
  std::stable_sort(labels.begin(), labels.end(),
                   [](const TestLabel& a, const TestLabel& b) {
                     if (a.cap_ff != b.cap_ff) return a.cap_ff < b.cap_ff;
                     if (a.q_fs != b.q_fs) return a.q_fs > b.q_fs;
                     return a.width_u < b.width_u;
                   });
  dp::FlatFrontier frontier;
  std::vector<TestLabel> kept;
  for (const TestLabel& l : labels) {
    if (frontier.try_insert(l.q_fs, l.width_u)) kept.push_back(l);
  }
  return kept;
}

}  // namespace rip::test

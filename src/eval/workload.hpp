#pragma once

/// @file workload.hpp
/// The experimental workload of Section 6: a population of random
/// two-pin nets (4-10 segments of 1000-2500 um on metal4/metal5, one
/// forbidden zone of 20-40% of the length), each designed 20 times with
/// timing targets from 1.05*tau_min to 2.05*tau_min.

#include <cstdint>
#include <vector>

#include "dp/min_delay.hpp"
#include "net/generator.hpp"
#include "net/net.hpp"
#include "tech/technology.hpp"

namespace rip::eval {

/// A generated net plus its minimum achievable delay.
struct WorkloadNet {
  net::Net net;
  double tau_min_fs = 0;
};

/// Deterministic workload: `net_count` nets drawn from `config` with
/// per-net seeds derived from `seed`, each with tau_min computed via the
/// delay-mode DP (dp::min_delay) on `min_delay`'s grid.
///
/// The per-net generators are split off the master seed serially, then
/// the per-net tau_min solves fan out over `jobs` worker threads
/// (util::parallel_for_indexed); any job count yields the same workload
/// bit for bit. jobs=1 is the serial path, 0 = all hardware threads.
std::vector<WorkloadNet> make_paper_workload(
    const tech::Technology& tech, int net_count = 20,
    std::uint64_t seed = 2005,
    const net::RandomNetConfig& config = {},
    const dp::MinDelayOptions& min_delay = {},
    int jobs = 1);

/// The paper's target sweep: `count` evenly spaced multipliers from
/// `lo_factor` to `hi_factor` (inclusive) applied to tau_min.
std::vector<double> timing_targets_fs(double tau_min_fs, int count = 20,
                                      double lo_factor = 1.05,
                                      double hi_factor = 2.05);

}  // namespace rip::eval

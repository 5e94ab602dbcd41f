#pragma once

// Seeded input generation for the benchmark workloads. Every input is
// a function of the --seed argument alone; the program under test only
// ever sees the generated nets and netlist files.
//
// Variance control. A paper-workload net's solve cost grows roughly as
// the cube of its length, so a 20-net draw can cost twice another.
// Left alone, that luck of the draw would swamp any code change in the
// case rate. The generators below therefore condition each draw on a
// purely geometric work proxy (never on solver output, so a change to
// the solver cannot change the inputs): table 1 takes, among several
// derived seeds, a draw whose total proxy lies near the population
// median and is spread evenly over its nets; the retarget stream keeps
// the nets of a larger pool whose candidate count lies nearest the
// population median.

#include <cstdint>
#include <string>
#include <vector>

#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"

namespace ripbench {

/// Seed of the fixed warm-up inputs every workload runs during set-up,
/// so set-up work does not vary with --seed.
inline constexpr std::uint64_t kWarmUpSeed = 2005;

/// splitmix64 of (seed, stream, k): independent derived seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t k);

/// Candidate-location count of a net at the paper's 200 um pitch,
/// from its geometry alone: (length - forbidden length) / 200 um.
double candidate_count(const rip::net::Net& net);

/// Seeds for `sweeps` Table 1 sweeps of `nets` nets each. Sweep d tries
/// 64 derived seeds. Of those whose summed proxy candidate_count^2.78
/// (the fitted per-net cost exponent) is within 3% of the population
/// median, it keeps the one whose proxy is least concentrated in a few
/// nets (smallest sum of squares over square of sum): a draw dominated
/// by one huge net varies most from run to run, through that net's cost
/// and through the scheduler tail it leaves. With no draw within 3%,
/// the nearest one. Every run thus carries about the same work. Input
/// generation runs serially (jobs = 1) so set-up time is steady.
std::vector<std::uint64_t> balanced_table1_seeds(
    const rip::tech::Technology& tech, std::uint64_t seed, int sweeps,
    int nets);

/// `count` paper-workload nets (with tau_min) for the retarget stream:
/// the nets of a 4x larger make_paper_workload pool whose candidate
/// count is nearest the population median, in pool order.
std::vector<rip::eval::WorkloadNet> retarget_nets(
    const rip::tech::Technology& tech, std::uint64_t seed, int count);

/// Write `nets` x `targets` records target-major: every net at its first
/// stored target (1.05 tau_min), then every net at the second, ... up to
/// 2.05 tau_min. Returns the record count.
std::uint64_t write_retarget_netlist(
    const std::string& path, const std::vector<rip::eval::WorkloadNet>& nets,
    int targets, rip::net::NetlistFormat format);

/// Write `count` small nets (2-4 segments of 200-700 um, sometimes one
/// forbidden zone) with stored targets of 3x the unbuffered Elmore
/// delay. RIP's coarse stage inserts no repeater on these, so a case is
/// cheap and the stream machinery dominates. Returns the record count.
std::uint64_t write_small_netlist(const rip::tech::Technology& tech,
                                  const std::string& path,
                                  std::uint64_t count, std::uint64_t seed,
                                  rip::net::NetlistFormat format);

}  // namespace ripbench

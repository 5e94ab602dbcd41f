#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "rc/buffered_chain.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ripbench {

namespace {

using namespace rip;

/// Median over 2000 default 20-net paper workloads (seeds 1..2000) of
/// the summed candidate_count^kCostExponent, and of candidate_count
/// per net. Both depend only on the net generator's geometry.
constexpr double kCostExponent = 2.78;
constexpr double kMedianTable1Proxy = 855508.0;
constexpr double kMedianCandidates = 42.46;

constexpr dp::MinDelayOptions kTauMinOptions{10.0, 400.0, 10.0, 200.0};

/// One small random net: 2-4 segments of 200..700 um on paper-like RC,
/// occasionally a forbidden zone.
net::Net small_net(Rng& rng, std::uint64_t index) {
  const int segment_count = rng.uniform_int(2, 4);
  std::vector<net::Segment> segments;
  double total_um = 0;
  for (int s = 0; s < segment_count; ++s) {
    net::Segment seg;
    seg.length_um = rng.uniform(200.0, 700.0);
    seg.r_ohm_per_um = rng.uniform(0.08, 0.12);
    seg.c_ff_per_um = rng.uniform(0.18, 0.25);
    seg.layer = rng.bernoulli(0.5) ? "metal4" : "metal5";
    total_um += seg.length_um;
    segments.push_back(std::move(seg));
  }
  std::vector<net::ForbiddenZone> zones;
  if (rng.bernoulli(0.2)) {
    const double start = rng.uniform(0.1, 0.6) * total_um;
    zones.push_back(net::ForbiddenZone{start, start + 0.15 * total_um});
  }
  std::string name = "s";
  name += std::to_string(index);
  return net::Net(std::move(name), rng.uniform(80.0, 160.0),
                  rng.uniform(40.0, 80.0), std::move(segments),
                  std::move(zones));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    k * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double candidate_count(const net::Net& net) {
  double blocked = 0;
  for (const auto& z : net.zones()) blocked += z.length_um();
  return (net.total_length_um() - blocked) / 200.0;
}

std::vector<std::uint64_t> balanced_table1_seeds(
    const tech::Technology& tech, std::uint64_t seed, int sweeps, int nets) {
  constexpr int kCandidates = 64;
  constexpr double kTolerance = 0.03;
  std::vector<std::uint64_t> chosen;
  for (int d = 0; d < sweeps; ++d) {
    std::uint64_t nearest = 0;
    double nearest_gap = INFINITY;
    std::uint64_t best = 0;
    double best_concentration = INFINITY;
    for (int k = 0; k < kCandidates; ++k) {
      // Table1Config::seed is the workload seed run_table1 hands to
      // make_paper_workload; keep it positive and readable.
      const std::uint64_t candidate =
          derive_seed(seed, static_cast<std::uint64_t>(d),
                      static_cast<std::uint64_t>(k)) >> 33;
      const auto workload =
          eval::make_paper_workload(tech, nets, candidate, {}, kTauMinOptions);
      double sum = 0;
      double sum_sq = 0;
      for (const auto& wn : workload) {
        const double w = std::pow(candidate_count(wn.net), kCostExponent);
        sum += w;
        sum_sq += w * w;
      }
      const double gap = std::abs(sum * 20.0 / nets / kMedianTable1Proxy - 1.0);
      if (gap < nearest_gap) {
        nearest_gap = gap;
        nearest = candidate;
      }
      const double concentration = sum_sq / (sum * sum);
      if (gap <= kTolerance && concentration < best_concentration) {
        best_concentration = concentration;
        best = candidate;
      }
    }
    chosen.push_back(best_concentration < INFINITY ? best : nearest);
  }
  return chosen;
}

std::vector<eval::WorkloadNet> retarget_nets(const tech::Technology& tech,
                                             std::uint64_t seed, int count) {
  auto pool = eval::make_paper_workload(
      tech, 4 * count, derive_seed(seed, 100, 0) >> 33, {}, kTauMinOptions);
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return std::abs(candidate_count(pool[a].net) -
                                     kMedianCandidates) <
                            std::abs(candidate_count(pool[b].net) -
                                     kMedianCandidates);
                   });
  order.resize(static_cast<std::size_t>(count));
  std::sort(order.begin(), order.end());
  std::vector<eval::WorkloadNet> nets;
  for (const std::size_t i : order) nets.push_back(std::move(pool[i]));
  return nets;
}

std::uint64_t write_retarget_netlist(
    const std::string& path, const std::vector<eval::WorkloadNet>& nets,
    int targets, net::NetlistFormat format) {
  std::vector<std::vector<double>> per_net;
  for (const auto& wn : nets) {
    per_net.push_back(eval::timing_targets_fs(wn.tau_min_fs, targets));
  }
  net::NetlistWriter writer(path, format);
  for (int t = 0; t < targets; ++t) {
    for (std::size_t i = 0; i < nets.size(); ++i) {
      writer.add(nets[i].net, per_net[i][static_cast<std::size_t>(t)]);
    }
  }
  writer.close();
  return writer.count();
}

std::uint64_t write_small_netlist(const tech::Technology& tech,
                                  const std::string& path,
                                  std::uint64_t count, std::uint64_t seed,
                                  net::NetlistFormat format) {
  Rng rng(derive_seed(seed, 200, 0));
  net::NetlistWriter writer(path, format);
  for (std::uint64_t i = 0; i < count; ++i) {
    const net::Net n = small_net(rng, i);
    const double unbuffered =
        rc::elmore_delay_fs(n, net::RepeaterSolution{}, tech.device());
    writer.add(n, 3.0 * unbuffered);
  }
  writer.close();
  return writer.count();
}

}  // namespace ripbench

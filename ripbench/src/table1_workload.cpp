// Workload "table1": the paper's Table 1 sweep through eval::run_table1
// — 20 make_paper_workload nets x 20 targets in [1.05, 2.05] tau_min,
// RIP against the DP baseline at g in {10u, 20u, 40u}, no cache. One
// timed unit is three sweeps over three balanced workload draws (see
// inputs.hpp): one sweep is too short to average out run-to-run noise
// of the scheduler and the machine. The cold baseline DP is most of a
// case here.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/workload.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace ripbench {

namespace {

using namespace rip;

constexpr int kSweeps = 3;
constexpr int kNets = 20;
constexpr int kTargets = 20;

struct Table1Setup {
  std::vector<eval::Table1Config> configs;
  std::vector<std::vector<eval::WorkloadNet>> workloads;
  double tau_min_s = 0;
};

/// Balanced seeds, the workloads run_table1 will regenerate (kept for
/// the traced mirror and the certificates), and one warm-up sweep of a
/// fixed single net at two targets so the scheduler and the per-thread
/// DP workspaces exist before timing starts.
Table1Setup setup_table1(const tech::Technology& tech,
                         const RunOptions& options) {
  Table1Setup setup;
  for (const std::uint64_t seed :
       balanced_table1_seeds(tech, options.seed, kSweeps, kNets)) {
    eval::Table1Config config;
    config.net_count = kNets;
    config.targets_per_net = kTargets;
    config.seed = seed;
    config.jobs = options.jobs;
    setup.configs.push_back(config);
    const std::int64_t begin = now_ns();
    setup.workloads.push_back(eval::make_paper_workload(
        tech, kNets, seed, {}, {10.0, 400.0, 10.0, 200.0}));
    setup.tau_min_s += seconds_between(begin, now_ns());
  }
  eval::Table1Config warm = setup.configs.front();
  warm.net_count = 1;
  warm.targets_per_net = 2;
  warm.seed = kWarmUpSeed;
  eval::run_table1(tech, warm);
  return setup;
}

std::uint64_t cells_hash(const eval::Table1Result& r) {
  Fnv1a h;
  const auto add_row = [&](const eval::Table1Row& row) {
    h.add(row.net_name);
    h.add(&row.rip_violations, sizeof(row.rip_violations));
    for (const auto& c : row.cells) {
      h.add_double(c.delta_max_pct);
      h.add_double(c.delta_mean_pct);
      h.add(&c.dp_violations, sizeof(c.dp_violations));
      h.add(&c.compared, sizeof(c.compared));
    }
  };
  for (const auto& row : r.rows) add_row(row);
  add_row(r.average);
  return h.value();
}

void add_outcomes(const eval::Table1Result& r, Outcomes& o) {
  for (const auto& row : r.rows) {
    o.cases += kTargets;
    o.rip_feasible += static_cast<std::uint64_t>(kTargets - row.rip_violations);
    for (const auto& c : row.cells) {
      o.compared += static_cast<std::uint64_t>(c.compared);
      o.power_ratio_sum += c.compared * (1.0 - c.delta_mean_pct / 100.0);
    }
  }
}

std::vector<core::BaselineOptions> baselines(const eval::Table1Config& c) {
  std::vector<core::BaselineOptions> out;
  for (const double g : c.granularities_u) {
    out.push_back(core::BaselineOptions::uniform_library(
        c.baseline_min_width_u, g, c.baseline_library_size, c.pitch_um));
  }
  return out;
}

/// Certify a spread of direct rip_insert + run_baseline solves (every
/// granularity) and check that RIP reaches stage 3 on most of them.
void check_samples(const tech::Technology& tech, const Table1Setup& setup,
                   RunResult& result) {
  constexpr std::size_t kSamples = 16;
  std::vector<std::string> problems(kSamples);
  std::vector<char> final_ran(kSamples, 0);
  parallel_for_indexed(kSamples, setup.configs.front().jobs,
                       [&](std::size_t k) {
    const std::size_t d = k % setup.workloads.size();
    const auto& wn = setup.workloads[d][(k * 7) % kNets];
    const double tau =
        eval::timing_targets_fs(wn.tau_min_fs, kTargets)[(k * 3) % kTargets];
    const auto rip = core::rip_insert(wn.net, tech.device(), tau);
    final_ran[k] = reached_stage3(rip);
    std::string why;
    if (rip.status == dp::Status::kOptimal) {
      why = certify(wn.net, rip.solution, rip.total_width_u, tau,
                    tech.device());
    } else {
      why = "RIP infeasible";
    }
    for (const auto& b : baselines(setup.configs[d])) {
      const auto dp = core::run_baseline(wn.net, tech.device(), tau, b);
      if (why.empty() && dp.status == dp::Status::kOptimal) {
        why = certify(wn.net, dp.solution, dp.total_width_u, tau,
                      tech.device());
      }
    }
    if (!why.empty()) problems[k] = wn.net.name() + ": " + why;
  });
  report_certificates(problems, result);
  check_stage3(static_cast<std::size_t>(
                   std::count(final_ran.begin(), final_ran.end(), 1)),
               kSamples, result);
}

void run_timed(const tech::Technology& tech, const RunOptions& options,
               const Table1Setup& setup, const std::vector<double>& setup_s,
               RunResult& result) {
  std::vector<std::uint64_t> first_hashes;
  Outcomes outcomes;
  const auto rates = run_timed_units(
      options.seconds,
      [&] {
        std::vector<eval::Table1Result> tables;
        const std::int64_t begin = now_ns();
        for (const auto& config : setup.configs) {
          tables.push_back(eval::run_table1(tech, config));
        }
        const double seconds = seconds_between(begin, now_ns());
        std::vector<std::uint64_t> hashes;
        for (const auto& t : tables) hashes.push_back(cells_hash(t));
        if (first_hashes.empty()) {
          first_hashes = hashes;
          for (const auto& t : tables) add_outcomes(t, outcomes);
        } else if (hashes != first_hashes) {
          result.fail("Table 1 cells differ between repeats of one sweep");
        }
        return UnitTiming{static_cast<std::uint64_t>(kSweeps) * kNets * kTargets,
                          seconds};
      },
      result.attempted);

  if (outcomes.rip_feasible != outcomes.cases) {
    result.fail("RIP violated " +
                std::to_string(outcomes.cases - outcomes.rip_feasible) +
                " timing targets");
  }
  check_samples(tech, setup, result);
  for (std::size_t d = 0; d < first_hashes.size(); ++d) {
    result.hash("table1.cells." + std::to_string(d), first_hashes[d]);
  }
  report_end_to_end(rates, setup_s, outcomes, result);
}

/// The traced pass: the same solves run_table1 performs, in its order
/// (every RIP case, then every baseline case, each over the scheduler),
/// each call in a span and every solution certified. The mirrored
/// outcomes go through eval::merge_table1_shards and must give cells
/// identical to an untraced eval::run_table1.
void run_traced(const tech::Technology& tech, const RunOptions& options,
                const Table1Setup& setup, RunResult& result,
                LayerSamples& samples) {
  // Scheduler phases [begin, end): every RIP case, then every baseline
  // case, of each sweep.
  std::vector<std::pair<std::int64_t, std::int64_t>> phases;
  const auto run_phase = [&](std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
    const std::int64_t begin = now_ns();
    parallel_for_indexed(count, options.jobs, fn);
    phases.emplace_back(begin, now_ns());
  };
  for (std::size_t d = 0; d < setup.configs.size(); ++d) {
    const auto& config = setup.configs[d];
    const auto& workload = setup.workloads[d];
    const auto bases = baselines(config);
    std::vector<std::vector<double>> targets;
    for (const auto& wn : workload) {
      targets.push_back(eval::timing_targets_fs(wn.tau_min_fs, kTargets));
    }
    const std::size_t rip_n = workload.size() * kTargets;
    const std::size_t dp_n = rip_n * bases.size();
    std::vector<RipSample> rip_samples(rip_n);
    std::vector<BaselineSample> dp_samples(dp_n);
    eval::Table1Shard shard;
    for (const auto& wn : workload) shard.net_names.push_back(wn.net.name());
    shard.rip.resize(rip_n);
    shard.dp.resize(dp_n);
    std::vector<std::string> why(rip_n + dp_n);

    run_phase(rip_n, [&](std::size_t k) {
      const auto& wn = workload[k / kTargets];
      const double tau = targets[k / kTargets][k % kTargets];
      const auto r = traced_rip(wn.net, tech.device(), tau, config.rip,
                                nullptr, k, rip_samples[k]);
      const bool ok = r.status == dp::Status::kOptimal;
      shard.rip[k] = {ok, r.total_width_u};
      if (ok) {
        why[k] = certify(wn.net, r.solution, r.total_width_u, tau,
                         tech.device());
      }
    });
    run_phase(dp_n, [&](std::size_t k) {
      const std::size_t ni = k / (bases.size() * kTargets);
      const std::size_t gi = (k / kTargets) % bases.size();
      const double tau = targets[ni][k % kTargets];
      const auto r = traced_baseline(workload[ni].net, tech.device(), tau,
                                     bases[gi], nullptr, rip_n + k,
                                     dp_samples[k]);
      const bool ok = r.status == dp::Status::kOptimal;
      shard.dp[k] = {ok, r.total_width_u};
      if (ok) {
        why[rip_n + k] = certify(workload[ni].net, r.solution,
                                 r.total_width_u, tau, tech.device());
      }
    });

    report_certificates(why, result);
    samples.rip.insert(samples.rip.end(), rip_samples.begin(),
                       rip_samples.end());
    samples.baseline.insert(samples.baseline.end(), dp_samples.begin(),
                            dp_samples.end());
    result.attempted += rip_n;

    const auto mirrored = eval::merge_table1_shards(config, {&shard, 1});
    const auto reference = eval::run_table1(tech, config);
    const std::uint64_t h = cells_hash(mirrored);
    result.hash("table1.cells." + std::to_string(d), h);
    if (h != cells_hash(reference)) {
      result.fail("traced Table 1 cells differ from eval::run_table1");
    }
    for (const auto& row : mirrored.rows) {
      if (row.rip_violations != 0) {
        result.fail("RIP violated a timing target on " + row.net_name);
      }
    }
  }
  // Coverage: solve spans over jobs x phase wall. Split the rest into
  // the time each worker sat idle after its last solve of a phase (load
  // imbalance at the phase's end) and the gaps between solves.
  double capacity = 0;
  double busy = 0;
  double tail = 0;
  for (const auto& [begin, end] : phases) {
    capacity += seconds_between(begin, end) * options.jobs;
    std::map<std::uint32_t, std::int64_t> last_end;
    Tracer::global().for_each([&](std::uint32_t thread, const Span& s) {
      if (s.parent != -1 || s.begin_ns < begin || s.end_ns > end) return;
      busy += seconds_between(s.begin_ns, s.end_ns);
      last_end[thread] = std::max(last_end[thread], s.end_ns);
    });
    for (const auto& [thread, last] : last_end) {
      tail += seconds_between(last, end);
    }
    const auto jobs = static_cast<std::size_t>(options.jobs);
    if (last_end.size() < jobs) {  // workers that ran no solve at all
      tail += seconds_between(begin, end) *
              static_cast<double>(jobs - last_end.size());
    }
  }
  samples.coverage = busy / capacity;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "worker idle after its last solve of a scheduler phase "
                "(%.1f%%) and between solves (%.1f%%)",
                100 * tail / capacity,
                100 * (capacity - busy - tail) / capacity);
  samples.remainder = buf;
}

}  // namespace

RunResult run_table1_workload(const RunOptions& options) {
  const tech::Technology tech = tech::make_tech180();
  RunResult result;
  result.set("sweeps", std::to_string(kSweeps));
  result.set("nets_per_sweep", std::to_string(kNets));
  result.set("targets_per_net", std::to_string(kTargets));
  result.set("granularities_u", "10,20,40");
  result.set("cache", "off");

  std::vector<double> setup_s;
  Table1Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t begin = now_ns();
    setup = setup_table1(tech, options);
    setup_s.push_back(seconds_between(begin, now_ns()));
  }
  std::string seeds;
  for (const auto& c : setup.configs) {
    if (!seeds.empty()) seeds += ',';
    seeds += std::to_string(c.seed);
  }
  result.set("table1_seeds", seeds);

  if (!options.trace) {
    run_timed(tech, options, setup, setup_s, result);
    return result;
  }
  LayerSamples samples;
  samples.tau_min_s = setup.tau_min_s;
  run_traced(tech, options, setup, result, samples);
  check_stage3(stage3_count(samples.rip), samples.rip.size(), result);
  report_layers(samples, result);
  check_coverage(samples, result);
  return result;
}

}  // namespace ripbench

#include "eval/experiments.hpp"

#include <cmath>

#include "dp/workspace.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

namespace rip::eval {

CaseResult run_case(const net::Net& net, const tech::Technology& tech,
                    double tau_t_fs, const core::RipOptions& rip_options,
                    const core::BaselineOptions& baseline_options,
                    const SolveContext& context) {
  dp::Workspace& ws = dp::Workspace::local();
  CaseResult out;
  out.tau_t_fs = tau_t_fs;

  // Injected worker faults, keyed by the case's stable identity so the
  // same cases fault at any job count: a latency spike first (so a
  // spike can push a deadlined case over its budget), then an error.
  fire_fault("solve.delay", context.fault_key);
  fire_fault("solve.err", context.fault_key);
  const Deadline* deadline = context.deadline;
  if (deadline != nullptr) deadline->check("case start");

  WallTimer timer;
  const core::RipResult rip =
      core::rip_insert(net, tech.device(), tau_t_fs, rip_options, ws,
                       context.cache, context.backend);
  out.rip_runtime_s = timer.seconds();
  out.rip_feasible = rip.status == dp::Status::kOptimal;
  out.rip_width_u = rip.total_width_u;

  if (deadline != nullptr) deadline->check("between RIP and baseline");

  timer.reset();
  const dp::ChainDpResult dp =
      core::run_baseline(net, tech.device(), tau_t_fs, baseline_options, ws,
                         context.cache, context.backend);
  out.dp_runtime_s = timer.seconds();
  out.dp_feasible = dp.status == dp::Status::kOptimal;
  out.dp_width_u = dp.total_width_u;

  if (out.rip_feasible && out.dp_feasible && out.dp_width_u > 0) {
    out.improvement_pct =
        (out.dp_width_u - out.rip_width_u) / out.dp_width_u * 100.0;
  }
  return out;
}

// ------------------------------------------------------------------ Table 1

// Every solve runs on the evaluating worker's own
// dp::Workspace::local() and may minimize a pluggable objective backend
// (config.backend); the reductions run serially in the original input
// order, so any job count reproduces the serial bits.
//
// Table 1 and Fig. 7 group each (net, library)'s whole target sweep
// into one task (RIP groups by net, the baseline by (net, g)); Table 2
// keeps one case per task so its runtime columns time cold solves.

namespace {

/// Solve `group_count` groups of `group_size` consecutive flat cases
/// over `jobs` workers and return the flat outcomes. `solve(j, out)`
/// fills group j's span (out[i] is flat case j * group_size + i) on one
/// worker thread, in order, so it may carry task-local state such as a
/// frontier cache from case to case. It must not touch shared mutable
/// state and writes only its own span, which keeps every job count
/// bit-identical to the serial loop.
template <class Outcome, class Solve>
std::vector<Outcome> solve_groups(std::size_t group_count,
                                  std::size_t group_size, int jobs,
                                  Solve&& solve) {
  std::vector<Outcome> out(group_count * group_size);
  parallel_for_indexed(group_count, jobs, [&](std::size_t j) {
    solve(j, std::span<Outcome>(out).subspan(j * group_size, group_size));
  });
  return out;
}

/// Solve one group's targets in order through a task-local frontier
/// cache of capacity 1: the first target sweeps the target-independent
/// chain-DP frontier, every later one is a select_from_frontier walk
/// (bit-identical to a cold solve, dp/chain_dp.hpp), and the frontier
/// is freed with the group. `solve(ti, cache)` answers target ti with a
/// RIP or baseline result.
template <class Solve>
void sweep_group(std::span<SolveOutcome> out, Solve&& solve) {
  SolveCache frontier({.capacity = 1, .shard_count = 1});
  for (std::size_t ti = 0; ti < out.size(); ++ti) {
    const auto result = solve(ti, &frontier);
    out[ti] = SolveOutcome{result.status == dp::Status::kOptimal,
                           result.total_width_u};
  }
}

/// One Table 2 solve: feasibility and width for the quality columns,
/// plus the task's wall clock, taken inside the worker, for the
/// runtime and speedup columns.
struct TimedSolveOutcome {
  bool feasible = false;
  double width_u = 0;
  double runtime_s = 0;
};

/// Table 1 / Fig. 7 baselines: one size-N uniform library per
/// granularity.
template <class Config>
std::vector<core::BaselineOptions> uniform_baselines(const Config& config) {
  std::vector<core::BaselineOptions> baselines;
  baselines.reserve(config.granularities_u.size());
  for (const double g : config.granularities_u) {
    baselines.push_back(core::BaselineOptions::uniform_library(
        config.baseline_min_width_u, g, config.baseline_library_size,
        config.pitch_um));
  }
  return baselines;
}

}  // namespace

Table1Result run_table1(const tech::Technology& tech,
                        const Table1Config& config) {
  RIP_REQUIRE(!config.granularities_u.empty(),
              "table 1 needs at least one granularity");
  const auto workload =
      make_paper_workload(tech, config.net_count, config.seed, {}, {},
                          config.jobs);

  const std::size_t net_n = workload.size();
  const std::size_t tgt_n = static_cast<std::size_t>(config.targets_per_net);
  const std::size_t g_n = config.granularities_u.size();

  std::vector<std::vector<double>> targets;
  targets.reserve(net_n);
  for (const auto& wn : workload) {
    targets.push_back(
        timing_targets_fs(wn.tau_min_fs, config.targets_per_net));
  }

  Table1Shard outcomes;
  for (const auto& wn : workload) outcomes.net_names.push_back(wn.net.name());

  // RIP runs once per (net, target); each baseline granularity reuses
  // it. A RIP group is one net's targets, a baseline group one
  // (net, g)'s: flat index (ni * g_n + gi) * tgt_n + ti.
  outcomes.rip = solve_groups<SolveOutcome>(
      net_n, tgt_n, config.jobs,
      [&](std::size_t ni, std::span<SolveOutcome> out) {
        sweep_group(out, [&](std::size_t ti, SolveCache* cache) {
          return core::rip_insert(workload[ni].net, tech.device(),
                                  targets[ni][ti], config.rip,
                                  dp::Workspace::local(), cache,
                                  config.backend);
        });
      });

  const auto baselines = uniform_baselines(config);
  outcomes.dp = solve_groups<SolveOutcome>(
      net_n * g_n, tgt_n, config.jobs,
      [&](std::size_t group, std::span<SolveOutcome> out) {
        const std::size_t ni = group / g_n;
        const std::size_t gi = group % g_n;
        sweep_group(out, [&](std::size_t ti, SolveCache* cache) {
          return core::run_baseline(workload[ni].net, tech.device(),
                                    targets[ni][ti], baselines[gi],
                                    dp::Workspace::local(), cache,
                                    config.backend);
        });
      });
  return merge_table1_shards(config, {&outcomes, 1});
}

Table1Result merge_table1_shards(const Table1Config& config,
                                 std::span<const Table1Shard> shards) {
  RIP_REQUIRE(shards.size() == 1,
              "table 1 reduces exactly one outcome record");
  const Table1Shard& outcomes = shards.front();
  const std::size_t net_n = outcomes.net_names.size();
  const std::size_t tgt_n = static_cast<std::size_t>(config.targets_per_net);
  const std::size_t g_n = config.granularities_u.size();
  RIP_REQUIRE(net_n == static_cast<std::size_t>(config.net_count) &&
                  outcomes.rip.size() == net_n * tgt_n &&
                  outcomes.dp.size() == net_n * g_n * tgt_n,
              "table 1 outcome counts do not match the config");
  const auto& rip_runs = outcomes.rip;
  const auto& dp_runs = outcomes.dp;

  Table1Result result;
  result.granularities_u = config.granularities_u;
  std::vector<RunningStats> avg_max(g_n);
  std::vector<RunningStats> avg_mean(g_n);
  RunningStats avg_violations;

  for (std::size_t ni = 0; ni < net_n; ++ni) {
    Table1Row row;
    row.net_name = outcomes.net_names[ni];
    for (std::size_t ti = 0; ti < tgt_n; ++ti) {
      if (!rip_runs[ni * tgt_n + ti].feasible) ++row.rip_violations;
    }

    for (std::size_t gi = 0; gi < g_n; ++gi) {
      Table1Cell cell;
      RunningStats improvements;
      for (std::size_t ti = 0; ti < tgt_n; ++ti) {
        const auto& dp = dp_runs[(ni * g_n + gi) * tgt_n + ti];
        if (!dp.feasible) {
          ++cell.dp_violations;
          continue;
        }
        const auto& rip = rip_runs[ni * tgt_n + ti];
        if (rip.feasible && dp.width_u > 0) {
          improvements.add((dp.width_u - rip.width_u) / dp.width_u * 100.0);
          ++cell.compared;
        }
      }
      if (improvements.count() > 0) {
        cell.delta_max_pct = improvements.max();
        cell.delta_mean_pct = improvements.mean();
      }
      avg_max[gi].add(cell.delta_max_pct);
      avg_mean[gi].add(cell.delta_mean_pct);
      if (gi == 0) avg_violations.add(cell.dp_violations);
      row.cells.push_back(cell);
    }
    result.rows.push_back(std::move(row));
  }

  result.average.net_name = "Ave";
  for (std::size_t gi = 0; gi < g_n; ++gi) {
    Table1Cell cell;
    cell.delta_max_pct = avg_max[gi].mean();
    cell.delta_mean_pct = avg_mean[gi].mean();
    cell.dp_violations =
        gi == 0 ? static_cast<int>(std::lround(avg_violations.mean())) : 0;
    result.average.cells.push_back(cell);
  }
  return result;
}

Table to_table(const Table1Result& result) {
  std::vector<std::string> headers{"Net"};
  for (std::size_t gi = 0; gi < result.granularities_u.size(); ++gi) {
    const std::string g = fmt_f(result.granularities_u[gi], 0);
    headers.push_back("dMax%(g=" + g + "u)");
    if (gi == 0) headers.push_back("V_DP(g=" + g + "u)");
    else headers.push_back("dMean%(g=" + g + "u)");
  }
  Table table(headers);
  auto emit = [&](const Table1Row& row) {
    std::vector<std::string> cells{row.net_name};
    for (std::size_t gi = 0; gi < row.cells.size(); ++gi) {
      cells.push_back(fmt_f(row.cells[gi].delta_max_pct, 2));
      if (gi == 0) {
        cells.push_back(std::to_string(row.cells[gi].dp_violations));
      } else {
        cells.push_back(fmt_f(row.cells[gi].delta_mean_pct, 2));
      }
    }
    table.add_row(std::move(cells));
  };
  for (const auto& row : result.rows) emit(row);
  emit(result.average);
  return table;
}

// ------------------------------------------------------------------ Table 2

Table2Result run_table2(const tech::Technology& tech,
                        const Table2Config& config) {
  RIP_REQUIRE(!config.granularities_u.empty(),
              "table 2 needs at least one granularity");
  const auto workload =
      make_paper_workload(tech, config.net_count, config.seed, {}, {},
                          config.jobs);

  const std::size_t net_n = workload.size();
  const std::size_t tgt_n = static_cast<std::size_t>(config.targets_per_net);
  const std::size_t g_n = config.granularities_u.size();

  std::vector<std::vector<double>> all_targets;
  all_targets.reserve(net_n);
  for (const auto& wn : workload) {
    all_targets.push_back(
        timing_targets_fs(wn.tau_min_fs, config.targets_per_net));
  }

  // RIP runs once per (net, target); every granularity row reuses it.
  // Runtimes are wall clock per task, taken inside the worker. Groups
  // hold one case, so every solve is cold: T_DP and T_RIP are the
  // paper's per-design runtimes. The DP flat space is granularity x net
  // x target — granularity-major, the reduction's loop order.
  const auto rip_runs = solve_groups<TimedSolveOutcome>(
      net_n * tgt_n, 1, config.jobs,
      [&](std::size_t k, std::span<TimedSolveOutcome> out) {
        const std::size_t ni = k / tgt_n;
        const std::size_t ti = k % tgt_n;
        WallTimer timer;
        const auto rip = core::rip_insert(
            workload[ni].net, tech.device(), all_targets[ni][ti], config.rip,
            dp::Workspace::local(), nullptr, config.backend);
        out[0].runtime_s = timer.seconds();
        out[0].feasible = rip.status == dp::Status::kOptimal;
        out[0].width_u = rip.total_width_u;
      });

  std::vector<core::BaselineOptions> baselines;
  baselines.reserve(g_n);
  for (const double g : config.granularities_u) {
    baselines.push_back(core::BaselineOptions::range_library(
        config.range_min_width_u, config.range_max_width_u, g,
        config.pitch_um));
  }
  const auto dp_runs = solve_groups<TimedSolveOutcome>(
      g_n * net_n * tgt_n, 1, config.jobs,
      [&](std::size_t k, std::span<TimedSolveOutcome> out) {
        const std::size_t gi = k / (net_n * tgt_n);
        const std::size_t ni = (k / tgt_n) % net_n;
        const std::size_t ti = k % tgt_n;
        WallTimer timer;
        const auto dp = core::run_baseline(
            workload[ni].net, tech.device(), all_targets[ni][ti],
            baselines[gi], dp::Workspace::local(), nullptr, config.backend);
        out[0].runtime_s = timer.seconds();
        out[0].feasible = dp.status == dp::Status::kOptimal;
        out[0].width_u = dp.total_width_u;
      });

  RunningStats rip_time;
  for (const auto& oc : rip_runs) rip_time.add(oc.runtime_s);

  Table2Result result;
  for (std::size_t gi = 0; gi < g_n; ++gi) {
    Table2Row row;
    row.granularity_u = config.granularities_u[gi];
    RunningStats improvements;
    RunningStats dp_time;
    for (std::size_t ni = 0; ni < net_n; ++ni) {
      for (std::size_t ti = 0; ti < tgt_n; ++ti) {
        const auto& dp = dp_runs[(gi * net_n + ni) * tgt_n + ti];
        dp_time.add(dp.runtime_s);
        const auto& rip = rip_runs[ni * tgt_n + ti];
        if (dp.feasible && rip.feasible && dp.width_u > 0) {
          improvements.add((dp.width_u - rip.width_u) / dp.width_u * 100.0);
        }
      }
    }
    row.compared = static_cast<int>(improvements.count());
    if (row.compared > 0) row.delta_mean_pct = improvements.mean();
    row.dp_runtime_s = dp_time.mean();
    row.rip_runtime_s = rip_time.mean();
    row.speedup =
        row.rip_runtime_s > 0 ? row.dp_runtime_s / row.rip_runtime_s : 0;
    result.rows.push_back(row);
  }
  return result;
}

Table to_table(const Table2Result& result) {
  Table table({"g_DP(u)", "delta%", "T_DP(s)", "T_RIP(s)", "Speedup"});
  for (const auto& row : result.rows) {
    table.add_row({fmt_f(row.granularity_u, 0), fmt_f(row.delta_mean_pct, 1),
                   fmt_f(row.dp_runtime_s, 4), fmt_f(row.rip_runtime_s, 4),
                   fmt_f(row.speedup, 1)});
  }
  return table;
}

// ------------------------------------------------------------------ Fig. 7

Fig7Result run_fig7(const tech::Technology& tech, const Fig7Config& config) {
  RIP_REQUIRE(!config.granularities_u.empty(),
              "fig 7 needs at least one granularity");
  const auto workload =
      make_paper_workload(tech, config.net_index + 1, config.seed, {}, {},
                          config.jobs);
  const auto& wn = workload.back();

  const auto targets = timing_targets_fs(wn.tau_min_fs, config.points);
  const std::size_t tgt_n = targets.size();
  const std::size_t g_n = config.granularities_u.size();

  // RIP once per target; both series reuse it. The DP flat space is
  // granularity x target (granularity-major, the reduction's loop
  // order). The RIP sweep is one group, each granularity's sweep
  // another.
  const auto rip_runs = solve_groups<SolveOutcome>(
      1, tgt_n, config.jobs, [&](std::size_t, std::span<SolveOutcome> out) {
        sweep_group(out, [&](std::size_t ti, SolveCache* cache) {
          return core::rip_insert(wn.net, tech.device(), targets[ti],
                                  config.rip, dp::Workspace::local(), cache,
                                  config.backend);
        });
      });

  const auto baselines = uniform_baselines(config);
  const auto dp_runs = solve_groups<SolveOutcome>(
      g_n, tgt_n, config.jobs,
      [&](std::size_t gi, std::span<SolveOutcome> out) {
        sweep_group(out, [&](std::size_t ti, SolveCache* cache) {
          return core::run_baseline(wn.net, tech.device(), targets[ti],
                                    baselines[gi], dp::Workspace::local(),
                                    cache, config.backend);
        });
      });

  Fig7Result result;
  result.net_name = wn.net.name();
  result.tau_min_fs = wn.tau_min_fs;
  for (std::size_t gi = 0; gi < g_n; ++gi) {
    Fig7Series series;
    series.granularity_u = config.granularities_u[gi];
    for (std::size_t ti = 0; ti < tgt_n; ++ti) {
      const auto& dp = dp_runs[gi * tgt_n + ti];
      const auto& rip = rip_runs[ti];
      Fig7Point point;
      point.tau_t_fs = targets[ti];
      point.tau_t_over_tau_min = targets[ti] / wn.tau_min_fs;
      point.dp_feasible = dp.feasible;
      if (point.dp_feasible && rip.feasible && dp.width_u > 0) {
        point.improvement_pct =
            (dp.width_u - rip.width_u) / dp.width_u * 100.0;
      }
      series.points.push_back(point);
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

Table to_table(const Fig7Result& result) {
  std::vector<std::string> headers{"tau_t(ns)", "tau_t/tau_min"};
  for (const auto& s : result.series) {
    headers.push_back("impr%(g=" + fmt_f(s.granularity_u, 0) + "u)");
  }
  Table table(headers);
  if (result.series.empty()) return table;
  const std::size_t n = result.series.front().points.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p0 = result.series.front().points[i];
    std::vector<std::string> cells{
        fmt_f(units::fs_to_ns(p0.tau_t_fs), 3),
        fmt_f(p0.tau_t_over_tau_min, 3)};
    for (const auto& s : result.series) {
      const auto& p = s.points[i];
      cells.push_back(p.dp_feasible ? fmt_f(p.improvement_pct, 2)
                                    : std::string("VIOL"));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace rip::eval

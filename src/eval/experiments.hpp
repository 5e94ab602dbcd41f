#pragma once

/// @file experiments.hpp
/// The paper's unit of evaluation, run_case (RIP against a DP baseline
/// on one (net, target) case), and the runners that regenerate every
/// table and figure of its Section 6. Each runner returns a structured
/// result that the bench binaries (bench/bench_table1.cpp,
/// bench_table2.cpp, bench_fig7.cpp) print via util::Table next to the
/// paper's reference values.
///
/// run_case is the one per-case entry point: rip_cli's `compare` fans
/// it out with parallel_for_indexed (util/thread_pool.hpp), and
/// run_stream submits it to the EvalService (eval/service.hpp) as a
/// thunk. Each runner fans its solves out over the persistent
/// scheduler, one group per task: Table 1 and Fig. 7 group a (net,
/// library)'s whole target sweep, so the task sweeps the
/// target-independent frontier once and selects every target from it;
/// Table 2 groups one case, so every solve it times stays cold. Each
/// group writes only its own slots and the reduction runs serially in
/// input order, so results are bit-identical at any job count. A sweep
/// split across processes is `rip_cli sweep|compare --shard I/N` plus
/// `rip_cli merge`.

#include <span>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "eval/context.hpp"
#include "eval/solve_cache.hpp"
#include "eval/workload.hpp"
#include "tech/technology.hpp"
#include "util/table.hpp"

namespace rip::eval {

/// One (net, target) comparison of RIP against a DP baseline.
struct CaseResult {
  double tau_t_fs = 0;
  bool rip_feasible = false;
  bool dp_feasible = false;
  double rip_width_u = 0;
  double dp_width_u = 0;
  double rip_runtime_s = 0;
  double dp_runtime_s = 0;
  /// (p_DP - p_RIP) / p_DP * 100; meaningful only when both feasible.
  double improvement_pct = 0;
};

/// Run RIP and one baseline on a single (net, target) case under one
/// SolveContext (eval/context.hpp). Both solvers run on the calling
/// thread's dp::Workspace::local(), so every participant of a parallel
/// sweep reuses its own arenas case after case. `context.cache`
/// optionally shares a frontier cache between the target-independent
/// DP solves (RIP's coarse stage and the whole baseline) — with it,
/// re-running a cached net at a new target costs a frontier walk
/// instead of two DP sweeps, bit-identical to the uncached path;
/// `context.backend` selects the objective both solvers minimize
/// (nullptr = the paper's, bit-identical to before). The solve.*
/// fault points fire first, under `context.fault_key`, and
/// `context.deadline` is checked before and between the two solves.
/// Runtimes are wall clock measured around each solve on this thread.
CaseResult run_case(const net::Net& net, const tech::Technology& tech,
                    double tau_t_fs, const core::RipOptions& rip_options,
                    const core::BaselineOptions& baseline_options,
                    const SolveContext& context = {});

// ---------------------------------------------------------------- Table 1

/// Configuration for Table 1 (power reduction for two-pin nets).
struct Table1Config {
  int net_count = 20;
  int targets_per_net = 20;
  std::uint64_t seed = 2005;
  /// Baseline library: size 10, min width 10u (paper Section 6), at each
  /// of these granularities. The first one also reports the violation
  /// count V_DP.
  std::vector<double> granularities_u = {10.0, 20.0, 40.0};
  int baseline_library_size = 10;
  double baseline_min_width_u = 10.0;
  double pitch_um = 200.0;
  core::RipOptions rip;
  /// Worker threads for the sweep, which fans out one (net, library)
  /// group at a time; 1 = the serial reference path, 0 = all hardware
  /// threads. Results are bit-identical at any job count.
  int jobs = 1;
  /// Objective backend every solve of the sweep minimizes; nullptr =
  /// the paper's objective (bit-identical to before backends existed).
  /// Must outlive the run.
  const tech::ObjectiveBackend* backend = nullptr;
};

/// Per-granularity aggregate for one net.
struct Table1Cell {
  double delta_max_pct = 0;   ///< max improvement over feasible targets
  double delta_mean_pct = 0;  ///< mean improvement over feasible targets
  int dp_violations = 0;      ///< targets the DP could not meet
  int compared = 0;           ///< targets where both schemes were feasible
};

/// One row (one net) of Table 1.
struct Table1Row {
  std::string net_name;
  std::vector<Table1Cell> cells;  ///< one per granularity
  int rip_violations = 0;         ///< should stay 0 (paper's claim)
};

/// The full table plus the Ave row.
struct Table1Result {
  std::vector<Table1Row> rows;
  Table1Row average;
  std::vector<double> granularities_u;
};

Table1Result run_table1(const tech::Technology& tech,
                        const Table1Config& config);

/// Render in the paper's column layout.
Table to_table(const Table1Result& result);

/// One RIP or baseline solve, reduced to what Table 1's aggregation
/// reads.
struct SolveOutcome {
  bool feasible = false;
  double width_u = 0;
};

/// Every solve outcome of one Table 1 sweep, in flat order: RIP over
/// net x target, the baseline over net x granularity x target. This is
/// the record run_table1 reduces; the repository benchmark's traced
/// table1 pass (ripbench/src/table1_workload.cpp) fills one from its
/// own instrumented solves and reduces it the same way.
struct Table1Shard {
  std::vector<std::string> net_names;  ///< the workload's nets, in order
  std::vector<SolveOutcome> rip;       ///< net x target
  std::vector<SolveOutcome> dp;        ///< net x g x target
};

/// Run Table 1's serial input-order reduction over exactly one
/// complete outcome record (`shards.size() == 1`). Throws rip::Error if
/// its outcome counts do not match `config`'s nets, targets and
/// granularities.
Table1Result merge_table1_shards(const Table1Config& config,
                                 std::span<const Table1Shard> shards);

// ---------------------------------------------------------------- Table 2

/// Configuration for Table 2 (power savings vs. speedup tradeoff).
struct Table2Config {
  int net_count = 20;
  int targets_per_net = 20;
  std::uint64_t seed = 2005;
  std::vector<double> granularities_u = {40.0, 30.0, 20.0, 10.0};
  double range_min_width_u = 10.0;
  double range_max_width_u = 400.0;
  double pitch_um = 200.0;
  core::RipOptions rip;
  /// Worker threads (see Table1Config::jobs). Width/improvement columns
  /// are bit-identical at any job count; runtime columns are per-task
  /// wall clock measured inside the worker.
  int jobs = 1;
  /// Objective backend (see Table1Config::backend); nullptr = paper's.
  const tech::ObjectiveBackend* backend = nullptr;
};

/// One row (one baseline granularity) of Table 2.
struct Table2Row {
  double granularity_u = 0;
  double delta_mean_pct = 0;  ///< mean RIP improvement over the DP
  /// Mean cold DP runtime per design: every (net, target) solve sweeps
  /// its own frontier, never reuses another target's.
  double dp_runtime_s = 0;
  double rip_runtime_s = 0;   ///< mean cold RIP runtime per design
  double speedup = 0;         ///< dp_runtime / rip_runtime
  int compared = 0;
};

struct Table2Result {
  std::vector<Table2Row> rows;
};

Table2Result run_table2(const tech::Technology& tech,
                        const Table2Config& config);

Table to_table(const Table2Result& result);

// ---------------------------------------------------------------- Fig. 7

/// Configuration for Fig. 7 (improvement vs. timing constraint).
struct Fig7Config {
  std::uint64_t seed = 2005;
  int net_index = 0;        ///< which workload net to sweep
  int points = 21;          ///< samples across [1.05, 2.05] * tau_min
  /// The two library granularities of Fig. 7(a) and (b).
  std::vector<double> granularities_u = {10.0, 40.0};
  int baseline_library_size = 10;
  double baseline_min_width_u = 10.0;
  double pitch_um = 200.0;
  core::RipOptions rip;
  /// Worker threads (see Table1Config::jobs).
  int jobs = 1;
  /// Objective backend (see Table1Config::backend); nullptr = paper's.
  const tech::ObjectiveBackend* backend = nullptr;
};

/// One sample of one series.
struct Fig7Point {
  double tau_t_fs = 0;
  double tau_t_over_tau_min = 0;
  bool dp_feasible = false;
  double improvement_pct = 0;  ///< meaningful only when dp_feasible
};

/// One series (one granularity).
struct Fig7Series {
  double granularity_u = 0;
  std::vector<Fig7Point> points;
};

struct Fig7Result {
  std::string net_name;
  double tau_min_fs = 0;
  std::vector<Fig7Series> series;
};

Fig7Result run_fig7(const tech::Technology& tech, const Fig7Config& config);

Table to_table(const Fig7Result& result);

}  // namespace rip::eval

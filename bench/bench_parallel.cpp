// Scaling and overhead of the parallel batch-evaluation engine. Four
// sections:
//
//   run_cases    the flat batch engine (eval/parallel.hpp) on the
//                Table 1 workload at jobs in {1, 2, 4, 8} (capped by
//                --max-jobs): wall clock, speedup, efficiency;
//   run_table1   the full Table 1 runner (workload generation + RIP +
//                three baseline granularities + reduction), same ladder;
//   scheduler    the persistent scheduler's per-batch overhead on a
//                many-small-batches workload;
//   sharding     the batch split into two eval::CaseShards, run
//                independently, merged with eval::merge_shards, and
//                compared to the unsharded results.
//
// Every multi-job and merged-shard run is checked against the jobs=1
// results — the engine's contract is bit-identical output at any job
// count and any split, so any mismatch aborts with exit code 1.
//
// Environment: RIP_BENCH_NETS / RIP_BENCH_TARGETS size the workload
// and RIP_BENCH_JOBS caps the ladder; --nets / --targets / --max-jobs
// override. Speedup tops out at the machine's core count (a
// single-core container reports ~1x).

#include <cstddef>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "eval/experiments.hpp"
#include "eval/parallel.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rip;

std::vector<int> job_ladder(int max_jobs) {
  std::vector<int> ladder;
  for (int j = 1; j <= max_jobs; j *= 2) ladder.push_back(j);
  return ladder;
}

bool same_results(const std::vector<eval::CaseResult>& a,
                  const std::vector<eval::CaseResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rip_feasible != b[i].rip_feasible ||
        a[i].dp_feasible != b[i].dp_feasible ||
        a[i].rip_width_u != b[i].rip_width_u ||
        a[i].dp_width_u != b[i].dp_width_u ||
        a[i].improvement_pct != b[i].improvement_pct) {
      return false;
    }
  }
  return true;
}

bool same_results(const eval::Table1Result& a, const eval::Table1Result& b) {
  if (a.rows.size() != b.rows.size()) return false;
  auto same_row = [](const eval::Table1Row& x, const eval::Table1Row& y) {
    if (x.net_name != y.net_name || x.rip_violations != y.rip_violations ||
        x.cells.size() != y.cells.size()) {
      return false;
    }
    for (std::size_t g = 0; g < x.cells.size(); ++g) {
      if (x.cells[g].delta_max_pct != y.cells[g].delta_max_pct ||
          x.cells[g].delta_mean_pct != y.cells[g].delta_mean_pct ||
          x.cells[g].dp_violations != y.cells[g].dp_violations ||
          x.cells[g].compared != y.cells[g].compared) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (!same_row(a.rows[r], b.rows[r])) return false;
  }
  return same_row(a.average, b.average);
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage(
        "bench_parallel [--nets N] [--targets N] [--max-jobs N]");
  }
  const tech::Technology tech = tech::make_tech180();
  const int nets = bench::net_count(args, 8);
  const int targets = bench::targets_per_net(args, 8);
  // 0 = all hardware threads.
  const int max_jobs = resolve_jobs(static_cast<int>(count_option(
      args, "max-jobs", static_cast<std::uint64_t>(bench::jobs(8)))));

  std::cout << "=== Parallel engine scaling (Table 1 workload) ===\n";
  std::cout << "(" << nets << " nets x " << targets << " targets; "
            << std::thread::hardware_concurrency()
            << " hardware threads)\n\n";

  // ------------------------------------------------ run_cases (flat batch)
  const auto workload = eval::make_paper_workload(tech, nets, 2005);
  const auto baseline = core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  std::vector<eval::Case> cases;
  for (const auto& wn : workload) {
    for (const double tau_t : eval::timing_targets_fs(wn.tau_min_fs,
                                                      targets)) {
      cases.push_back(
          eval::Case{&wn.net, tau_t, core::RipOptions{}, baseline});
    }
  }

  std::cout << "--- run_cases: " << cases.size() << " cases ---\n";
  Table engine({"jobs", "wall_s", "speedup", "efficiency%"});
  std::vector<eval::CaseResult> reference;
  double serial_s = 0;
  for (const int jobs : job_ladder(max_jobs)) {
    eval::BatchOptions batch;
    batch.jobs = jobs;
    WallTimer timer;
    const auto results = eval::run_cases(tech, cases, batch);
    const double wall = timer.seconds();
    if (jobs == 1) {
      reference = results;
      serial_s = wall;
    } else if (!same_results(results, reference)) {
      std::cerr << "FAIL: run_cases at jobs=" << jobs
                << " diverged from the serial results\n";
      return 1;
    }
    const double speedup = wall > 0 ? serial_s / wall : 0;
    engine.add_row({std::to_string(jobs), fmt_f(wall, 2),
                    fmt_f(speedup, 2), fmt_f(speedup / jobs * 100.0, 0)});
  }
  engine.print(std::cout);

  // ------------------------------------------------ run_table1 (full runner)
  std::cout << "\n--- run_table1: full Table 1 runner ---\n";
  Table runner({"jobs", "wall_s", "speedup", "efficiency%"});
  eval::Table1Result t1_reference;
  serial_s = 0;
  for (const int jobs : job_ladder(max_jobs)) {
    eval::Table1Config config;
    config.net_count = nets;
    config.targets_per_net = targets;
    config.jobs = jobs;
    WallTimer timer;
    const auto result = eval::run_table1(tech, config);
    const double wall = timer.seconds();
    if (jobs == 1) {
      t1_reference = result;
      serial_s = wall;
    } else if (!same_results(result, t1_reference)) {
      std::cerr << "FAIL: run_table1 at jobs=" << jobs
                << " diverged from the serial results\n";
      return 1;
    }
    const double speedup = wall > 0 ? serial_s / wall : 0;
    runner.add_row({std::to_string(jobs), fmt_f(wall, 2),
                    fmt_f(speedup, 2), fmt_f(speedup / jobs * 100.0, 0)});
  }
  runner.print(std::cout);

  // --------------------------- scheduler: per-batch overhead
  // Many small batches: each region only enqueues join tasks on the
  // long-lived workers, so this is the scheduler's own cost per call.
  {
    const int jobs = std::min(max_jobs, 4);
    constexpr std::size_t kBatches = 200;
    constexpr std::size_t kBatchSize = 64;
    std::vector<double> sink(kBatchSize, 0.0);
    auto tiny = [&](std::size_t i) {
      sink[i] += static_cast<double>(i) * 1e-9;
    };
    // Warm once so the lazy worker start is not billed to the batches.
    parallel_for_indexed(kBatchSize, jobs, tiny);
    WallTimer timer;
    for (std::size_t b = 0; b < kBatches; ++b) {
      parallel_for_indexed(kBatchSize, jobs, tiny);
    }
    std::cout << "\n--- scheduler: parallel_for_indexed "
              << fmt_f(timer.seconds() / kBatches * 1e6, 1)
              << " us/batch (" << kBatches << " batches x " << kBatchSize
              << " tiny tasks, jobs " << jobs << ") ---\n";
  }

  // --------------------------- sharding: split, run, merge, compare
  {
    const int shards = 2;
    std::cout << "\n--- sharding: run_cases split " << shards
              << " ways, merged vs unsharded ---\n";
    std::vector<eval::CaseShard> pieces;
    std::size_t solved = 0;
    WallTimer timer;
    for (int s = 0; s < shards; ++s) {
      eval::BatchOptions batch;
      batch.jobs = max_jobs;
      batch.shard_index = s;
      batch.shard_count = shards;
      pieces.push_back({s, shards, eval::run_cases(tech, cases, batch)});
      solved += pieces.back().results.size();
    }
    const auto merged =
        eval::merge_shards(std::span<const eval::CaseShard>(pieces));
    if (!same_results(merged, reference)) {
      std::cerr << "FAIL: merged shard results diverged from the "
                   "unsharded run\n";
      return 1;
    }
    std::cout << "shards solved " << solved << "/" << cases.size()
              << " cases in " << fmt_f(timer.seconds(), 2)
              << " s; merged results bit-identical to unsharded\n";
  }

  bench::warn_unused(args);
  std::cout << "\nAll multi-job and merged-shard runs bit-identical to "
               "jobs=1.\n";
  std::cout << "Reading: speedup should track min(jobs, cores); the "
               "workload is embarrassingly parallel, so efficiency well "
               "below 100% at jobs <= cores points at engine overhead.\n";
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

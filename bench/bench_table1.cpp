// Regenerates Table 1 of the paper: "Power reduction for two-pin nets".
//
// 20 random nets (Section 6 population), each designed 20 times with
// timing targets 1.05..2.05 * tau_min. RIP is compared against the
// Lillis-style power-aware DP with a library of size 10 (min width 10u)
// at granularities g = 10u / 20u / 40u. Columns follow the paper: dMax
// and V_DP for g=10u, dMax/dMean for g=20u and g=40u, plus the Ave row.
//
// Environment: RIP_BENCH_NETS / RIP_BENCH_TARGETS / RIP_BENCH_JOBS
// shrink or parallelize the run; --nets / --targets / --jobs override.

#include <iostream>

#include "bench_env.hpp"
#include "eval/experiments.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage("bench_table1 [--nets N] [--targets N] [--jobs N]");
  }
  const tech::Technology tech = tech::make_tech180();

  eval::Table1Config config;
  config.net_count = bench::net_count(args);
  config.targets_per_net = bench::targets_per_net(args);
  config.jobs = bench::jobs(args);

  std::cout << "=== Table 1: power reduction for two-pin nets ===\n";
  std::cout << "(RIP vs DP[14], library size 10, min width 10u; "
            << config.net_count << " nets x " << config.targets_per_net
            << " targets, jobs " << config.jobs << ")\n\n";

  WallTimer timer;
  const auto result = eval::run_table1(tech, config);
  const auto table = eval::to_table(result);
  table.print(std::cout);

  std::cout << "\nPaper reference (Ave row): dMax(g=10u) 20.33%, V_DP 6/20, "
               "dMax/dMean(g=20u) 11.8%/3.6%, dMax/dMean(g=40u) "
               "23.94%/9.53%\n";
  int rip_violations = 0;
  for (const auto& row : result.rows) rip_violations += row.rip_violations;
  std::cout << "RIP timing violations across all designs: " << rip_violations
            << " (paper: 0)\n";
  std::cout << "wall clock: " << fmt_f(timer.seconds(), 1) << " s\n";
  bench::warn_unused(args);
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

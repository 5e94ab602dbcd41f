// Regenerates Table 2 of the paper: "Power savings and speedup tradeoff".
//
// The DP baseline uses the fixed width range (10u, 400u) with granularity
// g_DP in {40u, 30u, 20u, 10u}; as g_DP shrinks the DP closes the quality
// gap but its runtime grows pseudo-polynomially, while RIP's runtime is
// constant — the paper reports a 203x speedup at equal quality.
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
    return bench::usage("bench_table2 [--nets N] [--targets N] [--jobs N]");
  }
  const tech::Technology tech = tech::make_tech180();

  // Default reduced to 10x10 (the g_DP=10u baseline costs seconds per
  // design by construction — that is the point of the table); set
  // RIP_BENCH_NETS=20 RIP_BENCH_TARGETS=20 for the paper's full sweep.
  eval::Table2Config config;
  config.net_count = bench::net_count(args, 10);
  config.targets_per_net = bench::targets_per_net(args, 10);
  config.jobs = bench::jobs(args);

  std::cout << "=== Table 2: power savings and speedup tradeoff ===\n";
  std::cout << "(DP width range 10u..400u at granularity g_DP; "
            << config.net_count << " nets x " << config.targets_per_net
            << " targets, jobs " << config.jobs << ")\n\n";

  WallTimer timer;
  const auto result = eval::run_table2(tech, config);
  const auto table = eval::to_table(result);
  table.print(std::cout);

  std::cout << "\nPaper reference: g=40u: 14.2% / speedup 6x; g=30u: 7.8% / "
               "11x; g=20u: 4.0% / 34x; g=10u: 0.3% / 203x\n";
  std::cout << "(absolute seconds differ from 2005 hardware; the claim is "
               "the growth of the ratio)\n";
  std::cout << "wall clock: " << fmt_f(timer.seconds(), 1) << " s\n";
  bench::warn_unused(args);
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

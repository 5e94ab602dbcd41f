// Regenerates Figure 7 of the paper: power savings of RIP over the DP
// scheme (library size 10) as a function of the timing constraint, for
// width granularities (a) g=10u and (b) g=40u.
//
// The paper's zone structure should reproduce:
//   zone I   (tight targets, g=10u only): the DP violates timing ("VIOL")
//            because its library tops out at 100u;
//   zone II  (medium targets): RIP's largest savings;
//   zone III (loose targets): the schemes converge, and the DP
//            occasionally wins slightly (negative improvement).
//
// Environment: RIP_BENCH_TARGETS / RIP_BENCH_JOBS set the sweep size
// and worker threads; --targets / --jobs override.

#include <iostream>

#include "bench_env.hpp"
#include "eval/experiments.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage("bench_fig7 [--targets N] [--jobs N]");
  }
  const tech::Technology tech = tech::make_tech180();

  eval::Fig7Config config;
  config.points = bench::targets_per_net(args, 21);
  config.jobs = bench::jobs(args);

  std::cout << "=== Figure 7: improvement vs timing constraint ===\n";
  std::cout << "(one representative net, DP library size 10, g=10u and "
               "g=40u; "
            << config.points << " sweep points, jobs " << config.jobs
            << ")\n\n";

  WallTimer timer;
  const auto result = eval::run_fig7(tech, config);
  std::cout << "net: " << result.net_name << ", tau_min = "
            << fmt_unit(units::fs_to_ns(result.tau_min_fs), 3, "ns")
            << "\n\n";
  const auto table = eval::to_table(result);
  table.print(std::cout);

  // Zone annotation for the g=10u series.
  const auto& g10 = result.series.front();
  int zone1 = 0;
  for (const auto& p : g10.points) {
    if (!p.dp_feasible) ++zone1;
  }
  std::cout << "\nzone I (g=10u DP violations): first " << zone1
            << " of " << g10.points.size() << " points\n";
  std::cout << "Paper reference: Fig 7(a) shows zone I violations at tight "
               "targets, peak savings ~20-30% in zone II, and ~0 (sometimes "
               "negative) in zone III; Fig 7(b) stays positive and grows "
               "with looser targets.\n";
  std::cout << "wall clock: " << fmt_f(timer.seconds(), 1) << " s\n";
  bench::warn_unused(args);
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

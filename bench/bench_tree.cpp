// Tree extension bench (the paper's Section 7 future work): transplants
// the Table 2 quality/runtime tradeoff onto interconnect *trees*.
//
// For a population of random routing trees we compare:
//   - fine tree DP (range library 10u..400u at g): the quality reference,
//     pseudo-polynomially slow as g shrinks;
//   - coarse tree DP (the 5-width 80u library): fast, poor quality;
//   - tree-RIP-lite (coarse DP -> greedy width descent -> concise DP).
//
// Environment: RIP_BENCH_NETS (trees), RIP_BENCH_TARGETS (targets/tree),
// RIP_BENCH_JOBS (worker threads); --nets / --targets / --jobs override.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_env.hpp"
#include "core/tree_hybrid.hpp"
#include "dp/library.hpp"
#include "dp/tree_dp.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage(
        "bench_tree [--nets N] [--targets N] [--jobs N]");
  }
  const tech::Technology tech = tech::make_tech180();
  const auto& device = tech.device();
  const int tree_count = bench::net_count(args, 8);
  const int targets = bench::targets_per_net(args, 5);
  const int jobs = bench::jobs(args);
  const double driver_width = 120.0;

  std::cout << "=== Tree extension: low-power buffered trees ===\n";
  std::cout << "(" << tree_count << " random trees x " << targets
            << " targets, jobs " << jobs
            << "; worst-sink Elmore delay constraint)\n\n";

  dp::RandomTreeConfig config;
  config.sink_count = 6;
  config.candidates_per_edge = 3;
  config.edge_length_min_um = 1200.0;
  config.edge_length_max_um = 3000.0;
  config.r_ohm_per_um = tech.layer("metal4").r_ohm_per_um;
  config.c_ff_per_um = tech.layer("metal4").c_ff_per_um;

  // Trees come off one shared Rng stream, so generation stays serial;
  // everything downstream is independent per (tree, target) and fans
  // out over the pool.
  Rng rng(2005);
  std::vector<dp::BufferTree> trees;
  trees.reserve(static_cast<std::size_t>(tree_count));
  for (int t = 0; t < tree_count; ++t) {
    trees.push_back(dp::random_buffer_tree(config, rng));
  }

  std::vector<double> min_delay_fs(trees.size());
  parallel_for_indexed(trees.size(), jobs, [&](std::size_t i) {
    dp::ChainDpOptions delay_mode;
    delay_mode.mode = dp::Mode::kMinDelay;
    min_delay_fs[i] = dp::run_tree_dp(
        trees[i], device, driver_width,
        dp::RepeaterLibrary::range(10.0, 400.0, 20.0), delay_mode).delay_fs;
  });

  struct CaseOut {
    bool ok = false;
    double hybrid_rel = 0, coarse_rel = 0;
    double fine_ms = 0, coarse_ms = 0, hybrid_ms = 0;
  };
  const std::size_t tgt_n = static_cast<std::size_t>(targets);
  std::vector<CaseOut> outs(trees.size() * tgt_n);
  parallel_for_indexed(outs.size(), jobs, [&](std::size_t idx) {
    const std::size_t t = idx / tgt_n;
    const int k = static_cast<int>(idx % tgt_n);
    const auto& tree = trees[t];
    const double factor = 1.1 + 0.9 * k / std::max(1, targets - 1);
    const double tau_t = factor * min_delay_fs[t];
    dp::ChainDpOptions power_mode;
    power_mode.mode = dp::Mode::kMinPower;
    power_mode.timing_target_fs = tau_t;
    CaseOut out;

    WallTimer timer;
    const auto fine = dp::run_tree_dp(
        tree, device, driver_width,
        dp::RepeaterLibrary::range(10.0, 400.0, 10.0), power_mode);
    out.fine_ms = timer.millis();

    timer.reset();
    const auto coarse = dp::run_tree_dp(
        tree, device, driver_width,
        dp::RepeaterLibrary::uniform(80.0, 80.0, 5), power_mode);
    out.coarse_ms = timer.millis();

    timer.reset();
    const auto hybrid =
        core::tree_hybrid_insert(tree, device, driver_width, tau_t);
    out.hybrid_ms = timer.millis();

    if (fine.status == dp::Status::kOptimal &&
        coarse.status == dp::Status::kOptimal &&
        hybrid.status == dp::Status::kOptimal && fine.total_width_u > 0) {
      out.ok = true;
      out.hybrid_rel = hybrid.total_width_u / fine.total_width_u;
      out.coarse_rel = coarse.total_width_u / fine.total_width_u;
    }
    outs[idx] = out;
  });

  RunningStats hybrid_rel_fine;   // hybrid width / fine-DP width
  RunningStats coarse_rel_fine;   // coarse width / fine-DP width
  RunningStats fine_ms, coarse_ms, hybrid_ms;
  int cases = 0;
  for (const auto& out : outs) {
    fine_ms.add(out.fine_ms);
    coarse_ms.add(out.coarse_ms);
    hybrid_ms.add(out.hybrid_ms);
    if (out.ok) {
      hybrid_rel_fine.add(out.hybrid_rel);
      coarse_rel_fine.add(out.coarse_rel);
      ++cases;
    }
  }

  Table table({"scheme", "width_vs_fineDP", "mean_runtime_ms"});
  table.add_row({"fine DP (g=10u)", "1.0000", fmt_f(fine_ms.mean(), 2)});
  table.add_row({"coarse DP (80u x5)", fmt_f(coarse_rel_fine.mean(), 4),
                 fmt_f(coarse_ms.mean(), 2)});
  table.add_row({"tree-RIP-lite", fmt_f(hybrid_rel_fine.mean(), 4),
                 fmt_f(hybrid_ms.mean(), 2)});
  table.print(std::cout);
  std::cout << "\ncompared cases: " << cases << "\n";
  std::cout << "Reading: the hybrid should sit near the fine DP's quality "
               "(ratio ~1) at a fraction of its runtime — the chain "
               "algorithm's Table 2 story carried to trees.\n";
  bench::warn_unused(args);
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

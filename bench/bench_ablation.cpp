// Ablation study of RIP's design choices (DESIGN.md §4). Each variant
// modifies one knob of Algorithm RIP; all run on the same workload and
// are scored by mean total repeater width relative to the full default
// RIP, plus mean runtime. Variants:
//
//   full            the paper's configuration (reference)
//   no-movement     REFINE solves widths but never moves repeaters
//   refine-x2       REFINE executed twice (Section 7 suggestion)
//   zone-hop        movement may hop across forbidden zones (Section 7)
//   window+-2       stage-3 location window shrunk from +-10 to +-2
//   window+-20      stage-3 location window grown to +-20
//   fine-5u         stage-3 library granularity 5u instead of 10u
//   coarse-40u      stage-1 coarse library granularity 40u instead of 80u
//
// Environment: RIP_BENCH_NETS / RIP_BENCH_TARGETS / RIP_BENCH_JOBS
// shrink or parallelize the run; --nets / --targets / --jobs override.

#include <functional>
#include <iostream>
#include <vector>

#include "bench_env.hpp"
#include "core/rip.hpp"
#include "eval/workload.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

struct Variant {
  std::string name;
  rip::core::RipOptions options;
};

std::vector<Variant> make_variants() {
  using rip::core::RipOptions;
  std::vector<Variant> variants;

  variants.push_back({"full", RipOptions{}});

  RipOptions no_movement;
  no_movement.refine.max_iterations = 0;
  variants.push_back({"no-movement", no_movement});

  RipOptions refine_x2;
  refine_x2.refine_repeats = 2;
  variants.push_back({"refine-x2", refine_x2});

  RipOptions zone_hop;
  zone_hop.refine.allow_zone_hop = true;
  variants.push_back({"zone-hop", zone_hop});

  RipOptions window_small;
  window_small.window_half = 2;
  variants.push_back({"window+-2", window_small});

  RipOptions window_large;
  window_large.window_half = 20;
  variants.push_back({"window+-20", window_large});

  RipOptions fine5;
  fine5.fine_granularity_u = 5.0;
  variants.push_back({"fine-5u", fine5});

  RipOptions coarse40;
  coarse40.coarse_min_width_u = 40.0;
  coarse40.coarse_granularity_u = 40.0;
  coarse40.coarse_library_size = 10;
  variants.push_back({"coarse-40u", coarse40});

  return variants;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage(
        "bench_ablation [--nets N] [--targets N] [--jobs N]");
  }
  const tech::Technology tech = tech::make_tech180();
  const int nets = bench::net_count(args, 10);
  const int targets = bench::targets_per_net(args, 8);
  const int jobs = bench::jobs(args);

  std::cout << "=== Ablation: RIP design choices ===\n";
  std::cout << "(" << nets << " nets x " << targets << " targets, jobs "
            << jobs << "; width relative to the full configuration; "
            << "lower is better)\n\n";

  const auto workload =
      eval::make_paper_workload(tech, nets, 2005, {}, {}, jobs);
  const auto variants = make_variants();

  const std::size_t net_n = workload.size();
  const std::size_t tgt_n = static_cast<std::size_t>(targets);
  std::vector<std::vector<double>> taus;
  taus.reserve(net_n);
  for (const auto& wn : workload) {
    taus.push_back(eval::timing_targets_fs(wn.tau_min_fs, targets));
  }

  // Per (net, target) solves fan out over the pool; each task measures
  // its own wall clock and writes only its slot, so the aggregates are
  // identical at any job count (runtimes aside).
  struct Run {
    double width_u = -1.0;  ///< -1 = timing violated
    double millis = 0;
  };
  auto run_variant = [&](const core::RipOptions& options) {
    std::vector<Run> runs(net_n * tgt_n);
    parallel_for_indexed(runs.size(), jobs, [&](std::size_t k) {
      const std::size_t ni = k / tgt_n;
      const std::size_t ti = k % tgt_n;
      WallTimer timer;
      const auto r = core::rip_insert(workload[ni].net, tech.device(),
                                      taus[ni][ti], options);
      runs[k].millis = timer.millis();
      if (r.status == dp::Status::kOptimal) runs[k].width_u = r.total_width_u;
    });
    return runs;
  };

  // Reference pass: the full configuration.
  const auto reference = run_variant(variants.front().options);

  Table table({"variant", "rel_width", "delta_vs_full%", "violations",
               "runtime_ms"});
  for (const auto& variant : variants) {
    const auto runs = run_variant(variant.options);
    RunningStats rel;
    RunningStats runtime_ms;
    int violations = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      runtime_ms.add(runs[k].millis);
      if (runs[k].width_u < 0) {
        ++violations;
        continue;
      }
      if (reference[k].width_u > 0) rel.add(runs[k].width_u /
                                            reference[k].width_u);
    }
    const double mean_rel = rel.count() > 0 ? rel.mean() : 0.0;
    table.add_row({variant.name, fmt_f(mean_rel, 4),
                   fmt_f((mean_rel - 1.0) * 100.0, 2),
                   std::to_string(violations),
                   fmt_f(runtime_ms.mean(), 2)});
  }
  table.print(std::cout);
  std::cout << "\nReading: no-movement isolates the value of REFINE's "
               "repeater movement; zone-hop and refine-x2 are the paper's "
               "Section 7 extensions; the window rows probe the stage-3 "
               "location set; coarse-40u probes the stage-1 library.\n";
  bench::warn_unused(args);
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

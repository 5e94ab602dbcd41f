// rip_cli — the command-line face of the library. Drives the full flow
// from files, so RIP can sit inside a shell-scripted physical-design
// flow without writing any C++:
//
//   rip_cli gen      --seed 7 --out my.net            # draw a §6 net
//   rip_cli info     --net my.net                      # geometry + tau_min
//   rip_cli solve    --net my.net --target-x 1.3       # run Algorithm RIP
//                    [--target-ns 2.5] [--sol out.sol] [--spice out.sp]
//                    [--zone-hop] [--refine-repeats 2]
//   rip_cli baseline --net my.net --target-x 1.3 --granularity 20
//   rip_cli sweep    --net my.net --points 11 --csv sweep.csv
//   rip_cli compare  --net my.net --points 11 --granularity 20 --jobs 4
//   rip_cli check    --net my.net --sol out.sol [--target-ns 2.5]
//   rip_cli merge    --in s0.csv,s1.csv --out merged.csv
//
// Every net file is a netlist (net/netlist_io.hpp), text or binary: the
// commands above read a one-record file, gen writes --nets records, and
// netlist-convert and stream convert and sweep files of any size with
// bounded memory and checkpoint/resume (eval/stream.hpp):
//
//   rip_cli gen     --nets 1000 --out big.rnlb --format binary
//   rip_cli netlist-convert --in big.rnlb --out big.rnl
//   rip_cli stream  --in big.rnlb --out rows.csv --jobs 8
//                   --max-pending 64 --checkpoint big.ckpt --every 200
//   rip_cli stream  --in big.rnlb --out rows.csv --resume
//                   --checkpoint big.ckpt --every 200   # after a kill
//
// A custom technology file (riptech format) can replace the built-in
// 0.18 um kit everywhere with --tech kit.tech. The sweep/compare
// multi-target commands fan out over `--jobs N` worker threads
// (0 = all hardware threads) with results identical to --jobs 1, and
// split across processes/machines with `--shard I/N`: each shard
// solves a deterministic round-robin subset of the points (row `idx`
// is the global point index), and `merge` reassembles shard CSVs into
// the byte-identical unsharded table (runtime columns excepted — they
// are wall clock).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "dp/min_delay.hpp"
#include "dp/workspace.hpp"
#include "eval/experiments.hpp"
#include "eval/solve_cache.hpp"
#include "eval/stream.hpp"
#include "eval/workload.hpp"
#include "net/generator.hpp"
#include "net/netlist_io.hpp"
#include "net/solution_io.hpp"
#include "rc/buffered_chain.hpp"
#include "sim/spice.hpp"
#include "sim/transient.hpp"
#include "tech/objective.hpp"
#include "tech/tech_io.hpp"
#include "tech/technology.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace rip;

/// A user-input check: failure is a plain usage error, not a precondition.
void require_input(bool ok, const std::string& message) {
  if (!ok) throw Error(message);
}

int usage(int rc = 2) {
  std::cout <<
      "usage: rip_cli <command> [options]\n"
      "  gen      --seed N [--nets K] [--out file.net]\n"
      "           [--format text|binary] [--store-target-x F]\n"
      "           (K records in one netlist; stdout without --out)\n"
      "  info     --net file.net\n"
      "  solve    --net file.net (--target-ns T | --target-x F)\n"
      "           [--sol out.sol] [--spice out.sp] [--zone-hop]\n"
      "           [--refine-repeats N] [--backend NAME]\n"
      "  baseline --net file.net (--target-ns T | --target-x F)\n"
      "           [--granularity G] [--lib-size N] [--min-width W]\n"
      "           [--backend NAME]\n"
      "  sweep    --net file.net [--points N] [--csv out.csv] [--jobs N]\n"
      "           [--shard I/N] [--cache] [--cache-capacity N]\n"
      "           [--backend NAME]\n"
      "  compare  --net file.net [--points N] [--granularity G]\n"
      "           [--lib-size N] [--min-width W] [--csv out.csv]\n"
      "           [--jobs N] [--shard I/N] [--cache] [--cache-capacity N]\n"
      "           [--backend NAME[|NAME...]]\n"
      "  check    --net file.net --sol file.sol [--target-ns T]\n"
      "  merge    --in shard0.csv,shard1.csv[,...] --out merged.csv\n"
      "  netlist-convert --in file.rnl[b] --out file.rnl[b]\n"
      "           [--format text|binary]   (default: the other format)\n"
      "  stream   --in file.rnl[b] --out rows.csv [--jobs N]\n"
      "           [--max-pending N] [--checkpoint file --every N]\n"
      "           [--resume] [--stop-after N] [--target-x F]\n"
      "           [--errors quarantine.csv] [--deadline-ms F]\n"
      "           [--retry N] [--retry-base-ms N]\n"
      "           [--cache] [--cache-capacity N] [--cache-bytes N]\n"
      "           [--backend NAME]\n"
      "           exit codes: 0 ok, 2 error, 3 stopped early,\n"
      "           4 finished with quarantined records, 5 crashed\n"
      "net file:  a one-record netlist, text or binary; its stored\n"
      "           target is ignored\n"
      "common:    [--tech kit.tech] [--faults SPEC [--fault-seed N]]\n"
      "           (--faults = deterministic fault injection, e.g.\n"
      "           'netlist.read:err@17;solve.delay:50ms@p=0.01';\n"
      "           see util/fault.hpp for the grammar;\n"
      "           --jobs 0 = all hardware threads;\n"
      "           --shard I/N = solve shard I of an N-way split;\n"
      "           --cache = share one Pareto-frontier solve cache across\n"
      "           the sweep's points — identical output, hit/miss stats\n"
      "           on stderr;\n"
      "           --backend = objective backend: paper2005, activity,\n"
      "           lowswing (omitted = the paper's objective, byte-\n"
      "           identical legacy output); compare accepts 'a|b|c' for\n"
      "           side-by-side per-backend columns)\n";
  return rc;
}

tech::Technology load_tech(const CliArgs& args) {
  if (const auto path = args.get("tech")) {
    return tech::read_technology_file(*path);
  }
  return tech::make_tech180();
}

/// --cache / --cache-capacity: the optional per-invocation frontier
/// cache shared by every point of a sweep/compare. nullptr = caching
/// off (the default); results are bit-identical either way.
std::unique_ptr<eval::SolveCache> make_cache(const CliArgs& args) {
  if (!args.has("cache")) {
    require_input(!args.has("cache-capacity"),
                  "--cache-capacity requires --cache");
    require_input(!args.has("cache-bytes"), "--cache-bytes requires --cache");
    return nullptr;
  }
  eval::SolveCacheOptions options;
  options.capacity =
      static_cast<std::size_t>(count_option(args, "cache-capacity", 1024, 1));
  options.max_bytes = count_option(args, "cache-bytes", 0, 1);
  return std::make_unique<eval::SolveCache>(options);
}

/// --backend NAME -> an owned objective backend (tech/objective.hpp);
/// nullptr when the flag is absent, which keeps the paper's objective
/// and byte-identical legacy output. The multi-backend 'a|b|c' form is
/// compare-only; everywhere else one name is required.
std::unique_ptr<tech::ObjectiveBackend> backend_option(
    const CliArgs& args, const tech::Technology& tech) {
  const auto name = args.get("backend");
  if (!name) return nullptr;
  require_input(name->find('|') == std::string::npos,
                "--backend takes a single name here; the 'a|b|c' "
                "multi-backend form is compare-only");
  return tech::make_backend(*name, tech);
}

/// Cache counters go to stderr so CSV/stdout output stays diffable
/// against cache-off runs.
void print_cache_stats(const eval::SolveCache* cache) {
  if (cache == nullptr) return;
  const auto s = cache->stats();
  std::cerr << "cache: " << s.hits << " hits, " << s.misses << " misses, "
            << s.insertions << " insertions, " << s.evictions
            << " evictions, " << s.entries << " entries, " << s.bytes
            << " bytes\n";
}

/// --NAME as a finite number > 0 (a target or a factor), or `fallback`
/// when absent.
double positive_option(const CliArgs& args, const std::string& name,
                       double fallback) {
  const double v = args.get_double_or(name, fallback);
  require_input(std::isfinite(v) && v > 0,
                "--" + name + " must be finite and > 0");
  return v;
}

/// --NAME as an integer >= 1, or `fallback` when absent.
int positive_int_option(const CliArgs& args, const std::string& name,
                        int fallback) {
  const int v = args.get_int_or(name, fallback);
  require_input(v >= 1, "--" + name + " must be >= 1");
  return v;
}

/// The timing target of a single-net command: --target-ns T, or
/// --target-x F times the net's tau_min. Read, and checked, before any
/// file is opened.
struct TargetOption {
  double ns = 0;  ///< > 0 when given
  double x = 0;   ///< > 0 when given instead

  double fs(const net::Net& n, const tech::Technology& tech) const {
    const double target_fs =
        ns > 0 ? units::ns_to_fs(ns)
               : x * dp::min_delay(n, tech.device()).tau_min_fs;
    require_input(std::isfinite(target_fs),
                  ns > 0 ? "--target-ns is too large"
                         : "--target-x times tau_min is too large");
    return target_fs;
  }
};

TargetOption target_option(const CliArgs& args) {
  TargetOption target;
  if (args.has("target-ns")) {
    target.ns = positive_option(args, "target-ns", 0.0);
    return target;
  }
  require_input(args.has("target-x"), "need --target-ns or --target-x");
  target.x = positive_option(args, "target-x", 0.0);
  return target;
}

/// --format text|binary -> NetlistFormat, with a caller-chosen default
/// when the flag is absent.
net::NetlistFormat format_option(const CliArgs& args,
                                 net::NetlistFormat fallback) {
  const auto name = args.get("format");
  if (!name) return fallback;
  if (*name == "text") return net::NetlistFormat::kText;
  if (*name == "binary") return net::NetlistFormat::kBinary;
  throw Error("--format must be 'text' or 'binary', got '" + *name + "'");
}

int cmd_gen(const CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int count = args.get_int_or("nets", 1);
  require_input(count >= 1, "--nets must be >= 1");
  // --store-target-x F bakes tau_t = F * tau_min into each record (one
  // tau_min DP per net — meant for test-scale files); without it records
  // carry no target and `stream` resolves its --target-x default per net
  // at evaluation time.
  const double target_x = args.has("store-target-x")
                              ? positive_option(args, "store-target-x", 0.0)
                              : 0.0;
  const net::NetlistFormat format =
      format_option(args, net::NetlistFormat::kText);
  const tech::Technology tech = load_tech(args);
  const auto out = args.get("out");
  std::optional<net::NetlistWriter> writer;
  if (out) writer.emplace(*out, format);
  else writer.emplace(std::cout, format, "stdout");
  Rng rng(seed);
  net::RandomNetConfig config;
  for (int i = 0; i < count; ++i) {
    const std::string name = "net_" + std::to_string(i + 1);
    const net::Net n = net::random_net(tech, config, rng, name);
    const double tau_t_fs =
        target_x > 0 ? target_x * dp::min_delay(n, tech.device()).tau_min_fs
                     : 0.0;
    writer->add(n, tau_t_fs);
  }
  writer->close();
  if (out) {
    std::cout << "wrote " << *out << " (" << writer->count()
              << (writer->count() == 1 ? " net, " : " nets, ")
              << (format == net::NetlistFormat::kText ? "text" : "binary")
              << ")\n";
  }
  return 0;
}

int cmd_info(const CliArgs& args) {
  const tech::Technology tech = load_tech(args);
  const net::Net n = net::read_single_net(args.require("net"));
  const double unbuffered =
      rc::elmore_delay_fs(n, net::RepeaterSolution{}, tech.device());
  const auto md = dp::min_delay(n, tech.device());
  std::cout << "net " << n.name() << "\n";
  std::cout << "  length:      " << fmt_f(n.total_length_um() / 1000.0, 3)
            << " mm in " << n.segments().size() << " segments\n";
  std::cout << "  wire:        " << fmt_f(n.total_resistance_ohm(), 1)
            << " Ohm, " << fmt_f(n.total_capacitance_ff() / 1000.0, 2)
            << " pF\n";
  std::cout << "  driver:      " << n.driver_width_u() << " u, receiver: "
            << n.receiver_width_u() << " u\n";
  for (const auto& z : n.zones()) {
    std::cout << "  zone:        " << fmt_f(z.start_um / 1000.0, 2) << ".."
              << fmt_f(z.end_um / 1000.0, 2) << " mm\n";
  }
  std::cout << "  unbuffered:  "
            << fmt_unit(units::fs_to_ns(unbuffered), 3, "ns") << "\n";
  std::cout << "  tau_min:     "
            << fmt_unit(units::fs_to_ns(md.tau_min_fs), 3, "ns") << " ("
            << md.solution.size() << " repeaters)\n";
  return 0;
}

int cmd_solve(const CliArgs& args) {
  const TargetOption target = target_option(args);
  core::RipOptions options;
  options.refine.allow_zone_hop = args.has("zone-hop");
  options.refine_repeats = positive_int_option(args, "refine-repeats", 1);
  const tech::Technology tech = load_tech(args);
  const auto backend = backend_option(args, tech);
  const net::Net n = net::read_single_net(args.require("net"));
  const double tau_t = target.fs(n, tech);

  const auto r =
      core::rip_insert(n, tech.device(), tau_t, options,
                       dp::Workspace::local(), nullptr, backend.get());
  std::cout << "target: " << fmt_unit(units::fs_to_ns(tau_t), 3, "ns")
            << "\n";
  if (r.status != dp::Status::kOptimal) {
    std::cout << "INFEASIBLE: best achievable delay "
              << fmt_unit(units::fs_to_ns(r.delay_fs), 3, "ns") << "\n";
    return 1;
  }
  std::cout << "solution: " << r.solution.size() << " repeaters, width "
            << fmt_f(r.total_width_u, 1) << " u, delay "
            << fmt_unit(units::fs_to_ns(r.delay_fs), 3, "ns") << " ("
            << fmt_f(r.runtime_s * 1e3, 1) << " ms)\n";
  if (backend != nullptr) {
    std::cout << "objective (" << backend->name()
              << "): " << fmt_f(r.objective_cost, 1) << "\n";
  }
  for (const auto& rep : r.solution.repeaters()) {
    std::cout << "  x = " << fmt_f(rep.position_um, 0) << " um, w = "
              << fmt_f(rep.width_u, 0) << " u\n";
  }
  if (const auto sol = args.get("sol")) {
    std::ofstream out(*sol);
    require_input(out.good(), "cannot write " + *sol);
    net::write_solution(out, r.solution, n.name());
    std::cout << "solution written to " << *sol << "\n";
  }
  if (const auto spice = args.get("spice")) {
    std::ofstream out(*spice);
    require_input(out.good(), "cannot write " + *spice);
    sim::SpiceOptions spice_opts;
    spice_opts.vdd_v = tech.power().vdd_v;
    sim::write_spice_deck(out, n, r.solution, tech.device(), spice_opts);
    std::cout << "SPICE deck written to " << *spice << "\n";
  }
  return 0;
}

/// --min-width / --granularity / --lib-size: the baseline's uniform
/// library, checked as user input before it is built.
core::BaselineOptions baseline_library(const CliArgs& args) {
  const double min_width = args.get_double_or("min-width", 10.0);
  const double granularity = args.get_double_or("granularity", 10.0);
  const int lib_size = args.get_int_or("lib-size", 10);
  require_input(lib_size >= 1 && static_cast<std::size_t>(lib_size) <=
                                     dp::RepeaterLibrary::kMaxSize,
                "--lib-size must be in [1, 32768]");
  require_input(granularity > 0, "--granularity must be > 0");
  require_input(min_width > 0, "--min-width must be > 0");
  return core::BaselineOptions::uniform_library(min_width, granularity,
                                                lib_size);
}

int cmd_baseline(const CliArgs& args) {
  const auto options = baseline_library(args);
  const TargetOption target = target_option(args);
  const tech::Technology tech = load_tech(args);
  const auto backend = backend_option(args, tech);
  const net::Net n = net::read_single_net(args.require("net"));
  const double tau_t = target.fs(n, tech);
  const auto r =
      core::run_baseline(n, tech.device(), tau_t, options,
                         dp::Workspace::local(), nullptr, backend.get());
  std::cout << "target: " << fmt_unit(units::fs_to_ns(tau_t), 3, "ns")
            << "\n";
  if (r.status != dp::Status::kOptimal) {
    std::cout << "INFEASIBLE: best achievable delay "
              << fmt_unit(units::fs_to_ns(r.min_delay_fs), 3, "ns") << "\n";
    return 1;
  }
  std::cout << "baseline DP: " << r.solution.size() << " repeaters, width "
            << fmt_f(r.total_width_u, 1) << " u, delay "
            << fmt_unit(units::fs_to_ns(r.delay_fs), 3, "ns") << "\n";
  if (backend != nullptr) {
    std::cout << "objective (" << backend->name()
              << "): " << fmt_f(r.objective_cost, 1) << "\n";
  }
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  const int points = positive_int_option(args, "points", 11);
  const int jobs = parallel_jobs(args);
  const ShardSpec shard = shard_option(args);
  const tech::Technology tech = load_tech(args);
  const net::Net n = net::read_single_net(args.require("net"));
  const auto md = dp::min_delay(n, tech.device());

  // Solve this shard's points in parallel, then render in sweep order.
  std::vector<double> factors(static_cast<std::size_t>(points));
  for (int k = 0; k < points; ++k) {
    factors[static_cast<std::size_t>(k)] =
        1.05 + (points > 1 ? k * 1.0 / (points - 1) : 0.0);
  }
  const auto mine =
      shard_case_indices(factors.size(), shard.index, shard.count);
  std::vector<core::RipResult> runs(mine.size());
  // With --cache, every point's stage-1 coarse frontier is solved once
  // and shared (the sweep varies only the target) — on this thread's
  // local workspace either way, so cache-off stays the plain path.
  const std::unique_ptr<eval::SolveCache> cache = make_cache(args);
  const std::unique_ptr<tech::ObjectiveBackend> backend =
      backend_option(args, tech);
  parallel_for_indexed(runs.size(), jobs, [&](std::size_t j) {
    runs[j] = core::rip_insert(n, tech.device(),
                               factors[mine[j]] * md.tau_min_fs, {},
                               dp::Workspace::local(), cache.get(),
                               backend.get());
  });
  print_cache_stats(cache.get());

  Table table({"idx", "tau_t_ns", "tau_over_min", "width_u", "repeaters",
               "delay_ns"});
  for (std::size_t j = 0; j < runs.size(); ++j) {
    const std::size_t k = mine[j];
    const double tau_t = factors[k] * md.tau_min_fs;
    const auto& r = runs[j];
    table.add_row({std::to_string(k), fmt_f(units::fs_to_ns(tau_t), 3),
                   fmt_f(factors[k], 3),
                   r.status == dp::Status::kOptimal
                       ? fmt_f(r.total_width_u, 0)
                       : "VIOL",
                   std::to_string(r.solution.size()),
                   fmt_f(units::fs_to_ns(r.delay_fs), 3)});
  }
  if (const auto csv = args.get("csv")) {
    std::ofstream out(*csv);
    require_input(out.good(), "cannot write " + *csv);
    table.print_csv(out);
    std::cout << "sweep written to " << *csv << "\n";
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_compare(const CliArgs& args) {
  const auto baseline = baseline_library(args);
  const int points = positive_int_option(args, "points", 11);
  const tech::Technology tech = load_tech(args);
  const net::Net n = net::read_single_net(args.require("net"));
  const auto md = dp::min_delay(n, tech.device());

  const auto targets = eval::timing_targets_fs(md.tau_min_fs, points);
  // Objective backends: one sweep per requested backend. The default
  // (no --backend) single sweep keeps the legacy byte-identical table;
  // 'a|b|c' runs one sweep per backend and emits per-backend column
  // groups without the wall-clock columns, so the multi-backend table
  // is bit-identical at any jobs/shard combination. With --cache
  // every backend shares one frontier cache — solve keys fold the
  // backend identity, so entries never collide across backends.
  std::vector<std::unique_ptr<tech::ObjectiveBackend>> backends;
  std::vector<std::string> backend_names;
  if (const auto spec = args.get("backend")) {
    for (const auto& nm : split_on(*spec, '|')) {
      backends.push_back(tech::make_backend(trim(nm), tech));
      backend_names.push_back(backends.back()->name());
    }
  } else {
    backends.push_back(nullptr);
    backend_names.push_back("paper2005");
  }
  const bool multi = backends.size() > 1;

  // One run_case per sweep point this shard owns (every point without
  // --shard), fanned out over --jobs exactly as `sweep` does. A point's
  // fault key is its index within the shard. A failing point stops the
  // sweep and rethrows the lowest failing index's error.
  const int jobs = parallel_jobs(args);
  const ShardSpec shard = shard_option(args);
  const auto mine =
      shard_case_indices(targets.size(), shard.index, shard.count);
  const std::unique_ptr<eval::SolveCache> cache = make_cache(args);
  std::vector<std::vector<eval::CaseResult>> all_results(backends.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    all_results[b].resize(mine.size());
    parallel_for_indexed(mine.size(), jobs, [&](std::size_t j) {
      eval::SolveContext context;
      context.cache = cache.get();
      context.backend = backends[b].get();
      context.fault_key = j;
      all_results[b][j] =
          eval::run_case(n, tech, targets[mine[j]], {}, baseline, context);
    });
  }
  print_cache_stats(cache.get());

  std::vector<std::string> headers{"idx", "tau_t_ns", "tau_over_min"};
  if (multi) {
    for (const auto& nm : backend_names) {
      headers.push_back(nm + ":rip_u");
      headers.push_back(nm + ":dp_u");
      headers.push_back(nm + ":impr%");
    }
  } else {
    headers.insert(headers.end(),
                   {"rip_u", "dp_u", "impr%", "rip_ms", "dp_ms"});
  }
  Table table(headers);
  for (std::size_t j = 0; j < mine.size(); ++j) {
    const auto& r0 = all_results.front()[j];
    std::vector<std::string> cells{
        std::to_string(mine[j]), fmt_f(units::fs_to_ns(r0.tau_t_fs), 3),
        fmt_f(r0.tau_t_fs / md.tau_min_fs, 3)};
    for (std::size_t b = 0; b < all_results.size(); ++b) {
      const auto& r = all_results[b][j];
      cells.push_back(r.rip_feasible ? fmt_f(r.rip_width_u, 0) : "VIOL");
      cells.push_back(r.dp_feasible ? fmt_f(r.dp_width_u, 0) : "VIOL");
      cells.push_back(r.rip_feasible && r.dp_feasible
                          ? fmt_f(r.improvement_pct, 2)
                          : "-");
      if (!multi) {
        cells.push_back(fmt_f(r.rip_runtime_s * 1e3, 1));
        cells.push_back(fmt_f(r.dp_runtime_s * 1e3, 1));
      }
    }
    table.add_row(std::move(cells));
  }
  if (const auto csv = args.get("csv")) {
    std::ofstream out(*csv);
    require_input(out.good(), "cannot write " + *csv);
    table.print_csv(out);
    std::cout << "comparison written to " << *csv << "\n";
  } else {
    table.print(std::cout);
  }
  return 0;
}

// Reassemble shard CSVs (sweep/compare --shard output) into the full
// table: every row carries its global point index in the `idx` column,
// so the merge is a validated interleave — each index 0..total-1 must
// appear exactly once across the inputs, and every row must have the
// header's field count (a row cut short by a torn write is rejected).
int cmd_merge(const CliArgs& args) {
  const auto inputs = split_on(args.require("in"), ',');
  require_input(!inputs.empty() && !inputs.front().empty(),
                "--in needs a comma-separated list of shard CSVs");
  const auto field_count = [](const std::string& line) {
    return static_cast<std::size_t>(
               std::count(line.begin(), line.end(), ',')) + 1;
  };
  std::string header;
  std::vector<std::pair<std::size_t, std::string>> rows;
  for (const auto& path : inputs) {
    std::ifstream file(path);
    require_input(file.good(), "cannot read " + path);
    std::string line;
    bool first = true;
    while (std::getline(file, line)) {
      if (trim(line).empty()) continue;
      if (first) {
        first = false;
        require_input(starts_with(line, "idx,"),
                      path + " is not a sharded sweep CSV (no idx column)");
        if (header.empty()) header = line;
        require_input(line == header, path + " has a different header");
        continue;
      }
      const int idx = parse_int(line.substr(0, line.find(',')), path + " idx");
      require_input(idx >= 0, path + ": negative idx");
      require_input(field_count(line) == field_count(header),
                    path + ": idx " + std::to_string(idx) + " has " +
                        std::to_string(field_count(line)) +
                        " fields, the header has " +
                        std::to_string(field_count(header)));
      rows.emplace_back(static_cast<std::size_t>(idx), line);
    }
    require_input(!first, path + " is empty");
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].first != i) {
      throw Error(rows[i].first < i
                      ? "duplicate idx " + std::to_string(rows[i].first)
                      : "missing idx " + std::to_string(i) +
                            " (is a shard absent?)");
    }
  }
  const std::string out_path = args.require("out");
  std::ofstream out(out_path);
  require_input(out.good(), "cannot write " + out_path);
  out << header << "\n";
  for (const auto& [idx, line] : rows) out << line << "\n";
  std::cout << "merged " << rows.size() << " rows from " << inputs.size()
            << " shard(s) into " << out_path << "\n";
  return 0;
}

// Lossless text <-> binary netlist conversion, streamed record by
// record (constant memory at any file size). The default output format
// is whichever one the input is not; either direction round-trips to
// the byte-identical original (netlist_io_test pins that property).
int cmd_netlist_convert(const CliArgs& args) {
  const std::string in_path = args.require("in");
  const std::string out_path = args.require("out");
  net::NetlistReader reader(in_path);
  const net::NetlistFormat out_format =
      format_option(args, reader.format() == net::NetlistFormat::kText
                              ? net::NetlistFormat::kBinary
                              : net::NetlistFormat::kText);
  // A failed conversion leaves no partial output behind.
  std::optional<net::NetlistWriter> writer(std::in_place, out_path,
                                           out_format);
  try {
    while (auto record = reader.next()) {
      writer->add(record->net, record->tau_t_fs);
    }
    writer->close();
  } catch (...) {
    writer.reset();
    std::error_code ec;
    std::filesystem::remove(out_path, ec);
    throw;
  }
  std::cout << "converted " << writer->count() << " nets: " << in_path
            << " ("
            << (reader.format() == net::NetlistFormat::kText ? "text"
                                                             : "binary")
            << ") -> " << out_path << " ("
            << (out_format == net::NetlistFormat::kText ? "text" : "binary")
            << ")\n";
  return 0;
}

// The bounded-memory streaming sweep (eval/stream.hpp): every record of
// --in becomes one CSV row of --out, evaluated through the async
// service with --max-pending backpressure; peak RSS is set by the
// window, not the file. --checkpoint/--every make the run resumable
// after a kill; --stop-after simulates the kill for tests.
int cmd_stream(const CliArgs& args) {
  eval::StreamOptions options;
  options.jobs = parallel_jobs(args);
  // Strict counts: absent flags keep their defaults, but an explicit
  // nonsensical value (--max-pending 0, --every 0, --stop-after 0,
  // anything negative or non-numeric) is rejected up front with a
  // uniform message instead of surfacing as a confusing hang or no-op.
  options.max_pending =
      static_cast<std::size_t>(count_option(args, "max-pending", 64, 1));
  options.checkpoint_every = count_option(args, "every", 0, 1);
  if (const auto ckpt = args.get("checkpoint")) options.checkpoint_path = *ckpt;
  require_input(options.checkpoint_path.empty() || options.checkpoint_every > 0,
                "--checkpoint requires --every N");
  require_input(
      options.checkpoint_every == 0 || !options.checkpoint_path.empty(),
      "--every requires --checkpoint FILE");
  options.resume = args.has("resume");
  require_input(!options.resume || !options.checkpoint_path.empty(),
                "--resume requires --checkpoint FILE");
  options.stop_after = count_option(args, "stop-after", 0, 1);
  options.default_target_x = positive_option(args, "target-x", 1.5);
  if (const auto errors = args.get("errors")) options.errors_path = *errors;
  options.deadline_ms = args.get_double_or("deadline-ms", 0.0);
  require_input(std::isfinite(options.deadline_ms) && options.deadline_ms >= 0,
                "--deadline-ms must be finite and >= 0");
  options.retry.max_attempts = positive_int_option(args, "retry", 1);
  options.retry.base = std::chrono::milliseconds(
      positive_int_option(args, "retry-base-ms", 1));
  const std::unique_ptr<eval::SolveCache> cache = make_cache(args);
  const tech::Technology tech = load_tech(args);
  const std::unique_ptr<tech::ObjectiveBackend> backend =
      backend_option(args, tech);
  options.context.cache = cache.get();
  options.context.backend = backend.get();

  const auto result =
      eval::run_stream(tech, args.require("in"), args.require("out"), options);
  print_cache_stats(cache.get());
  std::cerr << "stream: " << result.rows_written << " rows this run ("
            << result.rows_total << " total, resumed from "
            << result.resumed_from << "), " << result.rows_quarantined
            << " quarantined (" << result.quarantined_total << " total), "
            << result.checkpoints_written << " checkpoints, "
            << (result.finished ? "finished" : "stopped early") << ", "
            << fmt_f(result.elapsed_s, 2) << " s";
  if (result.elapsed_s > 0) {
    std::cerr << ", "
              << fmt_f(result.rows_written / result.elapsed_s, 1)
              << " nets/s";
  }
  std::cerr << "\n";
  // Exit codes: 0 = clean, 3 = stopped early (stop_after), 4 = finished
  // but with quarantined records (partial success — the sidecar has the
  // casualty list). Crashes and hard errors exit from main (5 and 2).
  if (!result.finished) return 3;
  return result.quarantined_total > 0 ? 4 : 0;
}

int cmd_check(const CliArgs& args) {
  const bool timed = args.has("target-ns");
  const double target_ns = timed ? positive_option(args, "target-ns", 0.0) : 0;
  const tech::Technology tech = load_tech(args);
  const net::Net n = net::read_single_net(args.require("net"));
  const auto parsed = net::read_solution_file(args.require("sol"));
  if (!parsed.net_name.empty() && parsed.net_name != n.name()) {
    std::cout << "warning: solution was produced for net '"
              << parsed.net_name << "', checking against '" << n.name()
              << "'\n";
  }
  const bool legal = parsed.solution.legal_for(n);
  const double delay =
      rc::elmore_delay_fs(n, parsed.solution, tech.device());
  std::cout << "repeaters: " << parsed.solution.size() << ", width "
            << fmt_f(parsed.solution.total_width_u(), 1) << " u\n";
  std::cout << "placement: " << (legal ? "legal" : "ILLEGAL") << "\n";
  std::cout << "elmore delay: "
            << fmt_unit(units::fs_to_ns(delay), 3, "ns") << "\n";
  bool timing_ok = true;
  if (timed) {
    const double tau_t = units::ns_to_fs(target_ns);
    timing_ok = delay <= tau_t;
    std::cout << "timing: " << (timing_ok ? "MET" : "VIOLATED") << " (target "
              << fmt_unit(units::fs_to_ns(tau_t), 3, "ns") << ")\n";
  }
  return (legal && timing_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args =
        CliArgs::parse(argc, argv,
                       {"zone-hop", "help", "cache", "resume"});
    if (args.has("help")) return usage(0);
    // --faults overrides any RIP_FAULTS env configuration; --fault-seed
    // feeds the deterministic p= triggers.
    if (const auto faults = args.get("faults")) {
      rip::FaultInjector::configure(*faults,
                                    count_option(args, "fault-seed", 0));
    } else {
      require_input(!args.has("fault-seed"), "--fault-seed requires --faults");
    }
    int rc;
    if (args.command() == "gen") rc = cmd_gen(args);
    else if (args.command() == "info") rc = cmd_info(args);
    else if (args.command() == "solve") rc = cmd_solve(args);
    else if (args.command() == "baseline") rc = cmd_baseline(args);
    else if (args.command() == "sweep") rc = cmd_sweep(args);
    else if (args.command() == "compare") rc = cmd_compare(args);
    else if (args.command() == "check") rc = cmd_check(args);
    else if (args.command() == "merge") rc = cmd_merge(args);
    else if (args.command() == "netlist-convert") rc = cmd_netlist_convert(args);
    else if (args.command() == "stream") rc = cmd_stream(args);
    else return usage();
    for (const auto& name : args.unused()) {
      std::cerr << "warning: unused option --" << name << "\n";
    }
    return rc;
  } catch (const rip::InjectedCrash& e) {
    // The simulated process kill: no recovery layer may swallow it, so
    // it surfaces here with its own exit code — resume tests treat a
    // 5 exactly like a SIGKILL.
    std::cerr << "fatal: " << e.what() << "\n";
    return 5;
  } catch (const rip::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

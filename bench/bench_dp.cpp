// Microbenchmark of the DP kernels: single-solve latency, label
// throughput, and steady-state allocations on a reused dp::Workspace.
//
// Two kernel families share one harness:
//   - chain configs: paper-workload nets (Section 6 population) solved
//     in kMinPower mode across (library size, granularity, candidate
//     pitch) — the axes the pseudo-polynomial DP cost grows along;
//   - tree configs: random routing trees (the Section 7 extension)
//     solved in kMinPower mode across (sink count, candidates per edge,
//     library) — the axes the junction merges grow along;
//   - rip-final: RIP's stage 3, the bounded chain DP
//     (dp::run_chain_dp_bounded), on the chain configs' nets x targets.
//     Each case's inputs come from core::fine_problem over a rip_insert
//     run outside the measured region, bounded as rip_insert bounds it:
//     the cheaper of stage 1's cost and core::round_refine's as the
//     incumbent, and REFINE's lambda as the cost floor's delay price.
//
// Per configuration the bench reports mean us/solve, labels/second,
// prune ratio, arena peaks, and (at --jobs 1) the per-solve heap
// allocation count after warm-up, measured by the counting operator new
// below. Steady-state solves on a reused workspace must
// allocate nothing: the bench exits non-zero if any warmed-up kernel
// solve allocates (this is the regression gate for the zero-allocation
// SoA kernels, chain and tree alike). A second parity pass reruns the
// same gate at jobs=8 using per-thread allocation counters — the
// parallel counts must match the serial gate exactly (0), at any job
// count.
//
// Environment: RIP_BENCH_NETS / RIP_BENCH_TARGETS / RIP_BENCH_JOBS, with
// --nets / --targets / --jobs overrides, like every other bench. Extra
// knobs: --repeats R measured passes (default 3), --json PATH writes a
// machine-readable summary with the hardware it ran on (CI uploads it as
// BENCH_dp.json).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "core/rip.hpp"
#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/tree_dp.hpp"
#include "dp/workspace.hpp"
#include "eval/workload.hpp"
#include "net/candidates.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// ---------------------------------------------------- allocation counting
//
// This bench replaces the global operator new/delete with a counting
// malloc shim, so the zero-steady-state-allocation gate is *measured*,
// not eyeballed. The hook lives here, in the one binary that reads it —
// the library and the other benches run on the normal allocator.
// Replacement allocation functions must be defined once per program
// and must not be inline.

namespace rip::bench {
namespace alloc_detail {
// Process-wide totals. Relaxed fetch_add keeps every increment exact
// (atomic RMW can never tear or drop a count — relaxed only frees the
// *ordering* against other memory, which nothing here relies on) at a
// fraction of the seq_cst cost on the malloc hot path.
std::atomic<std::uint64_t> count{0};
std::atomic<std::uint64_t> bytes{0};
// Per-thread counters, bumped alongside the globals. These are what
// make per-solve sampling exact under --jobs > 1: a global sample taken
// around one worker's solve would also count every allocation its
// neighbours performed in that window, but a thread can read its own
// counter free of any cross-thread traffic.
thread_local std::uint64_t thread_count = 0;
thread_local std::uint64_t thread_bytes = 0;

void* counted_alloc(std::size_t size) noexcept {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  ++thread_count;
  thread_bytes += size;
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size,
                                   std::size_t align) noexcept {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  ++thread_count;
  thread_bytes += size;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace alloc_detail

/// Heap allocations (any thread) since process start.
std::uint64_t alloc_count() {
  return alloc_detail::count.load(std::memory_order_relaxed);
}

/// Bytes requested from the heap since process start.
std::uint64_t alloc_bytes() {
  return alloc_detail::bytes.load(std::memory_order_relaxed);
}

/// Heap allocations performed by the *calling thread* since it started.
std::uint64_t thread_alloc_count() {
  return alloc_detail::thread_count;
}

/// Scoped sample: allocations between construction and delta().
/// Process-wide — only meaningful when nothing else is allocating
/// concurrently (jobs=1). Use ThreadAllocSample inside parallel workers.
class AllocSample {
 public:
  AllocSample() : start_(alloc_count()) {}
  std::uint64_t delta() const { return alloc_count() - start_; }

 private:
  std::uint64_t start_;
};

/// Scoped sample of the calling thread's own allocations. Exact at any
/// job count: construct and read delta() on the same thread that runs
/// the measured code.
class ThreadAllocSample {
 public:
  ThreadAllocSample() : start_(thread_alloc_count()) {}
  std::uint64_t delta() const { return thread_alloc_count() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace rip::bench

void* operator new(std::size_t size) {
  if (void* p = rip::bench::alloc_detail::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = rip::bench::alloc_detail::counted_aligned_alloc(
          size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

struct KernelConfig {
  std::string name;
  double min_width_u;
  double granularity_u;
  int library_size;
  /// Chain configs: candidate pitch. Tree configs: 0 (not applicable).
  double pitch_um;
};

struct TreeKernelConfig {
  std::string name;
  int sink_count;
  int candidates_per_edge;
  double min_width_u;
  double granularity_u;
  int library_size;
};

struct ConfigReport {
  KernelConfig config;
  std::size_t solves = 0;
  double mean_us_per_solve = 0;
  double labels_per_sec = 0;
  double labels_per_solve = 0;
  double prune_ratio = 0;
  std::size_t labels_peak = 0;
  std::size_t arena_peak = 0;
  /// Max heap allocations in any single warmed-up kernel solve
  /// (reconstruction off); only measured at jobs == 1, else -1.
  long long steady_allocs_per_solve = -1;
  /// Same gate measured under 8-way parallelism with per-thread
  /// counters: each worker warms its own workspace on a case, then
  /// samples its own thread-local allocation counter around a repeat of
  /// that exact solve. Must equal the jobs=1 figure (0) — concurrency
  /// may not change the allocation count.
  long long steady_allocs_jobs8 = -1;
  /// Mean allocations of a full solve (reconstruction on), after
  /// warm-up; only measured at jobs == 1, else -1.
  double full_solve_allocs = -1;
};

struct CaseRef {
  const rip::net::Net* net;
  const std::vector<double>* candidates;
  double tau_t_fs;
};

struct TreeCaseRef {
  const rip::dp::BufferTree* tree;
  double tau_t_fs;
};

/// Shared measurement harness: warm-up, timed/alloc-gated serial or
/// parallel measured passes, the jobs=8 alloc-parity pass, and the
/// derived rates. `solve(i, full)` runs case i (full = reconstruction
/// on) and returns its DpStats.
template <class Solve>
void measure_config(ConfigReport& report, std::size_t case_count, int repeats,
                    int jobs, Solve&& solve,
                    bool& steady_state_clean, bool& alloc_parity_clean) {
  using rip::WallTimer;
  using rip::parallel_for_indexed;
  report.solves = case_count * static_cast<std::size_t>(repeats);

  // Warm-up pass: grow every arena of every participating workspace to
  // the configuration's peak shape. Not timed, not alloc-counted.
  parallel_for_indexed(case_count, jobs,
                       [&](std::size_t i) { solve(i, false); });

  std::size_t labels_created = 0;
  std::size_t labels_pruned = 0;
  double total_s = 0;
  if (jobs == 1) {
    // Serial: per-solve latency and the steady-state allocation gate.
    long long max_allocs = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      for (std::size_t i = 0; i < case_count; ++i) {
        const rip::bench::AllocSample sample;
        WallTimer timer;
        const rip::dp::DpStats stats = solve(i, false);
        total_s += timer.seconds();
        const auto allocs = static_cast<long long>(sample.delta());
        max_allocs = std::max(max_allocs, allocs);
        labels_created += stats.labels_created;
        labels_pruned += stats.labels_pruned;
        report.labels_peak = std::max(report.labels_peak, stats.labels_peak);
        report.arena_peak = std::max(report.arena_peak, stats.arena_peak);
      }
    }
    report.steady_allocs_per_solve = max_allocs;
    if (max_allocs != 0) steady_state_clean = false;

    // Full solves (reconstruction on) for the informational
    // allocations-per-complete-solve figure.
    const rip::bench::AllocSample full_sample;
    for (std::size_t i = 0; i < case_count; ++i) solve(i, true);
    report.full_solve_allocs =
        static_cast<double>(full_sample.delta()) /
        static_cast<double>(std::max<std::size_t>(case_count, 1));
  } else {
    // Parallel: wall-clock throughput over the fanned-out case list;
    // per-case stats are gathered into index-addressed slots.
    std::vector<rip::dp::DpStats> stats(case_count);
    WallTimer timer;
    for (int rep = 0; rep < repeats; ++rep) {
      parallel_for_indexed(case_count, jobs, [&](std::size_t i) {
        stats[i] = solve(i, false);
      });
    }
    total_s = timer.seconds();
    for (const auto& s : stats) {
      labels_created += s.labels_created * static_cast<std::size_t>(repeats);
      labels_pruned += s.labels_pruned * static_cast<std::size_t>(repeats);
      report.labels_peak = std::max(report.labels_peak, s.labels_peak);
      report.arena_peak = std::max(report.arena_peak, s.arena_peak);
    }
  }

  // Allocation-parity pass: rerun the steady-state gate under 8-way
  // parallelism. Each worker warms its own thread-local workspace on
  // case i, then samples *its own* allocation counter around a repeat
  // of that exact solve — ThreadAllocSample cannot absorb a
  // neighbour's traffic the way a process-wide sample would, so the
  // count is exact and the gate stays the strict zero of the serial
  // pass. Runs regardless of --jobs (it is its own fixed-width pass).
  {
    std::vector<long long> parity_allocs(case_count, 0);
    parallel_for_indexed(case_count, 8, [&](std::size_t i) {
      solve(i, false);  // warm this worker's workspace
      const rip::bench::ThreadAllocSample sample;
      solve(i, false);
      parity_allocs[i] = static_cast<long long>(sample.delta());
    });
    report.steady_allocs_jobs8 =
        parity_allocs.empty()
            ? 0
            : *std::max_element(parity_allocs.begin(), parity_allocs.end());
    if (report.steady_allocs_jobs8 != 0) alloc_parity_clean = false;
  }

  report.mean_us_per_solve =
      report.solves == 0 ? 0
                         : total_s / static_cast<double>(report.solves) * 1e6;
  report.labels_per_sec =
      total_s == 0 ? 0 : static_cast<double>(labels_created) / total_s;
  report.labels_per_solve =
      report.solves == 0
          ? 0
          : static_cast<double>(labels_created) /
                static_cast<double>(report.solves);
  report.prune_ratio =
      labels_created == 0
          ? 0
          : static_cast<double>(labels_pruned) /
                static_cast<double>(labels_created);
}

void print_report(const ConfigReport& report) {
  using rip::fmt_f;
  std::cout << "  " << report.config.name << ": " << report.solves
            << " solves, " << fmt_f(report.mean_us_per_solve, 1)
            << " us/solve, " << fmt_f(report.labels_per_sec / 1e6, 2)
            << " Mlabels/s, " << fmt_f(report.labels_per_solve, 0)
            << " labels/solve, "
            << "prune " << fmt_f(report.prune_ratio * 100, 1) << "%, "
            << "peak " << report.labels_peak << " labels / "
            << report.arena_peak << " arena";
  if (report.steady_allocs_per_solve >= 0) {
    std::cout << ", steady allocs/solve " << report.steady_allocs_per_solve
              << ", full-solve allocs " << fmt_f(report.full_solve_allocs, 1);
  }
  std::cout << ", jobs8 allocs " << report.steady_allocs_jobs8 << "\n";
}

/// The CPU model from /proc/cpuinfo ("unknown" where there is none).
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return rip::trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

/// The compiler that built this binary.
std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "g++ " __VERSION__;
#else
  return "unknown";
#endif
}

/// `text` as a JSON string literal.
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage(
        "bench_dp [--nets N] [--targets N] [--repeats N] [--jobs N] "
        "[--json PATH]");
  }
  const tech::Technology tech = tech::make_tech180();

  const int nets = bench::net_count(args, 4);
  const int targets = bench::targets_per_net(args, 10);
  const int repeats = args.get_int_or("repeats", 3);
  if (repeats < 1) throw Error("--repeats expects an integer >= 1");
  const int jobs = bench::jobs(args);
  const std::string json_path = args.get_or("json", "");

  std::cout << "=== DP kernel bench (" << nets << " nets x " << targets
            << " targets, " << repeats << " repeats, jobs " << jobs
            << ") ===\n";

  const auto workload =
      eval::make_paper_workload(tech, nets, 2005, {}, {}, jobs);

  const std::vector<KernelConfig> configs = {
      {"table1-g10-lib10-p200", 10.0, 10.0, 10, 200.0},
      {"table1-g40-lib10-p200", 10.0, 40.0, 10, 200.0},
      {"rip-coarse-g80-lib5-p200", 80.0, 80.0, 5, 200.0},
      {"dense-g10-lib20-p100", 10.0, 10.0, 20, 100.0},
  };

  std::vector<ConfigReport> reports;
  bool steady_state_clean = true;
  bool alloc_parity_clean = true;

  for (const KernelConfig& cfg : configs) {
    const dp::RepeaterLibrary library = dp::RepeaterLibrary::uniform(
        cfg.min_width_u, cfg.granularity_u, cfg.library_size);

    // Candidate lists per net (one allocation each, outside the
    // measured region) and the flat net x target case list.
    std::vector<std::vector<double>> candidates;
    candidates.reserve(workload.size());
    for (const auto& wn : workload)
      candidates.push_back(net::uniform_candidates(wn.net, cfg.pitch_um));
    std::vector<CaseRef> cases;
    for (std::size_t ni = 0; ni < workload.size(); ++ni) {
      for (const double tau :
           eval::timing_targets_fs(workload[ni].tau_min_fs, targets)) {
        cases.push_back(CaseRef{&workload[ni].net, &candidates[ni], tau});
      }
    }

    ConfigReport report;
    report.config = cfg;
    measure_config(
        report, cases.size(), repeats, jobs,
        [&](std::size_t i, bool full) {
          dp::ChainDpOptions options;
          options.mode = dp::Mode::kMinPower;
          options.reconstruct_solutions = full;
          options.timing_target_fs = cases[i].tau_t_fs;
          return dp::run_chain_dp(*cases[i].net, tech.device(), library,
                                  *cases[i].candidates, options).stats;
        },
        steady_state_clean, alloc_parity_clean);
    reports.push_back(report);
    print_report(report);
  }

  // ---- RIP's stage 3: the bounded kernel under the same gates, on the
  // cases whose RIP run reaches stage 3 (prepared serially, untimed).
  {
    const core::RipOptions rip_options;
    struct FinalCase {
      const net::Net* net;
      double tau_t_fs, incumbent_cost, lambda;
      core::FineProblem problem;
    };
    std::vector<FinalCase> finals;
    for (const auto& wn : workload) {
      for (const double tau : eval::timing_targets_fs(wn.tau_min_fs, targets)) {
        const core::RipResult rip =
            core::rip_insert(wn.net, tech.device(), tau, rip_options);
        if (rip.coarse.status != dp::Status::kOptimal ||
            rip.coarse.solution.empty() || !rip.refined.width_solve_ok) {
          continue;
        }
        FinalCase c{&wn.net, tau, 0, rip.refined.lambda,
                    core::fine_problem(wn.net, rip.refined, rip_options)};
        dp::ChainDpOptions options;
        options.timing_target_fs = tau;
        options.allowed_buffers = &c.problem.allowed;
        c.incumbent_cost =
            std::min(core::round_refine(wn.net, tech.device(), c.problem,
                                        options, dp::Workspace::local())
                         .objective_cost,
                     rip.coarse.objective_cost);
        finals.push_back(std::move(c));
      }
    }
    ConfigReport report;
    report.config = {"rip-final", rip_options.fine_min_width_u,
                     rip_options.fine_granularity_u, 0,
                     rip_options.window_pitch_um};
    measure_config(
        report, finals.size(), repeats, jobs,
        [&](std::size_t i, bool full) {
          const FinalCase& c = finals[i];
          dp::ChainDpOptions options;
          options.reconstruct_solutions = full;
          options.timing_target_fs = c.tau_t_fs;
          options.allowed_buffers = &c.problem.allowed;
          return dp::run_chain_dp_bounded(
                     *c.net, tech.device(), c.problem.library,
                     c.problem.candidates_um, options, c.incumbent_cost,
                     dp::Workspace::local(), c.lambda)
              .stats;
        },
        steady_state_clean, alloc_parity_clean);
    reports.push_back(report);
    print_report(report);
  }

  // ---- Tree kernel configurations. Same harness, same gates: the SoA
  // tree kernel must be as allocation-clean as the chain kernel.
  const std::vector<TreeKernelConfig> tree_configs = {
      {"tree-s6-c3-g40-lib10", 6, 3, 40.0, 40.0, 10},
      {"tree-s10-c4-g40-lib10", 10, 4, 40.0, 40.0, 10},
      {"tree-s6-c3-g80-lib5", 6, 3, 80.0, 80.0, 5},
  };
  const double tree_driver_width_u = 120.0;

  for (const TreeKernelConfig& cfg : tree_configs) {
    const dp::RepeaterLibrary library = dp::RepeaterLibrary::uniform(
        cfg.min_width_u, cfg.granularity_u, cfg.library_size);

    // Random trees off a fixed seed (outside the measured region), metal4
    // RC like bench_tree; targets are factors of each tree's min-delay.
    dp::RandomTreeConfig tree_config;
    tree_config.sink_count = cfg.sink_count;
    tree_config.candidates_per_edge = cfg.candidates_per_edge;
    tree_config.edge_length_min_um = 1200.0;
    tree_config.edge_length_max_um = 3000.0;
    tree_config.r_ohm_per_um = tech.layer("metal4").r_ohm_per_um;
    tree_config.c_ff_per_um = tech.layer("metal4").c_ff_per_um;
    Rng rng(2005);
    std::vector<dp::BufferTree> trees;
    trees.reserve(static_cast<std::size_t>(nets));
    for (int t = 0; t < nets; ++t)
      trees.push_back(dp::random_buffer_tree(tree_config, rng));

    std::vector<double> min_delay_fs(trees.size());
    parallel_for_indexed(trees.size(), jobs, [&](std::size_t i) {
      dp::ChainDpOptions delay_mode;
      delay_mode.mode = dp::Mode::kMinDelay;
      delay_mode.reconstruct_solutions = false;
      min_delay_fs[i] = dp::run_tree_dp(trees[i], tech.device(),
                                        tree_driver_width_u, library,
                                        delay_mode).delay_fs;
    });

    std::vector<TreeCaseRef> cases;
    for (std::size_t ti = 0; ti < trees.size(); ++ti) {
      for (int tgt = 0; tgt < targets; ++tgt) {
        const double factor = 1.1 + 0.9 * tgt / std::max(1, targets - 1);
        cases.push_back(TreeCaseRef{&trees[ti], factor * min_delay_fs[ti]});
      }
    }

    ConfigReport report;
    report.config = KernelConfig{cfg.name, cfg.min_width_u, cfg.granularity_u,
                                 cfg.library_size, 0.0};
    measure_config(
        report, cases.size(), repeats, jobs,
        [&](std::size_t i, bool full) {
          dp::ChainDpOptions options;
          options.mode = dp::Mode::kMinPower;
          options.reconstruct_solutions = full;
          options.timing_target_fs = cases[i].tau_t_fs;
          return dp::run_tree_dp(*cases[i].tree, tech.device(),
                                 tree_driver_width_u, library, options).stats;
        },
        steady_state_clean, alloc_parity_clean);
    reports.push_back(report);
    print_report(report);
  }

  std::cout << "process heap: " << bench::alloc_count() << " allocations, "
            << fmt_f(static_cast<double>(bench::alloc_bytes()) / 1e6, 1)
            << " MB requested\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    RIP_REQUIRE(out.good(), "cannot open --json output file " + json_path);
    out << "{\n  \"workload\": {\"nets\": " << nets
        << ", \"targets_per_net\": " << targets << ", \"repeats\": "
        << repeats << ", \"jobs\": " << jobs
        << ", \"seed\": 2005},\n  \"hardware\": {\"nproc\": "
        << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << json_string(cpu_model())
        << ", \"compiler\": " << json_string(compiler())
        << "},\n  \"configs\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const ConfigReport& r = reports[i];
      out << "    {\"name\": \"" << r.config.name << "\", \"library_size\": "
          << r.config.library_size << ", \"granularity_u\": "
          << r.config.granularity_u << ", \"pitch_um\": " << r.config.pitch_um
          << ", \"solves\": " << r.solves << ", \"ns_per_solve\": "
          << r.mean_us_per_solve * 1e3 << ", \"labels_per_sec\": "
          << r.labels_per_sec << ", \"labels_per_solve\": "
          // Exact digits: tools/perf_gate.py compares it with ==.
          << net::format_double_exact(r.labels_per_solve)
          << ", \"prune_ratio\": " << r.prune_ratio
          << ", \"labels_peak\": " << r.labels_peak << ", \"arena_peak\": "
          << r.arena_peak << ", \"steady_allocs_per_solve\": "
          << r.steady_allocs_per_solve << ", \"steady_allocs_jobs8\": "
          << r.steady_allocs_jobs8 << ", \"full_solve_allocs\": "
          << r.full_solve_allocs << "}" << (i + 1 < reports.size() ? "," : "")
          << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  bench::warn_unused(args);
  if (jobs == 1 && !steady_state_clean) {
    std::cerr << "FAIL: a warmed-up kernel solve allocated on a reused "
                 "workspace (steady_allocs_per_solve above must be 0)\n";
    return 3;
  }
  if (!alloc_parity_clean) {
    std::cerr << "FAIL: a warmed-up kernel solve allocated under jobs=8 "
                 "(steady_allocs_jobs8 must match the jobs=1 gate of 0)\n";
    return 4;
  }
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

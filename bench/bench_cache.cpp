// Benchmark of the sharded Pareto-frontier solve cache (eval/
// solve_cache.hpp) under warm repeat traffic.
//
// Production-shaped stream: a zipf-like mix of (net, timing target)
// queries — a few hot nets dominate, every net is re-queried at many
// targets — exactly the traffic the target-relative frontier cache is
// built for. The bench times the stream twice: cold (no cache, every
// query runs the full chain DP) and warm (shared SolveCache, every
// query after a net's first is an O(frontier) selection walk), and
// reports the speedup plus the cache's own hit/miss counters.
//
// Correctness gate: for every unique (net, target) case, at jobs 1 and
// jobs 8, the cached result must be bit-identical to the cold solve in
// every field except stats.workspace_reuses (cached stats canonicalize
// warmth to 0). The bench exits non-zero when any field differs or when
// the stream hit-rate falls below 0.9 — CI parses both from the JSON.
//
// Environment: RIP_BENCH_NETS / RIP_BENCH_TARGETS / RIP_BENCH_JOBS with
// --nets / --targets / --jobs overrides, like every other bench. Extra
// knobs: --stream F repeats of the case space in the query stream
// (default 4), --capacity / --shards cache geometry, --json PATH writes
// the machine-readable summary (CI uploads it as BENCH_cache.json).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "eval/solve_cache.hpp"
#include "eval/workload.hpp"
#include "net/candidates.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

struct CaseRef {
  const rip::net::Net* net;
  const std::vector<double>* candidates;
  double tau_t_fs;
};

/// Exact equality of two solutions (positions and widths are produced by
/// identical arithmetic on identical arrays, so == is the right test).
bool same_solution(const rip::net::RepeaterSolution& a,
                   const rip::net::RepeaterSolution& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.repeaters()[i].position_um != b.repeaters()[i].position_um ||
        a.repeaters()[i].width_u != b.repeaters()[i].width_u)
      return false;
  }
  return true;
}

/// Bit-identity in every documented-deterministic field. The one
/// permitted difference is stats.workspace_reuses (warmth counter).
bool same_result(const rip::dp::ChainDpResult& a,
                 const rip::dp::ChainDpResult& b) {
  return a.status == b.status && a.delay_fs == b.delay_fs &&
         a.total_width_u == b.total_width_u &&
         a.min_delay_fs == b.min_delay_fs &&
         same_solution(a.solution, b.solution) &&
         same_solution(a.min_delay_solution, b.min_delay_solution) &&
         a.stats.labels_created == b.stats.labels_created &&
         a.stats.labels_peak == b.stats.labels_peak &&
         a.stats.positions == b.stats.positions &&
         a.stats.labels_pruned == b.stats.labels_pruned &&
         a.stats.arena_peak == b.stats.arena_peak;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage(
        "bench_cache [--nets N] [--targets N] [--jobs N] [--stream K] "
        "[--capacity N] [--shards N] [--json PATH]");
  }
  const tech::Technology tech = tech::make_tech180();

  const int nets = bench::net_count(args, 4);
  const int targets = bench::targets_per_net(args, 8);
  const int jobs = bench::jobs(args);
  const std::uint64_t stream_factor = count_option(args, "stream", 4, 1);
  const std::uint64_t capacity = count_option(args, "capacity", 1024, 1);
  const std::uint64_t shards = count_option(args, "shards", 16, 1);
  const std::string json_path = args.get_or("json", "");

  std::cout << "=== solve-cache bench (" << nets << " nets x " << targets
            << " targets, stream x" << stream_factor << ", capacity "
            << capacity << ", shards " << shards << ") ===\n";

  // A dense library (40 widths at 10u pitch) so the cold DP is expensive
  // — the regime where frontier reuse pays.
  const auto workload = eval::make_paper_workload(tech, nets, 2005, {},
                                                  {10.0, 400.0, 10.0, 200.0},
                                                  jobs);
  const dp::RepeaterLibrary library =
      dp::RepeaterLibrary::uniform(10.0, 10.0, 40);

  std::vector<std::vector<double>> candidates;
  candidates.reserve(workload.size());
  for (const auto& wn : workload)
    candidates.push_back(net::uniform_candidates(wn.net, 200.0));

  std::vector<CaseRef> cases;
  cases.reserve(workload.size() * static_cast<std::size_t>(targets));
  for (std::size_t ni = 0; ni < workload.size(); ++ni) {
    const auto t = eval::timing_targets_fs(workload[ni].tau_min_fs, targets);
    for (const double tau : t)
      cases.push_back(CaseRef{&workload[ni].net, &candidates[ni], tau});
  }
  RIP_REQUIRE(!cases.empty(), "empty case space (nets/targets too small)");

  // Zipf-like query stream: net rank r is drawn with weight 1/(r+1)
  // (hot-head, long-tail), the target uniformly. A fixed-seed LCG keeps
  // the stream reproducible run to run.
  std::vector<double> cumulative(workload.size());
  double total_weight = 0;
  for (std::size_t r = 0; r < workload.size(); ++r) {
    total_weight += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = total_weight;
  }
  std::uint64_t lcg = 0x2005cafeULL;
  const auto next_u01 = [&lcg]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(lcg >> 11) * 0x1.0p-53;
  };
  std::vector<std::size_t> stream;
  stream.reserve(cases.size() * static_cast<std::size_t>(stream_factor));
  for (std::size_t s = 0;
       s < cases.size() * static_cast<std::size_t>(stream_factor); ++s) {
    const double draw = next_u01() * total_weight;
    std::size_t ni = 0;
    while (ni + 1 < cumulative.size() && cumulative[ni] < draw) ++ni;
    const auto ti = static_cast<std::size_t>(
        next_u01() * static_cast<double>(targets));
    stream.push_back(ni * static_cast<std::size_t>(targets) +
                     std::min(ti, static_cast<std::size_t>(targets) - 1));
  }

  dp::ChainDpOptions options;
  options.mode = dp::Mode::kMinPower;
  options.reconstruct_solutions = true;

  const auto solve_stream = [&](dp::Workspace& ws,
                                dp::ChainSolveCache* cache) {
    for (const std::size_t k : stream) {
      dp::ChainDpOptions o = options;
      o.timing_target_fs = cases[k].tau_t_fs;
      dp::run_chain_dp_cached(*cases[k].net, tech.device(), library,
                              *cases[k].candidates, o, ws, cache);
    }
  };

  // Cold per-case baseline for the identity gate below. Doubles as the
  // arena warm-up for the timed cold pass (32 solves instead of
  // replaying the whole stream untimed).
  std::vector<dp::ChainDpResult> cold(cases.size());
  dp::Workspace cold_ws;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    dp::ChainDpOptions o = options;
    o.timing_target_fs = cases[i].tau_t_fs;
    cold[i] = dp::run_chain_dp(*cases[i].net, tech.device(), library,
                               *cases[i].candidates, o, cold_ws);
  }

  // Cold pass: every stream query runs the full DP.
  WallTimer cold_timer;
  solve_stream(cold_ws, nullptr);
  const double uncached_s = cold_timer.seconds();

  // Warm pass: one priming sweep fills the cache (each net misses
  // exactly once — the key excludes the target), then the timed sweep
  // is all selection walks.
  eval::SolveCache cache({static_cast<std::size_t>(capacity),
                          static_cast<std::size_t>(shards)});
  dp::Workspace warm_ws;
  solve_stream(warm_ws, &cache);
  WallTimer warm_timer;
  solve_stream(warm_ws, &cache);
  const double warm_s = warm_timer.seconds();

  const eval::SolveCacheStats stats = cache.stats();
  const double speedup = warm_s > 0 ? uncached_s / warm_s : 0;

  std::cout << "  stream: " << stream.size() << " queries over "
            << cases.size() << " cases (" << workload.size() << " nets)\n";
  std::cout << "  cold:   " << fmt_f(uncached_s * 1e3, 1) << " ms ("
            << fmt_f(uncached_s / static_cast<double>(stream.size()) * 1e6, 1)
            << " us/query)\n";
  std::cout << "  warm:   " << fmt_f(warm_s * 1e3, 3) << " ms ("
            << fmt_f(warm_s / static_cast<double>(stream.size()) * 1e6, 2)
            << " us/query), speedup " << fmt_f(speedup, 1) << "x\n";
  std::cout << "  cache:  " << stats.hits << " hits, " << stats.misses
            << " misses (hit rate " << fmt_f(stats.hit_rate() * 100, 1)
            << "%), " << stats.entries << " entries, " << stats.evictions
            << " evictions, " << stats.bytes << " bytes\n";

  // Identity gate: cached answers must be bit-identical to cold solves
  // for every unique case, serially and under 8-way parallelism (shared
  // cache, per-thread dirty workspaces).
  bool identical = true;
  for (const int check_jobs : {1, 8}) {
    eval::SolveCache check_cache({static_cast<std::size_t>(capacity),
                                  static_cast<std::size_t>(shards)});
    std::vector<char> ok(cases.size(), 1);
    parallel_for_indexed(cases.size(), check_jobs, [&](std::size_t i) {
      dp::ChainDpOptions o = options;
      o.timing_target_fs = cases[i].tau_t_fs;
      const auto r = dp::run_chain_dp_cached(
          *cases[i].net, tech.device(), library, *cases[i].candidates, o,
          dp::Workspace::local(), &check_cache);
      ok[i] = same_result(r, cold[i]) ? 1 : 0;
    });
    const bool all = std::all_of(ok.begin(), ok.end(),
                                 [](char c) { return c != 0; });
    std::cout << "  identity (jobs " << check_jobs << "): "
              << (all ? "bit-identical to cold solves" : "MISMATCH") << "\n";
    if (!all) identical = false;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    RIP_REQUIRE(out.good(), "cannot open --json output file " + json_path);
    out << "{\n  \"workload\": {\"nets\": " << nets
        << ", \"targets_per_net\": " << targets << ", \"stream_factor\": "
        << stream_factor << ", \"queries\": " << stream.size()
        << ", \"seed\": 2005},\n"
        << "  \"cache\": {\"capacity\": " << capacity << ", \"shards\": "
        << cache.shard_count() << ", \"hits\": " << stats.hits
        << ", \"misses\": " << stats.misses << ", \"hit_rate\": "
        << stats.hit_rate() << ", \"entries\": " << stats.entries
        << ", \"evictions\": " << stats.evictions << ", \"bytes\": "
        << stats.bytes << "},\n"
        << "  \"uncached_s\": " << uncached_s << ",\n"
        << "  \"warm_s\": " << warm_s << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false") << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  bench::warn_unused(args);
  if (!identical) {
    std::cerr << "FAIL: cached results are not bit-identical to cold "
                 "solves\n";
    return 3;
  }
  if (stats.hit_rate() <= 0.9) {
    std::cerr << "FAIL: warm-stream hit rate " << stats.hit_rate()
              << " is not > 0.9\n";
    return 4;
  }
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

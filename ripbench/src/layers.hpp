#pragma once

// Traced calls into the solver layers and the per-layer metrics built
// from them. A traced run calls the same public functions the
// end-to-end path calls, in the same order, and wraps each call in a
// span; nothing inside the library is instrumented.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "dp/chain_dp.hpp"
#include "eval/solve_cache.hpp"

namespace ripbench {

/// Pass-through frontier cache that counts the calling thread's hits and
/// misses, so a traced call knows whether it hit from the delta around
/// it at any job count. Forwards to the shared SolveCache unchanged.
class CountingCache final : public rip::dp::ChainSolveCache {
 public:
  explicit CountingCache(rip::eval::SolveCache& inner) : inner_(inner) {}

  std::shared_ptr<const rip::dp::ChainFrontierSolve> lookup(
      std::uint64_t key) override;
  std::shared_ptr<const rip::dp::ChainFrontierSolve> insert(
      std::uint64_t key, rip::dp::ChainFrontierSolve solve) override;

  /// Hits seen by the calling thread since it started.
  static std::uint64_t thread_hits();

 private:
  rip::eval::SolveCache& inner_;
};

/// What a traced rip_insert call reports.
struct RipSample {
  double coarse_us = 0;
  double refine_us = 0;
  double final_us = 0;
  bool coarse_hit = false;
  bool early_exit = false;   ///< coarse stage inserted no repeater
  bool refine_ran = false;   ///< stage 2 ran
  bool final_ran = false;    ///< stage 3 ran
  bool fallback = false;     ///< stage 3 ran (or REFINE failed) but stage 1 won
  int refine_iterations = 0;
  rip::dp::DpStats coarse;
  rip::dp::DpStats final_dp;
};

/// What a traced run_baseline call reports.
struct BaselineSample {
  double us = 0;
  bool hit = false;
  rip::dp::DpStats stats;
};

/// core::rip_insert on this thread's workspace inside a "core.rip" span,
/// with its stage spans laid end to end from the span's start using the
/// stage durations the library returns.
rip::core::RipResult traced_rip(const rip::net::Net& net,
                                const rip::tech::RepeaterDevice& device,
                                double tau_t_fs,
                                const rip::core::RipOptions& options,
                                rip::dp::ChainSolveCache* cache,
                                std::uint64_t key, RipSample& sample);

/// core::run_baseline on this thread's workspace inside a
/// "core.baseline" span.
rip::dp::ChainDpResult traced_baseline(
    const rip::net::Net& net, const rip::tech::RepeaterDevice& device,
    double tau_t_fs, const rip::core::BaselineOptions& options,
    rip::dp::ChainSolveCache* cache, std::uint64_t key,
    BaselineSample& sample);

/// Whether RIP ran its stage 3: the coarse stage was feasible and placed
/// repeaters, and REFINE's width solve converged.
bool reached_stage3(const rip::core::RipResult& r);

/// The stage guard: fail unless RIP reached stage 3 on most of `total`
/// cases, so a workload meant to run the paper's algorithm cannot
/// silently stop doing so.
void check_stage3(std::size_t reached, std::size_t total, RunResult& result);

/// How many of the traced RIP calls reached stage 3.
std::size_t stage3_count(const std::vector<RipSample>& rip);

/// Everything the per-layer metrics are computed from.
struct LayerSamples {
  std::vector<RipSample> rip;
  std::vector<BaselineSample> baseline;
  /// Stream driver: records read and the time spent in reader.next().
  std::uint64_t records = 0;
  double read_s = 0;
  /// Per case: offered to the service -> started, and run time [us].
  std::vector<double> queue_us;
  std::vector<double> run_us;
  /// Driver-thread time not spent reading, submitting or waiting [s].
  double stream_self_s = 0;
  std::uint64_t checkpoints = 0;
  rip::eval::SolveCacheStats cache;  ///< all zeros without a cache
  double tau_min_s = 0;
  double write_s = 0;
  /// Share of the traced wall time covered by layer spans, and what the
  /// rest is.
  double coverage = 1;
  std::string remainder;
};

/// Add every per-layer metric, and the exact counts they rest on.
void report_layers(const LayerSamples& samples, RunResult& result);

/// Flag a coverage below 95% in the run's notes, naming the remainder.
void check_coverage(const LayerSamples& samples, RunResult& result);

}  // namespace ripbench

#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "dp/workspace.hpp"

namespace ripbench {

namespace {

using namespace rip;

thread_local std::uint64_t tl_hits = 0;

/// Sums over the DP solves that actually swept (not cache hits).
struct DpTotals {
  std::uint64_t solves = 0;
  std::uint64_t created = 0;
  std::uint64_t pruned = 0;
  std::uint64_t positions = 0;
  double seconds = 0;

  void add(const dp::DpStats& s, double us) {
    ++solves;
    created += s.labels_created;
    pruned += s.labels_pruned;
    positions += s.positions;
    seconds += us * 1e-6;
  }
  double per_solve(std::uint64_t v) const {
    return solves == 0 ? 0.0
                       : static_cast<double>(v) / static_cast<double>(solves);
  }
  double prune_ratio() const {
    return created == 0 ? 0.0
                        : static_cast<double>(pruned) /
                              static_cast<double>(created);
  }
};

double frac(std::uint64_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::shared_ptr<const dp::ChainFrontierSolve> CountingCache::lookup(
    std::uint64_t key) {
  auto found = inner_.lookup(key);
  if (found != nullptr) ++tl_hits;
  return found;
}

std::shared_ptr<const dp::ChainFrontierSolve> CountingCache::insert(
    std::uint64_t key, dp::ChainFrontierSolve solve) {
  return inner_.insert(key, std::move(solve));
}

std::uint64_t CountingCache::thread_hits() { return tl_hits; }

bool reached_stage3(const core::RipResult& r) {
  return r.coarse.status == dp::Status::kOptimal &&
         !r.coarse.solution.empty() && r.refined.width_solve_ok;
}

void check_stage3(std::size_t reached, std::size_t total, RunResult& result) {
  if (2 * reached > total) return;
  result.fail("stage coverage: RIP reached stage 3 on only " +
              std::to_string(reached) + " of " + std::to_string(total) +
              " cases");
}

std::size_t stage3_count(const std::vector<RipSample>& rip) {
  return static_cast<std::size_t>(
      std::count_if(rip.begin(), rip.end(),
                    [](const RipSample& r) { return r.final_ran; }));
}

core::RipResult traced_rip(const net::Net& net,
                           const tech::RepeaterDevice& device,
                           double tau_t_fs, const core::RipOptions& options,
                           dp::ChainSolveCache* cache, std::uint64_t key,
                           RipSample& sample) {
  Tracer& tracer = Tracer::global();
  const std::uint64_t hits_before = CountingCache::thread_hits();
  const std::int32_t span = tracer.open("core.rip", key);
  const std::int64_t begin = now_ns();
  core::RipResult r = core::rip_insert(net, device, tau_t_fs, options,
                                       dp::Workspace::local(), cache);
  std::int64_t at = begin;
  const auto stage = [&](const char* name, double s) {
    if (s <= 0) return;
    const auto ns = static_cast<std::int64_t>(s * 1e9);
    tracer.add(name, at, at + ns, key);
    at += ns;
  };
  stage("core.rip.coarse", r.coarse_s);
  stage("core.rip.refine", r.refine_s);
  stage("core.rip.final", r.final_s);
  tracer.close(span);

  const bool coarse_ok = r.coarse.status == dp::Status::kOptimal;
  sample.coarse_us = r.coarse_s * 1e6;
  sample.refine_us = r.refine_s * 1e6;
  sample.final_us = r.final_s * 1e6;
  sample.coarse_hit = CountingCache::thread_hits() > hits_before;
  sample.early_exit = coarse_ok && r.coarse.solution.empty();
  sample.refine_ran = coarse_ok && !sample.early_exit;
  sample.final_ran = reached_stage3(r);
  sample.fallback = r.used_fallback && !sample.early_exit;
  sample.refine_iterations = sample.refine_ran ? r.refined.iterations : 0;
  sample.coarse = r.coarse.stats;
  sample.final_dp = r.final_dp.stats;
  return r;
}

dp::ChainDpResult traced_baseline(const net::Net& net,
                                  const tech::RepeaterDevice& device,
                                  double tau_t_fs,
                                  const core::BaselineOptions& options,
                                  dp::ChainSolveCache* cache,
                                  std::uint64_t key, BaselineSample& sample) {
  const std::uint64_t hits_before = CountingCache::thread_hits();
  const std::int64_t begin = now_ns();
  dp::ChainDpResult r;
  {
    ScopedSpan span("core.baseline", key);
    r = core::run_baseline(net, device, tau_t_fs, options,
                           dp::Workspace::local(), cache);
  }
  sample.us = static_cast<double>(now_ns() - begin) * 1e-3;
  sample.hit = CountingCache::thread_hits() > hits_before;
  sample.stats = r.stats;
  return r;
}

void report_layers(const LayerSamples& s, RunResult& result) {
  // core.rip and the DP stages it runs.
  std::vector<double> coarse_us, refine_us, final_us;
  std::uint64_t final_ran = 0, early = 0, fallback = 0, iterations = 0,
                refined = 0;
  DpTotals coarse_dp, final_dp, baseline_dp;
  for (const auto& r : s.rip) {
    coarse_us.push_back(r.coarse_us);
    refine_us.push_back(r.refine_us);
    final_us.push_back(r.final_us);
    final_ran += r.final_ran;
    early += r.early_exit;
    fallback += r.fallback;
    if (!r.coarse_hit) coarse_dp.add(r.coarse, r.coarse_us);
    if (r.final_ran) final_dp.add(r.final_dp, r.final_us);
    if (r.refine_ran) {
      ++refined;
      iterations += static_cast<std::uint64_t>(r.refine_iterations);
    }
  }
  std::vector<double> cold_us, hit_us;
  for (const auto& b : s.baseline) {
    if (b.hit) {
      hit_us.push_back(b.us);
    } else {
      cold_us.push_back(b.us);
      baseline_dp.add(b.stats, b.us);
    }
  }

  result.metric("net.read.us_per_record",
                s.records == 0 ? 0.0
                               : s.read_s * 1e6 /
                                     static_cast<double>(s.records),
                "us");
  result.metric("eval.queue.us_p50", quantile(s.queue_us, 0.5), "us");
  result.metric("eval.queue.us_p99", quantile(s.queue_us, 0.99), "us");
  result.metric("eval.run.us_p50", quantile(s.run_us, 0.5), "us");
  result.metric("eval.run.us_p99", quantile(s.run_us, 0.99), "us");
  result.metric("eval.stream.self_us_per_case",
                s.records == 0 ? 0.0
                               : s.stream_self_s * 1e6 /
                                     static_cast<double>(s.records),
                "us");
  result.metric("eval.stream.checkpoints", static_cast<double>(s.checkpoints),
                "count");
  result.metric("eval.cache.hits", static_cast<double>(s.cache.hits), "count");
  result.metric("eval.cache.misses", static_cast<double>(s.cache.misses),
                "count");
  result.metric("eval.cache.hit_rate", s.cache.hit_rate(), "ratio");
  result.metric("eval.cache.mib", static_cast<double>(s.cache.bytes) / 1048576.0,
                "MiB");
  result.metric("core.rip.coarse_us", mean(coarse_us), "us");
  result.metric("core.rip.coarse_us_p99", quantile(coarse_us, 0.99), "us");
  result.metric("core.rip.refine_us", mean(refine_us), "us");
  result.metric("core.rip.refine_us_p99", quantile(refine_us, 0.99), "us");
  result.metric("core.rip.final_us", mean(final_us), "us");
  result.metric("core.rip.final_us_p99", quantile(final_us, 0.99), "us");
  result.metric("core.rip.final_ran_frac", frac(final_ran, s.rip.size()),
                "ratio");
  result.metric("core.rip.early_exit_frac", frac(early, s.rip.size()),
                "ratio");
  result.metric("core.rip.fallback_frac", frac(fallback, s.rip.size()),
                "ratio");
  result.metric("core.baseline.cold_us", mean(cold_us), "us");
  result.metric("core.baseline.hit_us", mean(hit_us), "us");
  result.metric("dp.coarse.labels_per_solve",
                coarse_dp.per_solve(coarse_dp.created), "count");
  result.metric("dp.final.labels_per_solve",
                final_dp.per_solve(final_dp.created), "count");
  result.metric("dp.baseline.labels_per_solve",
                baseline_dp.per_solve(baseline_dp.created), "count");
  result.metric("dp.coarse.prune_ratio", coarse_dp.prune_ratio(), "ratio");
  result.metric("dp.final.prune_ratio", final_dp.prune_ratio(), "ratio");
  result.metric("dp.baseline.prune_ratio", baseline_dp.prune_ratio(),
                "ratio");
  result.metric("dp.final.positions", final_dp.per_solve(final_dp.positions),
                "count");
  const double dp_s = coarse_dp.seconds + final_dp.seconds + baseline_dp.seconds;
  const double labels = static_cast<double>(
      coarse_dp.created + final_dp.created + baseline_dp.created);
  result.metric("dp.mlabels_per_s", dp_s > 0 ? labels / dp_s * 1e-6 : 0.0,
                "Mlabels/s");
  result.metric("analytical.refine.iterations",
                refined == 0 ? 0.0
                             : static_cast<double>(iterations) /
                                   static_cast<double>(refined),
                "count");
  result.metric("setup.tau_min_s", s.tau_min_s, "s");
  result.metric("setup.write_s", s.write_s, "s");
  result.metric("trace.coverage", s.coverage, "ratio");

  // The exact counts behind those metrics: identical in every run of
  // the same code and seed, at any job count.
  result.count("rip.solves", s.rip.size());
  result.count("rip.final_ran", final_ran);
  result.count("rip.early_exit", early);
  result.count("rip.fallback", fallback);
  result.count("refine.iterations", iterations);
  result.count("dp.coarse.cold_solves", coarse_dp.solves);
  result.count("dp.coarse.labels_created", coarse_dp.created);
  result.count("dp.coarse.labels_pruned", coarse_dp.pruned);
  result.count("dp.final.solves", final_dp.solves);
  result.count("dp.final.labels_created", final_dp.created);
  result.count("dp.final.labels_pruned", final_dp.pruned);
  result.count("dp.final.positions", final_dp.positions);
  result.count("baseline.solves", s.baseline.size());
  result.count("dp.baseline.cold_solves", baseline_dp.solves);
  result.count("dp.baseline.labels_created", baseline_dp.created);
  result.count("dp.baseline.labels_pruned", baseline_dp.pruned);
  result.count("cache.hits", s.cache.hits);
  result.count("cache.misses", s.cache.misses);
  result.count("stream.records", s.records);
  result.count("stream.checkpoints", s.checkpoints);
}

void check_coverage(const LayerSamples& s, RunResult& result) {
  if (s.coverage >= 0.95) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "trace coverage %.1f%%: %.1f%% of the traced wall time is ",
                s.coverage * 100, (1 - s.coverage) * 100);
  result.notes.push_back(buf + s.remainder);
}

}  // namespace ripbench

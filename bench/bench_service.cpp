// Overhead and behavior of the asynchronous evaluation service
// (eval/service.hpp). Four sections:
//
//   submit     raw submission throughput: tiny thunks enqueued while
//              gate thunks hold every worker (pure queue cost), then
//              drain wall clock once the gates open;
//   batches    many-small-batches: the same cases evaluated as B
//              sequential submit_batch/wait_all rounds through the
//              service vs the blocking eval::run_cases — the per-batch
//              overhead the async front-end adds;
//   latency    submit latency under backpressure: a bounded pending
//              queue (--max-pending, default 8) with real cases, mean
//              and max per-submit blocking time;
//   identity   service results at --jobs N vs a plain serial loop —
//              the service's determinism contract; any mismatch aborts
//              with exit code 1.
//
// Environment: RIP_BENCH_NETS / RIP_BENCH_TARGETS size the workload,
// RIP_BENCH_JOBS the worker count; --nets / --targets / --jobs /
// --max-pending override.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_env.hpp"
#include "eval/parallel.hpp"
#include "eval/service.hpp"
#include "eval/workload.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rip;

bool same_results(const std::vector<eval::CaseResult>& a,
                  const std::vector<eval::CaseResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rip_feasible != b[i].rip_feasible ||
        a[i].dp_feasible != b[i].dp_feasible ||
        a[i].rip_width_u != b[i].rip_width_u ||
        a[i].dp_width_u != b[i].dp_width_u ||
        a[i].improvement_pct != b[i].improvement_pct) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args = CliArgs::parse(argc, argv, {"help"});
  if (args.has("help")) {
    return bench::usage(
        "bench_service [--nets N] [--targets N] [--jobs N] "
        "[--max-pending N]");
  }
  const tech::Technology tech = tech::make_tech180();
  const int nets = bench::net_count(args, 4);
  const int targets = bench::targets_per_net(args, 4);
  const int jobs = bench::jobs(args);
  const std::uint64_t max_pending = count_option(args, "max-pending", 8, 1);

  std::cout << "=== Async evaluation service (" << nets << " nets x "
            << targets << " targets, jobs " << jobs << ") ===\n";

  const auto workload = eval::make_paper_workload(tech, nets, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  std::vector<eval::Case> cases;
  for (const auto& wn : workload) {
    for (const double tau_t :
         eval::timing_targets_fs(wn.tau_min_fs, targets)) {
      cases.push_back(
          eval::Case{&wn.net, tau_t, core::RipOptions{}, baseline});
    }
  }

  // ------------------------------------------------ submit throughput
  {
    constexpr std::size_t kSubmissions = 10000;
    eval::ServiceOptions options;
    options.jobs = jobs;
    eval::EvalService service(tech, options);
    // One gate thunk per worker holds them all, so the timed submits
    // only ever touch the queue.
    std::mutex mutex;
    std::condition_variable cv;
    int held = 0;
    bool open = false;
    for (int w = 0; w < jobs; ++w) {
      service.submit_fn([&] {
        std::unique_lock<std::mutex> lock(mutex);
        ++held;
        cv.notify_all();
        cv.wait(lock, [&] { return open; });
        return eval::CaseResult{};
      });
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return held == jobs; });
    }
    std::vector<std::future<eval::CaseResult>> futures;
    futures.reserve(kSubmissions);
    WallTimer timer;
    for (std::size_t i = 0; i < kSubmissions; ++i) {
      futures.push_back(
          service.submit_fn([] { return eval::CaseResult{}; }));
    }
    const double submit_s = timer.seconds();
    timer.reset();
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
    for (auto& future : futures) future.get();
    const double drain_s = timer.seconds();

    std::cout << "\n--- submit: " << kSubmissions << " queued thunks ---\n";
    Table table({"phase", "wall_s", "per_item_us"});
    table.add_row({"submit (workers held)", fmt_f(submit_s, 3),
                   fmt_f(submit_s / kSubmissions * 1e6, 2)});
    table.add_row({"drain", fmt_f(drain_s, 3),
                   fmt_f(drain_s / kSubmissions * 1e6, 2)});
    table.print(std::cout);
  }

  // --------------------------------------------- many small batches
  // An iterative driver submitting one small batch per step: service
  // batches vs the blocking engine, same cases.
  std::vector<eval::CaseResult> reference;
  {
    constexpr std::size_t kRounds = 20;
    eval::BatchOptions batch;
    batch.jobs = jobs;
    WallTimer timer;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const auto results = eval::run_cases(tech, cases, batch);
      if (r == 0) reference = results;
    }
    const double blocking_s = timer.seconds();

    eval::ServiceOptions options;
    options.jobs = jobs;
    eval::EvalService service(tech, options);
    timer.reset();
    for (std::size_t r = 0; r < kRounds; ++r) {
      const auto results = service.submit_batch(cases).results();
      if (!same_results(results, reference)) {
        std::cerr << "FAIL: service batch " << r
                  << " diverged from the blocking engine\n";
        return 1;
      }
    }
    const double service_s = timer.seconds();

    std::cout << "\n--- batches: " << kRounds << " rounds x "
              << cases.size() << " cases ---\n";
    Table table({"engine", "wall_s", "ms/batch"});
    table.add_row({"blocking run_cases", fmt_f(blocking_s, 2),
                   fmt_f(blocking_s / kRounds * 1e3, 2)});
    table.add_row({"async service", fmt_f(service_s, 2),
                   fmt_f(service_s / kRounds * 1e3, 2)});
    table.print(std::cout);
    std::cout << "service overhead: "
              << fmt_f((service_s - blocking_s) / kRounds * 1e3, 2)
              << " ms/batch\n";
  }

  // --------------------------------------- latency under backpressure
  {
    eval::ServiceOptions options;
    options.jobs = jobs;
    options.max_pending = max_pending;
    eval::EvalService service(tech, options);
    std::vector<std::future<eval::CaseResult>> futures;
    futures.reserve(cases.size());
    double max_submit_s = 0;
    double total_submit_s = 0;
    WallTimer wall;
    for (const eval::Case& c : cases) {
      WallTimer timer;
      futures.push_back(service.submit(c));
      const double s = timer.seconds();
      total_submit_s += s;
      max_submit_s = std::max(max_submit_s, s);
    }
    for (auto& future : futures) future.get();
    const double wall_s = wall.seconds();

    std::cout << "\n--- latency: max_pending " << max_pending << ", "
              << cases.size() << " real cases ---\n";
    Table table({"metric", "value"});
    table.add_row(
        {"mean submit ms",
         fmt_f(total_submit_s / static_cast<double>(cases.size()) * 1e3,
               3)});
    table.add_row({"max submit ms", fmt_f(max_submit_s * 1e3, 3)});
    table.add_row({"total wall s", fmt_f(wall_s, 2)});
    table.print(std::cout);
    std::cout << "(submits beyond the bound block until a worker takes "
                 "a queued case — that blocking IS the backpressure)\n";

    // Service-side latency histograms (ServiceStats): how long cases
    // sat queued vs how long they ran. Quantiles are upper bounds of
    // power-of-two buckets; mean/max are exact.
    const eval::ServiceStats stats = service.stats();
    std::cout << "\n--- service histograms (" << stats.cases_evaluated
              << " cases, " << stats.retries << " retries) ---\n";
    Table hist({"metric", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
                "max_ms"});
    const auto add_snapshot = [&hist](const char* name,
                                      const LatencySnapshot& s) {
      hist.add_row({name, fmt_f(s.mean_ms, 3), fmt_f(s.p50_ms, 3),
                    fmt_f(s.p90_ms, 3), fmt_f(s.p99_ms, 3),
                    fmt_f(s.max_ms, 3)});
    };
    add_snapshot("queue time", stats.queue_time);
    add_snapshot("run time", stats.run_time);
    hist.print(std::cout);
  }

  // ------------------------------------------------------- identity
  {
    std::vector<eval::CaseResult> serial;
    serial.reserve(cases.size());
    for (const eval::Case& c : cases) {
      serial.push_back(
          eval::run_case(*c.net, tech, c.tau_t_fs, c.rip, c.baseline));
    }
    if (!same_results(serial, reference)) {
      std::cerr << "FAIL: service results diverged from the serial loop\n";
      return 1;
    }
    std::cout << "\nservice results at jobs=" << jobs
              << " bit-identical to the serial loop ("
              << cases.size() << " cases)\n";
  }

  bench::warn_unused(args);
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

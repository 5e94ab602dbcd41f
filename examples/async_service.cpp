// async_service — tour of the asynchronous batch-evaluation service
// (eval/service.hpp): submit cases, get futures, watch progress
// counters, get a completion callback, and cancel queued work. This is the submit/await shape an iterative
// optimization driver or a network front-end builds on, instead of
// blocking in eval::run_cases for a whole batch.

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "core/baseline.hpp"
#include "eval/service.hpp"
#include "eval/workload.hpp"
#include "tech/technology.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

int main() {
  using namespace rip;
  const tech::Technology tech = tech::make_tech180();

  // Two paper-population nets, five timing targets each.
  const auto workload = eval::make_paper_workload(tech, 2, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  std::vector<eval::Case> cases;
  for (const auto& wn : workload) {
    for (const double tau_t : eval::timing_targets_fs(wn.tau_min_fs, 5)) {
      cases.push_back(
          eval::Case{&wn.net, tau_t, core::RipOptions{}, baseline});
    }
  }

  // One service, all hardware threads, a bounded pending queue.
  eval::ServiceOptions options;
  options.jobs = 0;
  options.max_pending = 64;
  eval::EvalService service(tech, options);

  // --- one case, one future -------------------------------------------
  std::future<eval::CaseResult> one = service.submit(cases.front());
  const eval::CaseResult first = one.get();
  std::cout << "single case: target "
            << fmt_f(units::fs_to_ns(first.tau_t_fs), 3) << " ns -> RIP "
            << fmt_f(first.rip_width_u, 0) << " u vs DP "
            << fmt_f(first.dp_width_u, 0) << " u ("
            << fmt_f(first.improvement_pct, 2) << "% better)\n";

  // --- a batch with a completion callback and progress counters -------
  std::atomic<bool> batch_done{false};
  eval::BatchHandle batch =
      service.submit_batch(cases, [&] { batch_done = true; });
  while (batch.settled() < batch.size()) {
    std::cout << "progress: " << batch.settled() << "/" << batch.size()
              << " settled\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  batch.wait_all();  // also waits for the callback
  std::cout << "batch of " << batch.size() << ": " << batch.completed()
            << " completed, callback fired: " << std::boolalpha
            << batch_done.load() << "\n";
  double mean_impr = 0;
  for (const eval::CaseResult& r : batch.results()) {
    mean_impr += r.improvement_pct;
  }
  std::cout << "mean improvement: "
            << fmt_f(mean_impr / static_cast<double>(batch.size()), 2)
            << "%\n";

  // --- cooperative cancellation --------------------------------------
  // Cancel a batch right after submitting it: cases no worker has
  // picked up yet settle as cancelled (their futures throw
  // CancelledError); cases already running finish normally.
  eval::BatchHandle doomed = service.submit_batch(cases);
  const std::size_t cancelled = doomed.cancel();
  doomed.wait_all();
  std::cout << "cancelled " << cancelled << " of " << doomed.size()
            << " cases; " << doomed.completed()
            << " had already started and ran\n";
  try {
    doomed.results();
  } catch (const eval::CancelledError&) {
    std::cout << "a cancelled case's future throws CancelledError\n";
  }

  // The destructor drains: every accepted case settles before exit.
  return 0;
}

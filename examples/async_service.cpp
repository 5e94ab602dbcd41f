// async_service — tour of the asynchronous evaluation service
// (eval/service.hpp): submit evaluation thunks, get futures, feel the
// bounded queue's backpressure, and cancel queued work. This is the
// submit/await shape an iterative optimization driver or a network
// front-end builds on, instead of blocking in parallel_for_indexed for
// a whole sweep.

#include <future>
#include <iostream>
#include <utility>
#include <vector>

#include "core/baseline.hpp"
#include "eval/experiments.hpp"
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
  std::vector<std::pair<const net::Net*, double>> cases;
  for (const auto& wn : workload) {
    for (const double tau_t : eval::timing_targets_fs(wn.tau_min_fs, 5)) {
      cases.emplace_back(&wn.net, tau_t);
    }
  }

  // One service, all hardware threads, a bounded pending queue.
  eval::ServiceOptions options;
  options.jobs = 0;
  options.max_pending = 4;
  eval::EvalService service(tech, options);

  // A case becomes a thunk that calls eval::run_case — the entry point
  // every blocking sweep fans out, so the service returns the same
  // bits. Case i keys the solve.* fault points, as a sweep's point does.
  const auto submit = [&](std::size_t i) {
    return service.submit_fn([&, i] {
      eval::SolveContext context;
      context.fault_key = i;
      return eval::run_case(*cases[i].first, tech, cases[i].second, {},
                            baseline, context);
    });
  };

  // --- one case, one future -------------------------------------------
  const eval::CaseResult first = submit(0).get();
  std::cout << "single case: target "
            << fmt_f(units::fs_to_ns(first.tau_t_fs), 3) << " ns -> RIP "
            << fmt_f(first.rip_width_u, 0) << " u vs DP "
            << fmt_f(first.dp_width_u, 0) << " u ("
            << fmt_f(first.improvement_pct, 2) << "% better)\n";

  // --- every case, with backpressure ----------------------------------
  // submit_fn blocks while max_pending thunks are queued, so this loop
  // never holds more than 4 unstarted cases, however many it submits.
  std::vector<std::future<eval::CaseResult>> futures;
  for (std::size_t i = 0; i < cases.size(); ++i) futures.push_back(submit(i));
  double mean_impr = 0;
  for (auto& future : futures) mean_impr += future.get().improvement_pct;
  std::cout << cases.size() << " cases through a queue of "
            << options.max_pending << ": mean improvement "
            << fmt_f(mean_impr / static_cast<double>(cases.size()), 2)
            << "%\n";

  // --- cooperative cancellation --------------------------------------
  // Cancel right after submitting: thunks no worker has picked up yet
  // settle as cancelled (their futures throw CancelledError); thunks
  // already running finish normally.
  futures.clear();
  for (std::size_t i = 0; i < options.max_pending; ++i) {
    futures.push_back(submit(i));
  }
  const std::size_t cancelled = service.cancel_pending();
  std::cout << "cancelled " << cancelled << " of " << futures.size()
            << " cases; " << futures.size() - cancelled
            << " had already started and ran\n";
  for (auto& future : futures) {
    try {
      future.get();
    } catch (const eval::CancelledError&) {
      std::cout << "a cancelled case's future throws CancelledError\n";
      break;
    }
  }

  // The destructor drains: every accepted thunk settles before exit.
  return 0;
}

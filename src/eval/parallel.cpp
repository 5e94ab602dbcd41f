#include "eval/parallel.hpp"

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {

std::vector<std::size_t> shard_case_indices(std::size_t case_count,
                                            int shard_index,
                                            int shard_count) {
  RIP_REQUIRE(shard_count >= 1, "shard count must be >= 1");
  RIP_REQUIRE(shard_index >= 0 && shard_index < shard_count,
              "shard index out of range");
  std::vector<std::size_t> indices;
  const auto step = static_cast<std::size_t>(shard_count);
  for (std::size_t i = static_cast<std::size_t>(shard_index);
       i < case_count; i += step) {
    indices.push_back(i);
  }
  return indices;
}

CaseResult evaluate_case(const tech::Technology& tech, const Case& c,
                         SolveContext context, std::uint64_t fault_key) {
  RIP_REQUIRE(c.net != nullptr, "case without a net");
  // context.workspace stays nullptr, so run_case solves on this
  // thread's own workspace; the deadline lives on this stack frame.
  if (context.fault_key == kFaultAutoKey) context.fault_key = fault_key;
  const Deadline deadline(c.deadline_ms);
  if (deadline.active()) context.deadline = &deadline;
  return run_case(*c.net, tech, c.tau_t_fs, c.rip, c.baseline, context);
}

std::vector<CaseResult> run_cases(const tech::Technology& tech,
                                  std::span<const Case> cases,
                                  const BatchOptions& options) {
  for (const Case& c : cases) {
    RIP_REQUIRE(c.net != nullptr, "batch case without a net");
  }
  RIP_REQUIRE(options.context.workspace == nullptr,
              "run_cases evaluates on worker-local workspaces; "
              "BatchOptions::context.workspace must stay nullptr");
  // Case i writes only slot i, and its index is its fault-point key.
  // The scheduler runs jobs 1 as the serial loop on this thread and, on
  // a failure, skips unclaimed cases and rethrows the lowest failing
  // index's exception.
  std::vector<CaseResult> results(cases.size());
  parallel_for_indexed(cases.size(), options.jobs, [&](std::size_t i) {
    results[i] = evaluate_case(tech, cases[i], options.context, i);
  });
  return results;
}

}  // namespace rip::eval

#include "core/baseline.hpp"

#include <utility>

#include "dp/workspace.hpp"
#include "net/candidates.hpp"

namespace rip::core {

BaselineOptions BaselineOptions::uniform_library(double min_width_u,
                                                 double granularity_u,
                                                 int size, double pitch_um) {
  BaselineOptions opts{
      dp::RepeaterLibrary::uniform(min_width_u, granularity_u, size),
      pitch_um};
  return opts;
}

BaselineOptions BaselineOptions::range_library(double min_width_u,
                                               double max_width_u,
                                               double granularity_u,
                                               double pitch_um) {
  BaselineOptions opts{
      dp::RepeaterLibrary::range(min_width_u, max_width_u, granularity_u),
      pitch_um};
  return opts;
}

dp::ChainDpResult run_baseline(const net::Net& net,
                               const tech::RepeaterDevice& device,
                               double tau_t_fs, const BaselineOptions& options,
                               dp::Workspace& workspace,
                               dp::ChainSolveCache* cache,
                               const tech::ObjectiveBackend* backend) {
  const auto candidates = net::uniform_candidates(net, options.pitch_um);
  dp::ChainDpOptions dp_options;
  dp_options.mode = dp::Mode::kMinPower;
  dp_options.timing_target_fs = tau_t_fs;
  dp_options.backend = backend;
  if (auto unbuffered = dp::unbuffered_answer(net, device, options.library,
                                              candidates, dp_options,
                                              workspace)) {
    return *std::move(unbuffered);
  }
  return dp::run_chain_dp_cached(net, device, options.library, candidates,
                                 dp_options, workspace, cache);
}

}  // namespace rip::core

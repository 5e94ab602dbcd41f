#include "dp/min_delay.hpp"

#include "dp/workspace.hpp"
#include "net/candidates.hpp"
#include "rc/buffered_chain.hpp"

namespace rip::dp {

MinDelayResult min_delay(const net::Net& net,
                         const tech::RepeaterDevice& device,
                         const MinDelayOptions& options, Workspace& ws) {
  const RepeaterLibrary library = RepeaterLibrary::range(
      options.min_width_u, options.max_width_u, options.granularity_u);
  const auto candidates = net::uniform_candidates(net, options.pitch_um);

  ChainDpOptions dp_options;
  dp_options.mode = Mode::kMinDelay;
  const ChainDpResult dp =
      run_chain_dp(net, device, library, candidates, dp_options, ws);

  MinDelayResult result;
  result.tau_min_fs = dp.delay_fs;
  result.solution = dp.solution;
  result.unbuffered_delay_fs =
      rc::elmore_delay_fs(net, net::RepeaterSolution{}, device);
  return result;
}

}  // namespace rip::dp

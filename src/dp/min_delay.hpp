#pragma once

/// @file min_delay.hpp
/// tau_min: the minimum achievable Elmore delay of a net, used to define
/// the timing-target sweeps of the experiments (targets range over
/// 1.05..2.05 * tau_min, Section 6 of the paper).

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "tech/technology.hpp"

namespace rip::dp {

/// Options for the tau_min computation. The default is the one grid
/// every tau_min multiple is taken against: the richest library any
/// scheme in the paper may use (10u..400u in 10u steps) on the DP
/// schemes' 200 um location pitch, so that every scheme's target is
/// achievable on its own placement grid (a finer pitch gives a tau_min
/// the 200 um baseline cannot reach).
struct MinDelayOptions {
  double min_width_u = 10.0;
  double max_width_u = 400.0;
  double granularity_u = 10.0;
  double pitch_um = 200.0;
};

/// Result of the tau_min computation.
struct MinDelayResult {
  double tau_min_fs = 0;             ///< minimum achievable delay
  net::RepeaterSolution solution;    ///< a solution achieving it
  double unbuffered_delay_fs = 0;    ///< delay with no repeaters at all
};

/// Compute tau_min by running the DP in kMinDelay mode on `ws`, by
/// default this thread's Workspace::local().
MinDelayResult min_delay(const net::Net& net,
                         const tech::RepeaterDevice& device,
                         const MinDelayOptions& options = {},
                         Workspace& ws = Workspace::local());

}  // namespace rip::dp

#pragma once

/// @file baseline.hpp
/// The conventional power-aware DP baseline the paper compares against
/// ([14], Lillis–Cheng–Lin): one DP pass with a uniformly-spaced repeater
/// library and uniformly-spaced candidate locations. Table 1 uses
/// libraries of size 10 with min width 10u and granularity g; Table 2
/// uses the fixed width range (10u, 400u) with granularity g_DP.

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "tech/technology.hpp"

namespace rip::core {

/// Baseline configuration.
struct BaselineOptions {
  dp::RepeaterLibrary library;  ///< the discrete widths the DP may use
  double pitch_um = 200.0;      ///< uniform candidate-location pitch

  /// Table 1 baseline: library of `size` widths from `min_width` at
  /// `granularity` spacing (the paper's size-10, g in {10u,20u,40u}).
  static BaselineOptions uniform_library(double min_width_u,
                                         double granularity_u, int size,
                                         double pitch_um = 200.0);

  /// Table 2 baseline: all multiples of `granularity` in
  /// [min_width, max_width] (the paper's (10u, 400u) range).
  static BaselineOptions range_library(double min_width_u,
                                       double max_width_u,
                                       double granularity_u,
                                       double pitch_um = 200.0);
};

/// Run the baseline DP for a timing target on the arenas of
/// `workspace` (by default this thread's dp::Workspace::local()). It
/// may consult a frontier cache (the baseline solves a fixed
/// library/pitch per net, so across a target sweep every solve after
/// the first is a cache hit), and may minimize a pluggable objective
/// (tech/objective.hpp; nullptr = the paper's minimum-width objective,
/// bit-identical to before backends existed). A net that meets the
/// target unbuffered gets the DP's answer from dp::unbuffered_answer:
/// no sweep runs and the cache is not consulted, so min_delay_* stay
/// empty and 0 and stats count no labels.
dp::ChainDpResult run_baseline(
    const net::Net& net, const tech::RepeaterDevice& device,
    double tau_t_fs, const BaselineOptions& options,
    dp::Workspace& workspace = dp::Workspace::local(),
    dp::ChainSolveCache* cache = nullptr,
    const tech::ObjectiveBackend* backend = nullptr);

}  // namespace rip::core

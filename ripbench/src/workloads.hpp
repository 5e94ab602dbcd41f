#pragma once

// The benchmark's workloads. Each entry point sets up its inputs from
// the seed (several times, for a median set-up time), then either runs
// the end-to-end timed phase through the library's public entry points
// (trace off) or one traced pass that calls each layer's public
// function in the order the end-to-end path does (trace on). Both
// check the outputs.

#include "common.hpp"

namespace ripbench {

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;

RunResult run_table1_workload(const RunOptions& options);
RunResult run_retarget_stream(const RunOptions& options);
RunResult run_small_stream(const RunOptions& options);

}  // namespace ripbench

#pragma once

/// @file context.hpp
/// eval::SolveContext — the one bundle of ambient solve state threaded
/// through the evaluation layer. run_case, run_stream (StreamOptions)
/// and rip_cli all accept the same struct, so adding a new piece of
/// ambient state (as the objective backend was) means one new field
/// here instead of another trailing default on every signature in the
/// stack. EvalService carries none: a thunk submitted to it evaluates
/// under whatever context it captured.
///
/// Every pointer is nullable and nullptr means "the default":
///   cache     == nullptr  -> no frontier caching
///   backend   == nullptr  -> the paper's minimum-total-width objective,
///                            bit-identical to before backends existed
///   deadline  == nullptr  -> no deadline
///
/// The DP arenas are not part of the context: every solve runs on the
/// calling thread's dp::Workspace::local(), so a context can be shared
/// by every worker of a fan-out.

#include <cstdint>

#include "eval/solve_cache.hpp"
#include "util/deadline.hpp"
#include "util/fault.hpp"

namespace rip::tech {
class ObjectiveBackend;
}  // namespace rip::tech

namespace rip::eval {

/// Ambient state for one or many (net, target) evaluations. Cheap to
/// copy; owns nothing. Whatever it points at must outlive every solve
/// run under it.
struct SolveContext {
  /// Shared Pareto-frontier cache consulted by the target-independent
  /// DP solves (RIP's coarse stage, the whole baseline); nullptr
  /// disables caching. Results are bit-identical with or without it.
  SolveCache* cache = nullptr;
  /// Objective backend (tech/objective.hpp) minimized by every DP solve
  /// and by RIP's stage arbitration; nullptr = the paper's objective.
  const tech::ObjectiveBackend* backend = nullptr;
  /// Cooperative per-case deadline checked between solve stages;
  /// nullptr = no deadline. A blown deadline throws DeadlineExceeded
  /// from run_case (never a partial result).
  const Deadline* deadline = nullptr;
  /// Stable identity for this case at the solve.* fault points (record
  /// index in a stream, point index in a sweep), so injected faults hit
  /// the same cases at any job count. kFaultAutoKey = per-point arrival
  /// order (schedule-dependent).
  std::uint64_t fault_key = kFaultAutoKey;
};

}  // namespace rip::eval

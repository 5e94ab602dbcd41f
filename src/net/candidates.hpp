#pragma once

/// @file candidates.hpp
/// Candidate repeater locations for the DP stages.
///
/// The baseline DP (Section 6 of the paper) uses locations uniformly
/// distributed along the net with a given pitch, excluding forbidden
/// zones. The final RIP stage instead uses a *small* set: each REFINE
/// location plus a window of neighbours at a finer pitch.

#include <cstddef>
#include <vector>

#include "net/net.hpp"

namespace rip::net {

/// The most positions a uniform candidate grid may hold: a chain DP
/// label stores its repeater count as std::int16_t and holds at most one
/// repeater per candidate. The largest paper net (10 x 2.5 mm) has 125
/// at 200 um.
inline constexpr std::size_t kMaxCandidates = 32767;

/// Positions k * pitch for k = 1, 2, ... strictly inside (0, L),
/// excluding positions strictly inside forbidden zones. Sorted ascending.
/// Throws rip::Error, before allocating, when L / pitch exceeds
/// kMaxCandidates or is not finite (segment lengths that sum to inf).
std::vector<double> uniform_candidates(const Net& net, double pitch_um);

/// Positions closer than this are one window candidate [um].
inline constexpr double kWindowDedupTolUm = 1e-6;

/// For each center c, the positions c + j * pitch for j in
/// [-half_window, +half_window], clipped to (0, L), excluding forbidden
/// zones, merged over all centers, deduplicated (within
/// kWindowDedupTolUm) and sorted ascending. This is the "locations
/// derived by REFINE plus N locations before and after" set of RIP's
/// final stage.
std::vector<double> window_candidates(const Net& net,
                                      const std::vector<double>& centers_um,
                                      int half_window, double pitch_um);

}  // namespace rip::net

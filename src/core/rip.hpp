#pragma once

/// @file rip.hpp
/// Algorithm RIP (Fig. 6 of the paper) — the repository's primary
/// contribution. A hybrid of the DP engine and the analytical solver:
///
///   0. A net that meets the target with no repeater, in the DP's own
///      label arithmetic, needs none: dp::unbuffered_answer returns
///      stage 1's exact answer without a sweep, and RIP stops there.
///   1. DP with a *coarse* repeater library (Section 6: five widths at
///      80u pitch) and coarse uniform locations (200 um) -> initial
///      solution.
///   2. REFINE: continuous width solve + repeater movement.
///   3. Build a concise library B (REFINE widths rounded to 10u) and a
///      small location set S (each REFINE location ±10 positions at
///      50 um) and re-run the DP restricted to B and S, as an exact
///      branch-and-bound (run_chain_dp_bounded). Its incumbent is the
///      cheaper of stage 1's answer and REFINE's answer rounded into B
///      and S (round_refine), scored in the DP's own label arithmetic. A
///      label is dropped once it costs more than the incumbent; once its
///      slack, less the least delay any buffering of the path from the
///      driver to it could add (a lookahead floor from one
///      driver-to-receiver sweep), misses the target; or once its cost
///      plus the least cost + lambda * delay of any such buffering, less
///      lambda * (its slack + the target), exceeds the incumbent (a
///      Lagrangian floor from the same sweep, priced at REFINE's
///      multiplier lambda).
///
/// Guarantee: the returned solution is the best feasible of stage 3 and
/// stage 1, so RIP is feasible whenever the coarse DP is, and never worse
/// than it.

#include <cstdint>
#include <limits>
#include <vector>

#include "analytical/refine.hpp"
#include "dp/chain_dp.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace rip::core {

/// All RIP knobs; defaults reproduce Section 6 of the paper.
struct RipOptions {
  // Stage 1: coarse DP.
  double coarse_min_width_u = 80.0;
  double coarse_granularity_u = 80.0;
  int coarse_library_size = 5;
  double coarse_pitch_um = 200.0;

  // Stage 2: REFINE.
  analytical::RefineOptions refine;
  /// Section 7: "REFINE may be performed several times for further power
  /// reduction" — number of REFINE passes (>= 1).
  int refine_repeats = 1;

  // Stage 3: fine local DP.
  double fine_granularity_u = 10.0;
  double fine_min_width_u = 10.0;
  double fine_max_width_u = 400.0;
  int window_half = 10;        ///< locations before/after each REFINE spot
  double window_pitch_um = 50.0;
};

/// Diagnostics-rich result of a RIP run.
struct RipResult {
  dp::Status status = dp::Status::kInfeasible;
  net::RepeaterSolution solution;
  double delay_fs = 0;
  double total_width_u = 0;
  /// Objective cost of `solution` under the active backend — what the
  /// stage-3-vs-stage-1 arbitration compares. Equals total_width_u on
  /// the identity (paper) objective; 0 when infeasible or repeaterless.
  double objective_cost = 0;

  // Per-stage diagnostics.
  /// Stage 1. For a net that meets the target unbuffered no sweep runs
  /// (dp::unbuffered_answer): min_delay_* stay empty and 0, and stats
  /// count no labels.
  dp::ChainDpResult coarse;
  analytical::RefineResult refined;    ///< stage 2 (last repeat)
  /// Stage 3, as swept by the branch-and-bound: min_delay_* and stats
  /// describe the bounded sweep, and status is also kInfeasible when no
  /// labeling meets the target at a cost <= the incumbent (the cheaper of
  /// stage 1's answer and the rounded REFINE answer).
  dp::ChainDpResult final_dp;
  bool used_fallback = false;          ///< final answer came from stage 1

  double runtime_s = 0;        ///< total wall clock
  double coarse_s = 0;         ///< stage 1 wall clock
  double refine_s = 0;         ///< stage 2 wall clock
  double final_s = 0;          ///< stage 3 wall clock
};

/// Stage 3's DP inputs (Fig. 6, lines 3-4) from a REFINE result: library
/// B (REFINE widths rounded to the fine grid), location set S (each REFINE
/// location ±window_half positions), and allowed lists that offer each
/// window only its own REFINE repeater's bracketed widths (for
/// ChainDpOptions::allowed_buffers). Per REFINE repeater, driver to
/// receiver, it also records the candidate at the repeater's own position
/// (its window's centre, within the candidates' 1e-6 um dedup tolerance;
/// -1 when that position is not a legal candidate) and the library
/// indices of its width rounded down and up, both allowed there.
struct FineProblem {
  dp::RepeaterLibrary library;
  std::vector<double> candidates_um;
  std::vector<std::vector<std::int16_t>> allowed;
  std::vector<std::int32_t> centre;
  std::vector<std::int16_t> lo;
  std::vector<std::int16_t> hi;
};
FineProblem fine_problem(const net::Net& net,
                         const analytical::RefineResult& refined,
                         const RipOptions& options);

/// REFINE's answer as a labeling of stage 3's search space, and its score.
struct RoundedRefine {
  /// Library index per candidate, -1 = none; empty when some REFINE
  /// repeater has no centre candidate.
  std::vector<std::int16_t> buffer_at;
  /// Its objective cost in the DP's label arithmetic
  /// (dp::score_labeling); +inf when no labeling was built or it misses
  /// the target.
  double objective_cost = std::numeric_limits<double>::infinity();
};

/// Round REFINE's answer into `fine`'s search space: every repeater at its
/// centre candidate with its rounded-up width, then, one repeater at a
/// time from the driver on, its rounded-down width wherever the labeling
/// still meets the target. `options` are stage 3's (kMinPower, the
/// target, the backend, allowed_buffers = &fine.allowed). The stage-3
/// optimum never costs more than the result: RIP passes the cheaper of it
/// and stage 1's cost to run_chain_dp_bounded as the incumbent.
RoundedRefine round_refine(const net::Net& net,
                           const tech::RepeaterDevice& device,
                           const FineProblem& fine,
                           const dp::ChainDpOptions& options,
                           dp::Workspace& ws);

/// Run Algorithm RIP on a net with timing target `tau_t_fs`. Its DP
/// stages reuse the arenas of `workspace` (by default this thread's
/// dp::Workspace::local()) across stages and calls, and may consult a
/// frontier cache for the stage-1 coarse DP (whose library/candidates
/// are target-independent, so a target sweep over one net hits after
/// the first solve). A net that meets the target unbuffered never
/// reaches the coarse DP or the cache, so its answer is the same with
/// the cache on or off. The stage-3 fine DP is never cached: its library
/// and allowed-width windows derive from the REFINE output, which
/// changes with the target — caching it would only pollute the cache
/// with single-use entries.
///
/// An objective backend (tech/objective.hpp) threads into both DP stages
/// and the final stage-3-vs-stage-1 arbitration (compared by objective
/// cost). Stage 2's REFINE needs no backend: it preserves the repeater
/// count, and on a fixed count an affine cost is minimized exactly where
/// total width is, so the analytical width argmin is the cost argmin
/// too. nullptr = the paper's objective, bit-identical to before.
RipResult rip_insert(const net::Net& net, const tech::RepeaterDevice& device,
                     double tau_t_fs, const RipOptions& options = {},
                     dp::Workspace& workspace = dp::Workspace::local(),
                     dp::ChainSolveCache* cache = nullptr,
                     const tech::ObjectiveBackend* backend = nullptr);

}  // namespace rip::core

#include "core/rip.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/candidates.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace rip::core {

namespace {

/// Report `answer`, a feasible DP result of stage 1 or 3, as RIP's.
void adopt(RipResult& result, const dp::ChainDpResult& answer,
           bool from_stage1) {
  result.status = dp::Status::kOptimal;
  result.solution = answer.solution;
  result.delay_fs = answer.delay_fs;
  result.total_width_u = answer.total_width_u;
  result.objective_cost = answer.objective_cost;
  result.used_fallback = from_stage1;
}

}  // namespace

FineProblem fine_problem(const net::Net& net,
                         const analytical::RefineResult& refined,
                         const RipOptions& options) {
  FineProblem p{dp::RepeaterLibrary::from_rounding(
                    refined.widths_u, options.fine_granularity_u,
                    options.fine_min_width_u, options.fine_max_width_u),
                net::window_candidates(net, refined.positions_um,
                                       options.window_half,
                                       options.window_pitch_um),
                {},
                {},
                {},
                {}};
  const double window_span =
      options.window_half * options.window_pitch_um + 1e-6;
  p.allowed.resize(p.candidates_um.size());
  const auto& lib_widths = p.library.widths_u();
  auto library_index = [&](double w) {
    const auto it =
        std::lower_bound(lib_widths.begin(), lib_widths.end(), w - 1e-9);
    RIP_ASSERT(it != lib_widths.end() && std::abs(*it - w) < 1e-6,
               "bracketed width missing from the stage-3 library");
    return static_cast<std::int16_t>(it - lib_widths.begin());
  };
  for (std::size_t ri = 0; ri < refined.positions_um.size(); ++ri) {
    const double w = refined.widths_u[ri];
    const double lo = std::clamp(
        std::floor(w / options.fine_granularity_u) * options.fine_granularity_u,
        options.fine_min_width_u, options.fine_max_width_u);
    const double hi = std::clamp(
        std::ceil(w / options.fine_granularity_u) * options.fine_granularity_u,
        options.fine_min_width_u, options.fine_max_width_u);
    const std::int16_t lo_idx = library_index(lo);
    const std::int16_t hi_idx = library_index(hi);
    const double center = refined.positions_um[ri];
    std::int32_t centre_ci = -1;
    for (std::size_t ci = 0; ci < p.candidates_um.size(); ++ci) {
      const double off = std::abs(p.candidates_um[ci] - center);
      if (off <= window_span) {
        p.allowed[ci].push_back(lo_idx);
        if (hi_idx != lo_idx) p.allowed[ci].push_back(hi_idx);
        // The window's centre: the candidate that stands for the REFINE
        // position after window_candidates' dedup.
        if (off < net::kWindowDedupTolUm && centre_ci < 0) {
          centre_ci = static_cast<std::int32_t>(ci);
        }
      }
    }
    p.centre.push_back(centre_ci);
    p.lo.push_back(lo_idx);
    p.hi.push_back(hi_idx);
  }
  for (auto& a : p.allowed) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return p;
}

RoundedRefine round_refine(const net::Net& net,
                           const tech::RepeaterDevice& device,
                           const FineProblem& fine,
                           const dp::ChainDpOptions& options,
                           dp::Workspace& ws) {
  RoundedRefine out;
  std::vector<std::int16_t>& at = out.buffer_at;
  at.assign(fine.candidates_um.size(), -1);
  for (std::size_t ri = 0; ri < fine.centre.size(); ++ri) {
    const std::int32_t ci = fine.centre[ri];
    // A missing centre, or two repeaters on one candidate, is no labeling.
    if (ci < 0 || at[static_cast<std::size_t>(ci)] >= 0) {
      at.clear();
      return out;
    }
    at[static_cast<std::size_t>(ci)] = fine.hi[ri];
  }
  const dp::LabelingScorer scorer(net, device, fine.library,
                                  fine.candidates_um, options, ws);
  auto score = [&] { return scorer.score(at).objective_cost; };
  out.objective_cost = score();
  if (!std::isfinite(out.objective_cost)) return out;
  for (std::size_t ri = 0; ri < fine.centre.size(); ++ri) {
    if (fine.lo[ri] == fine.hi[ri]) continue;
    std::int16_t& b = at[static_cast<std::size_t>(fine.centre[ri])];
    b = fine.lo[ri];
    const double cost = score();
    if (std::isfinite(cost)) {
      out.objective_cost = cost;
    } else {
      b = fine.hi[ri];
    }
  }
  return out;
}

RipResult rip_insert(const net::Net& net, const tech::RepeaterDevice& device,
                     double tau_t_fs, const RipOptions& options,
                     dp::Workspace& workspace, dp::ChainSolveCache* cache,
                     const tech::ObjectiveBackend* backend) {
  RIP_REQUIRE(tau_t_fs > 0, "timing target must be positive");
  RIP_REQUIRE(options.refine_repeats >= 1, "need at least one REFINE pass");
  WallTimer total_timer;
  RipResult result;

  // ---- Stage 1: coarse DP (Fig. 6, line 1). ----
  WallTimer stage_timer;
  const dp::RepeaterLibrary coarse_library = dp::RepeaterLibrary::uniform(
      options.coarse_min_width_u, options.coarse_granularity_u,
      options.coarse_library_size);
  const auto coarse_candidates =
      net::uniform_candidates(net, options.coarse_pitch_um);
  dp::ChainDpOptions dp_options;
  dp_options.mode = dp::Mode::kMinPower;
  dp_options.timing_target_fs = tau_t_fs;
  dp_options.backend = backend;
  // A net that meets the target with no repeater never reaches the DP
  // or the cache: that labeling is stage 1's exact answer.
  if (auto unbuffered =
          dp::unbuffered_answer(net, device, coarse_library,
                                coarse_candidates, dp_options, workspace)) {
    result.coarse = *std::move(unbuffered);
  } else {
    result.coarse = dp::run_chain_dp_cached(net, device, coarse_library,
                                            coarse_candidates, dp_options,
                                            workspace, cache);
  }
  result.coarse_s = stage_timer.seconds();

  if (result.coarse.status != dp::Status::kOptimal) {
    // Even the coarse library cannot meet the target: report infeasible
    // with the best-effort (min-delay) solution for diagnostics.
    result.status = dp::Status::kInfeasible;
    result.solution = result.coarse.min_delay_solution;
    result.delay_fs = result.coarse.min_delay_fs;
    result.total_width_u = result.solution.total_width_u();
    result.runtime_s = total_timer.seconds();
    return result;
  }

  // A coarse solution with no repeaters cannot be refined (REFINE keeps
  // the repeater count); it is already the trivial minimum-power answer.
  if (result.coarse.solution.empty()) {
    adopt(result, result.coarse, /*from_stage1=*/true);
    result.runtime_s = total_timer.seconds();
    return result;
  }

  // ---- Stage 2: REFINE (Fig. 6, line 2; Section 7 allows repeats). ----
  stage_timer.reset();
  net::RepeaterSolution refine_input = result.coarse.solution;
  for (int pass = 0; pass < options.refine_repeats; ++pass) {
    result.refined =
        analytical::refine(net, device, refine_input, tau_t_fs,
                           options.refine);
    if (!result.refined.width_solve_ok) break;
    refine_input = result.refined.solution();
  }
  result.refine_s = stage_timer.seconds();

  if (!result.refined.width_solve_ok) {
    // Analytical relaxation infeasible at this placement: fall back to
    // the coarse DP answer (still feasible by construction).
    adopt(result, result.coarse, /*from_stage1=*/true);
    result.runtime_s = total_timer.seconds();
    return result;
  }

  // ---- Stage 3: fine DP over the refined library and locations
  //      (Fig. 6, lines 3-4), bounded by the cheaper of stage 1's cost
  //      and the rounded REFINE answer's, and by a cost floor priced at
  //      REFINE's multiplier: only a stage-3 answer that costs no more
  //      than stage 1's is kept below. ----
  stage_timer.reset();
  const FineProblem fine = fine_problem(net, result.refined, options);
  dp::ChainDpOptions final_options = dp_options;
  final_options.allowed_buffers = &fine.allowed;
  const double incumbent = std::min(
      round_refine(net, device, fine, final_options, workspace).objective_cost,
      result.coarse.objective_cost);
  result.final_dp = dp::run_chain_dp_bounded(
      net, device, fine.library, fine.candidates_um, final_options, incumbent,
      workspace, result.refined.lambda);
  result.final_s = stage_timer.seconds();

  // Best feasible of {stage 3, stage 1}: RIP never loses to its own
  // coarse stage and stays feasible whenever stage 1 was. Arbitrated on
  // the objective cost (== total width on the identity objective).
  const bool final_wins =
      result.final_dp.status == dp::Status::kOptimal &&
      result.final_dp.objective_cost <= result.coarse.objective_cost;
  adopt(result, final_wins ? result.final_dp : result.coarse, !final_wins);
  result.runtime_s = total_timer.seconds();
  return result;
}

}  // namespace rip::core

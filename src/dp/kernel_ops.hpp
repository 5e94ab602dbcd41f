#pragma once

/// @file kernel_ops.hpp
/// SoA frontier primitives shared by the chain and tree DP kernels.
///
/// Both kernels sweep the same label algebra over a ChainFrontier kept
/// sorted by (C asc, q desc, w asc): affine wire propagation, per-group
/// candidate expansion, and staircase dominance. The chain kernel walks
/// a candidate list; the tree kernel walks nodes bottom-up and adds a
/// junction merge — everything else is these shared primitives, so a
/// path-shaped tree reproduces the chain solve bit for bit (which
/// tests/tree_oracle_property_test.cpp pins).
///
/// Internal header: included by the kernels only, not part of the
/// public dp/ API surface.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "tech/objective.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace rip::dp::kernel {

/// The allowed list used when the backend forbids repeater insertion
/// (tech::ChainCost::allow_repeaters == false): every candidate expands
/// zero buffer groups, so the sweep degenerates to pure wire
/// propagation of the seed labels.
inline const std::vector<std::int16_t> kNoBuffers;

/// Validate a backend's per-net cost coefficients (identity when no
/// backend is set). Coefficients must be non-negative: a negative width
/// weight would break the kernel's monotone group ordering.
inline tech::ChainCost checked_chain_cost(const tech::ObjectiveBackend* backend,
                                          const tech::NetProfile& profile) {
  if (backend == nullptr) return tech::ChainCost{};
  const tech::ChainCost cost = backend->chain_cost(profile);
  RIP_REQUIRE(cost.width_weight >= 0 && cost.per_repeater >= 0,
              "objective backend produced negative cost coefficients");
  RIP_REQUIRE(cost.receiver_penalty_fs >= 0,
              "objective backend produced a negative receiver penalty");
  return cost;
}

/// True when the label arrays' third dimension is plain total width —
/// the paper's objective. (Narrower than ChainCost::is_identity(): the
/// receiver penalty and the allow flag shift q / restrict insertion but
/// do not reshape the accumulated value.)
inline bool identity_cost_table(const tech::ChainCost& cost) {
  return cost.width_weight == 1.0 && cost.per_repeater == 0.0;
}

/// Seed required arrival time, target-relative: 0 in both modes, minus
/// any backend receiver penalty. The zero guard keeps the seed at +0.0
/// on the default path (-0.0 would survive to the final slack and print
/// as "-0.000").
inline double seed_q_fs(const tech::ChainCost& cost) {
  return cost.receiver_penalty_fs == 0.0 ? 0.0 : -cost.receiver_penalty_fs;
}

/// Feasibility of a target-relative slack, shared by final selection and
/// the stage-3 slack bound so the bound never drops an acceptable label.
inline bool meets_target(double q_rel_fs, double target_fs, double tol_fs) {
  return q_rel_fs + target_fs >= -tol_fs;
}

/// The two exact branch-and-bound cuts of RIP's stage 3
/// (dp::run_chain_dp_bounded): a label is admitted while it can still
/// meet the target and its cost does not exceed the incumbent (stage 1's
/// cost, which a kept stage-3 answer must not exceed). Both are exact:
///  - all terms are nonnegative (wire R, C and K, load times driving
///    resistance, intrinsic delay, cost coefficients): the Technology, Net
///    and RepeaterLibrary constructors and checked_chain_cost reject
///    negative or NaN inputs. Toward the driver q only falls, cost grows;
///  - IEEE rounding is monotone, so a rejected label has no admitted
///    descendant, and whatever dominates an admitted label is admitted;
///  - ties are ordered by label content (expand_candidate), so the
///    bounded sweep keeps exactly the unbounded sweep's admitted labels
///    and selects the same answer whenever that answer is admitted.
struct LabelBounds {
  double target_fs;
  double slack_tolerance_fs;
  double max_cost;
  bool admits(double q_rel_fs, double cost) const {
    return meets_target(q_rel_fs, target_fs, slack_tolerance_fs) &&
           cost <= max_cost;
  }
};

/// Rewrite a width order (see expand_candidate) through `remap`: old
/// frontier index -> new index, or -1 for a dropped label. Survivors keep
/// their relative order, so the result is the new frontier's width order.
inline void remap_order(std::vector<std::int32_t>& order,
                        const std::vector<std::int32_t>& remap) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::int32_t to = remap[static_cast<std::size_t>(order[k])];
    if (to >= 0) order[kept++] = to;
  }
  order.resize(kept);
}

/// Drop in place, in order, every label the bounds reject; return how
/// many. The frontier's width `order` is compacted along with it
/// (`remap` is scratch).
inline std::size_t retain_admitted(ChainFrontier& front,
                                   const LabelBounds& bounds,
                                   std::vector<std::int32_t>& order,
                                   std::vector<std::int32_t>& remap) {
  const std::size_t n = front.size();
  remap.resize(n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!bounds.admits(front.q_fs[i], front.width_u[i])) {
      remap[i] = -1;
      continue;
    }
    remap[i] = static_cast<std::int32_t>(kept);
    front.cap_ff[kept] = front.cap_ff[i];
    front.q_fs[kept] = front.q_fs[i];
    front.width_u[kept] = front.width_u[i];
    front.count[kept] = front.count[i];
    front.node[kept++] = front.node[i];
  }
  front.truncate(kept);
  if (kept < n) remap_order(order, remap);
  return n - kept;
}

/// The (width asc, index asc) order of `ids`, which index `width_u`.
inline void sort_by_width(std::vector<std::int32_t>& ids,
                          const std::vector<double>& width_u) {
  const double* w = width_u.data();
  std::sort(ids.begin(), ids.end(), [w](std::int32_t a, std::int32_t b) {
    return w[a] < w[b] || (w[a] == w[b] && a < b);
  });
}

/// Fill `order` with the frontier's width order, from scratch, and return
/// it. The tree kernel calls this before each candidate expansion; the
/// chain sweep carries its order from candidate to candidate instead.
inline const std::vector<std::int32_t>& width_order(
    const ChainFrontier& front, std::vector<std::int32_t>& order) {
  order.resize(front.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::int32_t>(i);
  sort_by_width(order, front.width_u);
  return order;
}

/// Affine coefficients of wire propagation across one candidate interval.
/// Carrying a label upstream over the interval's pieces applies, piece by
/// piece, q -= r*(C + c/2); C += c. Composed over the whole interval that
/// is exactly
///   q -= R_tot * C + K;   C += C_tot
/// with K = sum_k r_k * (c_0 + ... + c_{k-1} + 0.5*c_k) over pieces
/// ordered downstream->upstream. The coefficients depend only on the
/// interval, so they are computed once and applied to every alive label —
/// two fused multiply-adds per label instead of a loop over pieces.
struct WireAffine {
  double r_tot = 0;  ///< total interval resistance [Ohm]
  double c_tot = 0;  ///< total interval capacitance [fF]
  double k = 0;      ///< label-independent Elmore term [fs]
};

inline WireAffine interval_affine(const std::vector<net::WirePiece>& pieces) {
  WireAffine a;
  // pieces are ordered upstream->downstream; accumulate from the
  // downstream end, mirroring the label's traversal order.
  for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
    const double r = it->r_ohm_per_um * it->length_um;
    const double c = it->c_ff_per_um * it->length_um;
    a.k += r * (a.c_tot + 0.5 * c);
    a.r_tot += r;
    a.c_tot += c;
  }
  return a;
}

/// The affine map of a single lumped RC tree edge. Bit-identical to
/// interval_affine over a one-piece interval with the same totals:
/// r * (0.0 + 0.5*c) == r * (0.5*c) for every non-negative c.
inline WireAffine edge_affine(double r_ohm, double c_ff) {
  return WireAffine{r_ohm, c_ff, r_ohm * (0.5 * c_ff)};
}

/// Apply the interval map to the whole frontier (contiguous SoA arrays).
inline void propagate_frontier(ChainFrontier& front, const WireAffine& wire) {
  if (wire.r_tot == 0 && wire.c_tot == 0) return;
  double* __restrict cap = front.cap_ff.data();
  double* __restrict q = front.q_fs.data();
  const std::size_t n = front.size();
  RIP_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    q[i] -= wire.r_tot * cap[i] + wire.k;
    cap[i] += wire.c_tot;
  }
}

/// Delay mode's candidate expansion: with no width dimension, each
/// group's staircase is its single best-q label (ties: the smaller
/// width, matching the power-mode staircase order), found by a linear
/// scan. Kept out of line: inlined into the sweep beside the power-mode
/// group sweep, the same loop ran 10-20% slower (g++ 12, measured), and
/// it is most of every min_delay solve.
[[gnu::noinline]] inline void expand_max_q(
    Workspace& ws, const ChainFrontier& front,
    const std::vector<std::int16_t>& allowed,
    const std::vector<double>& cost_u, double intrinsic_fs) {
  const std::size_t fn = front.size();
  const double* __restrict cap = front.cap_ff.data();
  const double* __restrict q = front.q_fs.data();
  const double* __restrict w = front.width_u.data();
  for (const std::int16_t b : allowed) {
    const auto bi = static_cast<std::size_t>(b);
    const double rs_over_w = ws.lib_rs_over_w[bi];
    const double wb = cost_u[bi];
    double best_q = -std::numeric_limits<double>::infinity();
    double best_w = std::numeric_limits<double>::infinity();
    std::int32_t best_i = -1;
    for (std::size_t i = 0; i < fn; ++i) {
      const double up_q = q[i] - (intrinsic_fs + rs_over_w * cap[i]);
      const double up_w = w[i] + wb;
      if (up_q > best_q || (up_q == best_q && up_w < best_w)) {
        best_q = up_q;
        best_w = up_w;
        best_i = static_cast<std::int32_t>(i);
      }
    }
    ws.expanded.push_back(
        ExpandLabel{ws.lib_load_ff[bi], best_q, best_w, best_i, b});
  }
}

/// Build the buffer-insertion labels of one candidate into ws.expanded,
/// already dominance-filtered *within* each buffer group and ordered so
/// that ws.expanded is sorted by (C asc, q desc, w asc).
///
/// The structural shortcut the whole kernel leans on: every label of
/// group b shares the same downstream capacitance (the buffer's input
/// load co*w_b), and the allowed buffer list is width-ascending, so the
/// groups concatenate into a sorted run without any global sort. Within
/// a group, equal C reduces dominance to the (q, w) staircase, found by
/// one linear sweep along `order`, the frontier's width order: its label
/// indices by non-decreasing width. Group b adds the same cost w_b to
/// every width and IEEE addition is monotone, so one order serves every
/// group. Labels whose sums w + w_b are equal (as computed: two widths
/// may round to one sum) form a run; a run's candidate is its best
/// admitted label (highest q, then lowest frontier index), and it
/// survives iff its q is strictly above every narrower run's. Survivors
/// come out width-ascending and are appended reversed (q desc, w
/// strictly falling).
///
/// That is exactly the staircase of a sort by (q desc, w asc, frontier
/// index asc): both keep the labels that no other label beats in that
/// order. So which of two equal labels survives never depends on the
/// rest of the group, nor on the order of labels inside a run. Delay
/// mode (no width dimension) is expand_max_q and does not read `order`.
/// `bounds` (power mode; nullptr = none) cut before the sweep.
inline void expand_candidate(Workspace& ws, const ChainFrontier& front,
                             const std::vector<std::int32_t>& order,
                             const std::vector<std::int16_t>& allowed,
                             const std::vector<double>& cost_u,
                             double intrinsic_fs, bool use_width,
                             const LabelBounds* bounds = nullptr) {
  const std::size_t fn = front.size();
  RIP_ASSERT(!use_width || order.size() == fn,
             "width order does not cover the frontier");
  ws.expanded.clear();
  // Lower-bound reserve only: the retained workspace capacity converges
  // to the true survivor watermark after warm-up, which is far below
  // the fn * |allowed| worst case — reserving that would pin megabytes
  // of never-used arena per thread.
  ws.expanded.reserve(fn + allowed.size());
  if (!use_width) {
    expand_max_q(ws, front, allowed, cost_u, intrinsic_fs);
    return;
  }
  const double* __restrict cap = front.cap_ff.data();
  const double* __restrict q = front.q_fs.data();
  const double* __restrict w = front.width_u.data();
  const std::int32_t* __restrict ord = order.data();
  for (const std::int16_t b : allowed) {
    const auto bi = static_cast<std::size_t>(b);
    const double load = ws.lib_load_ff[bi];
    const double rs_over_w = ws.lib_rs_over_w[bi];
    const double wb = cost_u[bi];
    // The run's best is selected without branches: which label wins is
    // data-dependent, so a branch there would mispredict often.
    const std::size_t first = ws.expanded.size();
    constexpr std::int32_t kNone = std::numeric_limits<std::int32_t>::max();
    bool any = false;  // a narrower run has survived
    double top_q = 0;  // the highest q of the narrower runs
    std::size_t k = 0;
    while (k < fn) {
      const double run_w = w[ord[k]] + wb;
      double run_q = -std::numeric_limits<double>::infinity();
      std::int32_t run_i = kNone;
      do {
        const std::int32_t i = ord[k];
        const double up_q = q[i] - (intrinsic_fs + rs_over_w * cap[i]);
        const bool take =
            (bounds == nullptr || bounds->admits(up_q, run_w)) &
            ((up_q > run_q) | ((up_q == run_q) & (i < run_i)));
        run_q = take ? up_q : run_q;
        run_i = take ? i : run_i;
      } while (++k < fn && w[ord[k]] + wb == run_w);
      if (run_i != kNone && (!any || run_q > top_q)) {
        any = true;
        top_q = run_q;
        ws.expanded.push_back(ExpandLabel{load, run_q, run_w, run_i, b});
      }
    }
    std::reverse(ws.expanded.begin() + static_cast<std::ptrdiff_t>(first),
                 ws.expanded.end());
  }
}

}  // namespace rip::dp::kernel

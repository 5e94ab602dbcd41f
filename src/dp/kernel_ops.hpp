#pragma once

/// @file kernel_ops.hpp
/// The label algebra of the chain and tree DP kernels, in one place.
///
/// Both kernels sweep labels (C, q, cost) over a ChainFrontier kept
/// sorted by (C asc, q desc, w asc), with the same steps: input checks
/// and the library's terms, affine wire propagation, per-group candidate
/// expansion, the staircase merge into the next frontier (which writes
/// the one reconstruction arena), the driver gate, and final selection.
/// The chain kernel walks a candidate list; the tree kernel walks nodes
/// bottom-up and adds a junction merge. Each keeps only its traversal and
/// its own reconstruction walk, so a path-shaped tree reproduces the
/// chain solve bit for bit (which tests/tree_oracle_property_test.cpp
/// pins).
///
/// Internal header: included by the kernels only, not part of the
/// public dp/ API surface.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dp/chain_dp.hpp"
#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "tech/objective.hpp"
#include "tech/technology.hpp"
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
/// the stage-3 slack bound (both at kSlackToleranceFs) so the bound never
/// drops an acceptable label.
inline bool meets_target(double q_rel_fs, double target_fs, double tol_fs) {
  return q_rel_fs + target_fs >= -tol_fs;
}

/// Check the caller's allowed lists (nullptr = the whole library at every
/// position): one list per candidate position (tree node), each sorted
/// ascending, so that expand_candidate's groups concatenate into a
/// capacitance-sorted run, and each index within the library.
inline void check_allowed_lists(
    const std::vector<std::vector<std::int16_t>>* allowed_buffers,
    std::size_t positions, const RepeaterLibrary& library) {
  if (allowed_buffers == nullptr) return;
  RIP_REQUIRE(allowed_buffers->size() == positions,
              "allowed_buffers must parallel the candidate positions");
  for (const auto& allowed : *allowed_buffers) {
    RIP_REQUIRE(std::is_sorted(allowed.begin(), allowed.end()),
                "allowed_buffers lists must be sorted ascending");
    for (const auto b : allowed) {
      RIP_REQUIRE(b >= 0 && static_cast<std::size_t>(b) < library.size(),
                  "allowed buffer index out of library range");
    }
  }
}

/// The library's per-solve terms, into `ws`: input load co*w, driving
/// resistance rs/w and objective cost per width, and the whole-library
/// allowed list.
inline void fill_library_terms(const tech::RepeaterDevice& device,
                               const RepeaterLibrary& library,
                               const tech::ChainCost& cost, Workspace& ws) {
  library.fill_device_terms(device, ws.lib_load_ff, ws.lib_rs_over_w);
  library.fill_cost_terms(cost, ws.lib_cost);
  ws.all_buffers.resize(library.size());
  for (std::size_t b = 0; b < library.size(); ++b)
    ws.all_buffers[b] = static_cast<std::int16_t>(b);
}

/// The lookahead cut's margin, relative to the target: the cut drops a
/// label only when its slack minus its floor misses the target by more
/// than the slack tolerance plus kFloorMargin * target. Where the cut
/// decides, q and the floor are each at most about the target in size (a
/// label further past it fails the slack cut first), and each is a sum of
/// at most a few hundred nonnegative terms, so each lies within about
/// 1e-13 * target of its exact value. The margin exceeds that by orders
/// of magnitude: the cut never drops a label that has a completion the
/// DP would compute as feasible.
inline constexpr double kFloorMargin = 1e-9;

/// The exact branch-and-bound cuts of RIP's stage 3
/// (dp::run_chain_dp_bounded): a label is admitted while it can still
/// meet the target, its cost does not exceed the incumbent (the cost of a
/// known feasible answer, which a kept stage-3 answer must not exceed),
/// its slack minus its lookahead floor can still meet the target, and its
/// cost plus its Lagrangian cost floor does not exceed the incumbent. The
/// first two are exact:
///  - all terms are nonnegative (wire R, C and K, load times driving
///    resistance, intrinsic delay, cost coefficients): the Technology, Net
///    and RepeaterLibrary constructors and checked_chain_cost reject
///    negative or NaN inputs. Toward the driver q only falls, cost grows;
///  - IEEE rounding is monotone, so a rejected label has no admitted
///    descendant, and whatever dominates an admitted label is admitted;
///  - ties are ordered by label content (expand_candidate), so the
///    bounded sweep keeps exactly the unbounded sweep's admitted labels
///    and selects the same answer whenever that answer is admitted.
/// The lookahead cut is exact too:
///  - the floor (fill_lookahead_floor at weight 1 and zero costs) is, in
///    exact arithmetic, a lower bound on the delay that every completion
///    of the label adds between the driver and the label, and the cut's
///    margin (kFloorMargin) exceeds the rounding of both the floor and q,
///    so a cut label has no completion that final selection would accept;
///  - a label with no feasible completion can neither be selected nor
///    dominate a label that has one: whatever dominates a label gets, by
///    monotone rounding, at least its slack under every completion;
///  - so the labels with a feasible completion, and the answer chosen
///    among them, are the unbounded sweep's, bit for bit.
/// So is the cost floor, at any price lambda >= 0 of a femtosecond in cost:
///  - take a label (C, q, cost) and a completion of it from the driver,
///    with resistance R from the last gate upstream to the label, delay t
///    into the label at no load, and cost c. If the completion meets the
///    target, t + R*C - q <= target + tolerance, so its total cost
///    cost + c is at least cost + (c + lambda*(t + R*C))
///    - lambda*(q + target + tolerance);
///  - the floor (fill_lookahead_floor at weight lambda and the cost table)
///    is, in exact arithmetic, the least c + lambda*(t + R*C) over every
///    completion of a repeater label, and at most it for a pass-through
///    label (V0 + lambda*Rmin*C: V0 and Rmin are separate minima);
///  - where the cut decides, cost is at most the incumbent, lambda*|q| at
///    most lambda*(target + tolerance), and the floor at most their sum
///    (else the label has no completion within the incumbent), each a sum
///    of at most a few hundred nonnegative terms. So every term lies
///    within about 1e-13 * (incumbent + lambda*target) of its exact
///    value, and the cut's margin, kFloorMargin times that, exceeds it by
///    orders of magnitude: a cut label has no completion that final
///    selection would accept at a cost <= the incumbent;
///  - a label with no such completion can neither be selected nor
///    dominate a label that has one (monotone rounding again: the
///    dominating label's cost also stays within the incumbent), so the
///    answer is the unbounded sweep's whenever it costs no more than the
///    incumbent. lambda only decides how much is cut; at 0 nothing is.
/// The floor fields describe the candidate being swept (the chain sweep
/// sets them per candidate). A LabelBounds built from its first two
/// fields has a zero floor, whose cut at a positive target (the margin
/// widening the tolerance) is weaker than the slack cut: it applies no
/// floor, and no cost floor (cost_ceiling is +inf). The tolerance is
/// final selection's, kSlackToleranceFs.
struct LabelBounds {
  double target_fs;
  double max_cost;
  double pass_floor_fs = 0;   ///< D0 at this candidate [fs]
  double pass_floor_ohm = 0;  ///< Rmin at this candidate [Ohm]
  /// F of each allowed width at this candidate, parallel to the allowed
  /// list [fs]; nullptr = 0 for every group.
  const double* group_floor_fs = nullptr;
  /// The cost floor's price of a femtosecond [cost/fs]; 0 = no cost floor.
  double lambda = 0;
  /// The cost floor's cut line: max_cost + lambda*(target + tolerance)
  /// plus the margin kFloorMargin * (max_cost + lambda*target).
  double cost_ceiling = std::numeric_limits<double>::infinity();
  double pass_cost_floor = 0;   ///< V0 at this candidate [cost]
  double pass_cost_per_ff = 0;  ///< lambda*Rmin at this candidate [cost/fF]
  /// G of each allowed width at this candidate, parallel to the allowed
  /// list [cost]; nullptr = 0 for every group.
  const double* group_cost_floor = nullptr;

  /// Price delay at `price` (>= 0, finite): set lambda and cost_ceiling.
  void price_delay(double price) {
    lambda = price;
    cost_ceiling =
        price == 0 ? std::numeric_limits<double>::infinity()
                   : max_cost + price * (target_fs + kSlackToleranceFs) +
                         kFloorMargin * (max_cost + price * target_fs);
  }

  bool admits(double q_rel_fs, double cost) const {
    return meets_target(q_rel_fs, target_fs, kSlackToleranceFs) &&
           cost <= max_cost;
  }
  /// admits(), the lookahead cut of a label every completion of which
  /// adds at least `floor_fs` of delay upstream, and the cost floor's cut
  /// of one every completion of which has c + lambda*(t + R*C) of at
  /// least `floor_cost`.
  bool admits(double q_rel_fs, double cost, double floor_fs,
              double floor_cost) const {
    return admits(q_rel_fs, cost) &&
           meets_target(q_rel_fs - floor_fs, target_fs,
                        kSlackToleranceFs + kFloorMargin * target_fs) &&
           cost + floor_cost - lambda * q_rel_fs <= cost_ceiling;
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

/// Drop in place, in order, every pass-through label the bounds reject,
/// the lookahead cut charging label (q, C) the floor D0 + Rmin * C and
/// the cost floor V0 + lambda*Rmin * C; return how many. The frontier's
/// width `order` is compacted along with it (`remap` is scratch).
inline std::size_t retain_admitted(ChainFrontier& front,
                                   const LabelBounds& bounds,
                                   std::vector<std::int32_t>& order,
                                   std::vector<std::int32_t>& remap) {
  const std::size_t n = front.size();
  remap.resize(n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double floor_fs =
        bounds.pass_floor_fs + bounds.pass_floor_ohm * front.cap_ff[i];
    const double floor_cost =
        bounds.pass_cost_floor + bounds.pass_cost_per_ff * front.cap_ff[i];
    if (!bounds.admits(front.q_fs[i], front.width_u[i], floor_fs,
                       floor_cost)) {
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

/// The wire map (WireAffine) of one candidate interval's pieces.
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

/// Fill ws.wire with the wire map of every candidate interval, driver to
/// receiver: wire[k] spans [c_{k-1}, c_k], where c_{-1} is the driver and
/// c_n the receiver, so the chain sweep crosses wire[n] first and wire[0]
/// last.
inline void fill_wire_affines(const net::Net& net,
                              const std::vector<double>& candidates_um,
                              Workspace& ws) {
  const std::size_t n = candidates_um.size();
  ws.wire.resize(n + 1);
  double upstream_um = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    const double pos_um = k < n ? candidates_um[k] : net.total_length_um();
    net.pieces_between(upstream_um, pos_um, ws.pieces);
    ws.wire[k] = interval_affine(ws.pieces);
    upstream_um = pos_um;
  }
}

/// The library indices that may be inserted at candidate `ci`: none when
/// the backend forbids repeaters, the caller's list when one is given,
/// else the whole library (ws.all_buffers).
inline const std::vector<std::int16_t>& allowed_at(
    const tech::ChainCost& cost,
    const std::vector<std::vector<std::int16_t>>* allowed_buffers,
    const Workspace& ws, std::size_t ci) {
  if (!cost.allow_repeaters) return kNoBuffers;
  return allowed_buffers != nullptr ? (*allowed_buffers)[ci]
                                    : ws.all_buffers;
}

/// Append `p` to an (R, v) Pareto set built in R-ascending order, unless
/// the last pair dominates it; a pair at the last pair's R and a lower v
/// replaces it. So the set keeps v strictly falling.
inline void pareto_push(std::vector<ForwardPair>& set, ForwardPair p) {
  if (!set.empty() && p.v >= set.back().v) return;
  if (!set.empty() && p.r_ohm == set.back().r_ohm) set.pop_back();
  set.push_back(p);
}

/// The floors of RIP's stage 3 (LabelBounds), from one sweep driver to
/// receiver over the chain sweep's candidates, allowed widths and wire
/// maps (ws.wire, after fill_wire_affines). A completion of a label is
/// priced v = c + weight*t: its repeaters' cost c (width b costs
/// width_cost[b]; nullptr = 0) plus `weight` times its delay t. The sweep
/// keeps the Pareto set of (R, v) pairs (ForwardPair), R ascending and v
/// strictly falling:
///  - the seed at the driver is (rs/w_d, weight*rs*cp);
///  - an interval maps v += weight*(R*C_tot + K), then R += R_tot (the
///    backward map's K: sum r_k * (downstream caps + c_k/2) equals
///    sum c_k * (upstream resistances + r_k/2));
///  - width b at candidate i has F(i, b) = min over the set of
///    v + weight*(R*co*w_b), the least price into that repeater, and adds
///    (rs/w_b, F(i, b) + weight*rs*cp + width_cost[b]) to the set.
/// Candidate i records F(i, b) for each allowed width, into `group` from
/// ws.floor_group_at[i], and the least v and the least R of the set after
/// its insertions, into least[i] and rmin[i]. Every completion of a label
/// of group b at i is priced at least F(i, b); every completion of a
/// pass-through label with load C at i, with or without a repeater at i,
/// at least least[i] + weight*rmin[i]*C. Both maps are monotone, so
/// dropping a dominated pair loses no minimum. Reads ws.lib_load_ff and
/// ws.lib_rs_over_w.
///
/// At weight 1 and zero costs, v is the delay: the lookahead floor D0,
/// Rmin and F (ws.floor_d0, floor_rmin, floor_group), whose arithmetic
/// that call keeps bit for bit (x*1.0 and x+0.0 are exact). At weight
/// lambda and the cost table it is the Lagrangian cost floor V0, Rmin and
/// G (ws.cost_floor_*). Both calls write the same ws.floor_group_at.
inline void fill_lookahead_floor(
    Workspace& ws, const tech::ChainCost& cost,
    const std::vector<std::vector<std::int16_t>>* allowed_buffers,
    double driver_rs_over_w, double intrinsic_fs, double weight,
    const double* width_cost, std::vector<double>& least,
    std::vector<double>& rmin, std::vector<double>& group) {
  const std::size_t n = ws.wire.size() - 1;
  least.resize(n);
  rmin.resize(n);
  ws.floor_group_at.resize(n);
  group.clear();
  // The set and its scratch ping-pong through local pointers, so each
  // buffer serves the same steps on every solve of the same shape.
  std::vector<ForwardPair>* set = &ws.fwd;
  std::vector<ForwardPair>* next = &ws.fwd_next;
  const double gate_v = weight * intrinsic_fs;
  set->assign(1, ForwardPair{driver_rs_over_w, gate_v});
  for (std::size_t i = 0; i < n; ++i) {
    // Cross the interval. R keeps its order; v may lose its own, and
    // what that leaves dominated is dropped.
    const WireAffine& wire = ws.wire[i];
    next->clear();
    for (const ForwardPair& p : *set) {
      pareto_push(*next, {p.r_ohm + wire.r_tot,
                          p.v + weight * (p.r_ohm * wire.c_tot + wire.k)});
    }
    std::swap(set, next);

    const std::vector<std::int16_t>& allowed =
        allowed_at(cost, allowed_buffers, ws, i);
    ws.floor_group_at[i] = group.size();
    for (const std::int16_t b : allowed) {
      const double load = ws.lib_load_ff[static_cast<std::size_t>(b)];
      double f = std::numeric_limits<double>::infinity();
      for (const ForwardPair& p : *set) {
        f = std::min(f, p.v + weight * (p.r_ohm * load));
      }
      group.push_back(f);
    }
    if (!allowed.empty()) {
      // Merge the new repeater pairs into the set in (R, v) ascending
      // order. The allowed list ascends in width, so its R = rs/w_b
      // descends: walk it from the back.
      const double* f = group.data() + ws.floor_group_at[i];
      next->clear();
      std::size_t k = 0;
      for (std::size_t g = allowed.size(); g-- > 0;) {
        const auto bi = static_cast<std::size_t>(allowed[g]);
        const ForwardPair fresh{
            ws.lib_rs_over_w[bi],
            (f[g] + gate_v) + (width_cost != nullptr ? width_cost[bi] : 0.0)};
        for (; k < set->size() && ((*set)[k].r_ohm < fresh.r_ohm ||
                                   ((*set)[k].r_ohm == fresh.r_ohm &&
                                    (*set)[k].v <= fresh.v));
             ++k) {
          pareto_push(*next, (*set)[k]);
        }
        pareto_push(*next, fresh);
      }
      for (; k < set->size(); ++k) pareto_push(*next, (*set)[k]);
      std::swap(set, next);
    }
    rmin[i] = set->front().r_ohm;
    least[i] = set->back().v;
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
/// `bounds` (power mode; nullptr = none) admit labels, the lookahead cut
/// charging group k the floor bounds->group_floor_fs[k] and the cost
/// floor bounds->group_cost_floor[k]. At one cost (a run) and one group,
/// every cut only admits more as q rises (IEEE arithmetic is monotone and
/// lambda >= 0), so a run's best admitted label is its best label if that
/// is admitted, and none otherwise: the bounds are tested once per run.
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
  for (std::size_t g = 0; g < allowed.size(); ++g) {
    const std::int16_t b = allowed[g];
    const auto bi = static_cast<std::size_t>(b);
    const double load = ws.lib_load_ff[bi];
    const double rs_over_w = ws.lib_rs_over_w[bi];
    const double wb = cost_u[bi];
    // Every label of the group drives the same load, so one floor serves
    // the whole group.
    const double floor_fs =
        bounds != nullptr && bounds->group_floor_fs != nullptr
            ? bounds->group_floor_fs[g]
            : 0.0;
    const double floor_cost =
        bounds != nullptr && bounds->group_cost_floor != nullptr
            ? bounds->group_cost_floor[g]
            : 0.0;
    // The run's best is selected without a branch on the larger q (a
    // max): which label wins is data-dependent, so a branch there would
    // mispredict often. Only an exact tie, which the lower index wins,
    // branches; it is rare.
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
        if ((up_q == run_q) & (i < run_i)) {
          run_q = up_q;
          run_i = i;
        } else {
          run_i = up_q > run_q ? i : run_i;
          run_q = up_q > run_q ? up_q : run_q;
        }
      } while (++k < fn && w[ord[k]] + wb == run_w);
      if (bounds != nullptr &&
          !bounds->admits(run_q, run_w, floor_fs, floor_cost)) {
        continue;
      }
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

/// A candidate step's merge into `back`: the pass-through run (`front`
/// itself; its labels are never copied first) and the expansion run
/// (ws.expanded, from expand_candidate), both sorted by (C asc, q desc,
/// w asc), swept in their combined order through the dominance filter:
/// the (q, w) staircase in power mode, q alone in delay mode. Exact ties
/// take the pass-through, and `back` comes out in the same order.
/// A surviving repeater label appends its reconstruction-arena entry
/// (a_parent: its downstream label's entry, a_pos: `pos`, a_buffer: its
/// width); a pass-through keeps its entry. In power mode ws.order_map
/// records where each pass-through label lands (-1: pruned) and
/// ws.order_fresh the new repeater labels, from which the chain sweep
/// carries its width order. Counts the step into `stats`: `allowed_n`
/// groups of |front| labels created, all but |back| of the
/// (1 + allowed_n) * |front| offered pruned. Forced inline: it is the
/// chain sweep's inner loop, and each kernel calls it from one place.
[[gnu::always_inline]] inline void merge_candidate(Workspace& ws, const ChainFrontier& front,
                            ChainFrontier& back, std::int32_t pos,
                            std::size_t allowed_n, bool power_mode,
                            DpStats& stats) {
  const std::size_t fn = front.size();
  const std::size_t gn = ws.expanded.size();
  back.clear();
  back.reserve(fn + gn);
  ws.frontier.clear();
  if (power_mode) ws.order_map.resize(fn);
  ws.order_fresh.clear();
  double best_q = -std::numeric_limits<double>::infinity();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < fn || j < gn) {
    bool from_front;
    if (j >= gn) {
      from_front = true;
    } else if (i >= fn) {
      from_front = false;
    } else {
      // (C asc, q desc, w asc); exact ties take the pass-through.
      const ExpandLabel& g = ws.expanded[j];
      if (front.cap_ff[i] != g.cap_ff) {
        from_front = front.cap_ff[i] < g.cap_ff;
      } else if (front.q_fs[i] != g.q_fs) {
        from_front = front.q_fs[i] > g.q_fs;
      } else {
        from_front = front.width_u[i] <= g.width_u;
      }
    }
    if (from_front) {
      const double q = front.q_fs[i];
      const double w = front.width_u[i];
      const bool survives =
          power_mode ? ws.frontier.try_insert(q, w) : q > best_q;
      if (power_mode) {
        ws.order_map[i] =
            survives ? static_cast<std::int32_t>(back.size()) : -1;
      }
      if (survives) {
        best_q = q;
        back.push(front.cap_ff[i], q, w, front.count[i], front.node[i]);
      }
      ++i;
    } else {
      const ExpandLabel& g = ws.expanded[j];
      const bool survives = power_mode
                                ? ws.frontier.try_insert(g.q_fs, g.width_u)
                                : g.q_fs > best_q;
      if (survives) {
        best_q = g.q_fs;
        const auto origin = static_cast<std::size_t>(g.origin);
        ws.a_parent.push_back(front.node[origin]);
        ws.a_pos.push_back(pos);
        ws.a_buffer.push_back(g.buffer);
        if (power_mode) {
          ws.order_fresh.push_back(static_cast<std::int32_t>(back.size()));
        }
        back.push(g.cap_ff, g.q_fs, g.width_u,
                  static_cast<std::int16_t>(front.count[origin] + 1),
                  static_cast<std::int32_t>(ws.a_parent.size() - 1));
      }
      ++j;
    }
  }
  stats.labels_created += allowed_n * fn;
  stats.labels_pruned += fn * (1 + allowed_n) - back.size();
  stats.labels_peak = std::max(stats.labels_peak, back.size());
}

/// The driver gate, in place over the frontier at the driver:
/// q -= rs*cp + (rs/w_d) * C. Afterwards q_fs[i] is label i's
/// target-relative final slack: it meets target t iff
/// meets_target(q, t, kSlackToleranceFs), and its delay is -q.
inline void apply_driver_gate(ChainFrontier& front, double intrinsic_fs,
                              double driver_rs_over_w) {
  double* __restrict q = front.q_fs.data();
  const double* __restrict cap = front.cap_ff.data();
  const std::size_t n = front.size();
  RIP_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = q[i] - (intrinsic_fs + driver_rs_over_w * cap[i]);
  }
}

/// Final selection over a finished, non-empty frontier (q_fs: final
/// slack, after apply_driver_gate; cost: the labels' objective values;
/// count: their repeater counts), into `result`'s answer fields. The
/// min-delay answer is the label of greatest slack (the first on a tie).
/// In power mode the answer is the cheapest label that meets the target
/// (ties: fewer repeaters, then more slack, then the first), or
/// kInfeasible when none does; in delay mode it is the min-delay label.
/// `rebuild(i)` reconstructs label i's solution (called only with
/// options.reconstruct_solutions); `arena_width(i)` re-sums its physical
/// width, read off the label instead on the identity objective
/// (`identity`: re-summing reverses the accumulation order and can
/// differ in the last ulp).
template <class Result, class Rebuild, class ArenaWidth>
void select_answer(Result& result, const double* q_fs, const double* cost,
                   const std::int16_t* count, std::size_t n,
                   const ChainDpOptions& options, bool identity,
                   Rebuild&& rebuild, ArenaWidth&& arena_width) {
  const bool power_mode = (options.mode == Mode::kMinPower);
  std::int32_t best = -1;
  std::int32_t best_delay = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  int best_count = 0;
  double best_q = -std::numeric_limits<double>::infinity();
  double best_delay_q = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double q = q_fs[i];
    if (q > best_delay_q) {
      best_delay_q = q;
      best_delay = static_cast<std::int32_t>(i);
    }
    if (power_mode &&
        meets_target(q, options.timing_target_fs, kSlackToleranceFs)) {
      // Selection order: cost, then repeater count, then slack.
      const bool better =
          cost[i] < best_cost ||
          (cost[i] == best_cost &&
           (count[i] < best_count ||
            (count[i] == best_count && q > best_q)));
      if (better) {
        best_cost = cost[i];
        best_count = count[i];
        best_q = q;
        best = static_cast<std::int32_t>(i);
      }
    }
  }
  RIP_ASSERT(best_delay >= 0, "DP lost all labels");

  const auto delay_i = static_cast<std::size_t>(best_delay);
  const bool rebuild_solutions = options.reconstruct_solutions;
  if (rebuild_solutions) result.min_delay_solution = rebuild(delay_i);
  result.min_delay_fs = -best_delay_q;
  const std::int32_t pick = power_mode ? best : best_delay;
  if (pick < 0) {
    result.status = Status::kInfeasible;
    result.total_width_u = 0;
    result.objective_cost = 0;
    result.delay_fs = result.min_delay_fs;
    return;
  }
  const auto i = static_cast<std::size_t>(pick);
  result.status = Status::kOptimal;
  if (rebuild_solutions) {
    result.solution = power_mode ? rebuild(i) : result.min_delay_solution;
  }
  result.total_width_u = identity ? cost[i] : arena_width(i);
  result.objective_cost = cost[i];
  result.delay_fs = -q_fs[i];
}

}  // namespace rip::dp::kernel

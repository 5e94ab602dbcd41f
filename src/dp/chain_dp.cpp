#include "dp/chain_dp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "dp/kernel_ops.hpp"
#include "dp/workspace.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rip::dp {

namespace {

using kernel::expand_candidate;
using kernel::identity_cost_table;
using kernel::propagate_frontier;

/// Resolve the active backend's per-net cost coefficients (identity when
/// no backend is set), validated by the shared checker.
tech::ChainCost resolve_cost(const net::Net& net,
                             const ChainDpOptions& options) {
  return kernel::checked_chain_cost(
      options.backend, tech::NetProfile{net.name(), net.total_length_um(),
                                        net.total_capacitance_ff()});
}

/// Read-only view over a finished (post-driver) frontier plus its
/// reconstruction arena. Both the cold path (workspace arrays) and the
/// cached path (ChainFrontierSolve arrays) select through this view, so
/// the two paths share one selection code path — bit-identity between a
/// cold solve and a later cache hit is by construction, not by accident.
struct FrontierView {
  const double* q_fs;             ///< target-relative final slack
  const double* width_u;
  const std::int16_t* count;
  const std::int32_t* node;
  std::size_t size;
  const std::int32_t* a_parent;
  const std::int32_t* a_pos;
  const std::int16_t* a_buffer;
};

FrontierView view_of(const ChainFrontier& front, const Workspace& ws) {
  return FrontierView{front.q_fs.data(),    front.width_u.data(),
                      front.count.data(),   front.node.data(),
                      front.size(),         ws.a_parent.data(),
                      ws.a_pos.data(),      ws.a_buffer.data()};
}

FrontierView view_of(const ChainFrontierSolve& solve) {
  return FrontierView{solve.q_fs.data(),    solve.width_u.data(),
                      solve.count.data(),   solve.node.data(),
                      solve.size(),         solve.a_parent.data(),
                      solve.a_pos.data(),   solve.a_buffer.data()};
}

/// Physical total width of a label, re-summed from its arena chain. Only
/// the non-identity objectives use this: on the identity path the label's
/// accumulated value IS the total width, bit-for-bit (re-summing would
/// reverse the accumulation order and can differ in the last ulp).
double arena_total_width(const FrontierView& v, std::int32_t node,
                         const RepeaterLibrary& library) {
  double w = 0;
  for (std::int32_t idx = node; idx >= 0;
       idx = v.a_parent[static_cast<std::size_t>(idx)]) {
    w += library.widths_u()[static_cast<std::size_t>(
        v.a_buffer[static_cast<std::size_t>(idx)])];
  }
  return w;
}

/// Reconstruct the repeater list from a winning label's parent chain
/// through the reconstruction arena. `count` is the label's repeater
/// count, so the output vector is reserved exactly once.
net::RepeaterSolution reconstruct(const FrontierView& v, std::int32_t node,
                                  std::int16_t count,
                                  const RepeaterLibrary& library,
                                  const std::vector<double>& candidates_um) {
  std::vector<net::Repeater> repeaters;
  repeaters.reserve(static_cast<std::size_t>(count));
  for (std::int32_t idx = node; idx >= 0;
       idx = v.a_parent[static_cast<std::size_t>(idx)]) {
    const auto i = static_cast<std::size_t>(idx);
    repeaters.push_back(net::Repeater{
        candidates_um[static_cast<std::size_t>(v.a_pos[i])],
        library.widths_u()[static_cast<std::size_t>(v.a_buffer[i])]});
  }
  return net::RepeaterSolution(std::move(repeaters));
}

void validate_inputs(const net::Net& net, const RepeaterLibrary& library,
                     const std::vector<double>& candidates_um,
                     const ChainDpOptions& options, bool need_target) {
  RIP_REQUIRE(std::is_sorted(candidates_um.begin(), candidates_um.end()),
              "candidate positions must be sorted");
  for (const double pos : candidates_um) {
    RIP_REQUIRE(net.placement_legal(pos),
                "candidate position is not a legal repeater location");
  }
  if (need_target && options.mode == Mode::kMinPower) {
    RIP_REQUIRE(options.timing_target_fs > 0,
                "kMinPower needs a positive timing target");
  }
  kernel::check_allowed_lists(options.allowed_buffers, candidates_um.size(),
                              library);
}

/// The width order of a candidate step's merged frontier `back`, from
/// the old frontier's `order`: the surviving pass-through labels (`map`:
/// old index -> index in `back`, -1 if pruned) keep their relative
/// order, and the new repeater labels (`fresh`, indices in `back`; far
/// fewer than the frontier) are sorted by width and merged in.
void carry_width_order(const std::vector<std::int32_t>& order,
                       const std::vector<std::int32_t>& map,
                       std::vector<std::int32_t>& fresh,
                       const ChainFrontier& back,
                       std::vector<std::int32_t>& next) {
  kernel::sort_by_width(fresh, back.width_u);
  const double* w = back.width_u.data();
  next.clear();
  next.reserve(back.size());
  std::size_t j = 0;
  for (const std::int32_t o : order) {
    const std::int32_t at = map[static_cast<std::size_t>(o)];
    if (at < 0) continue;
    while (j < fresh.size() && w[fresh[j]] < w[at]) next.push_back(fresh[j++]);
    next.push_back(at);
  }
  next.insert(next.end(), fresh.begin() + static_cast<std::ptrdiff_t>(j),
              fresh.end());
}

/// The per-solve terms the sweep reads, into `ws`: the library's terms
/// and the wire maps.
void fill_sweep_terms(const net::Net& net, const tech::RepeaterDevice& device,
                      const RepeaterLibrary& library,
                      const std::vector<double>& candidates_um,
                      const tech::ChainCost& cost, Workspace& ws) {
  kernel::fill_library_terms(device, library, cost, ws);
  kernel::fill_wire_affines(net, candidates_um, ws);
}

/// The whole sweep on `ws`, receiver to driver; fills `stats`' sweep
/// counters and returns the finished frontier, whose q_fs[i] is label
/// i's target-relative final slack (driver gate applied; the realized
/// delay is -q_fs[i]) and whose cap_ff is dead.
///
/// q is *target-relative*: the seed starts at 0 in both modes and every
/// later update subtracts terms that depend only on C, never on q itself
/// — so the swept frontier is independent of the timing target, which
/// enters only at selection time. That target-independence is what lets
/// one solved frontier answer every target (ChainSolveCache). Only
/// `bounds` (kernel::LabelBounds; nullptr = none, never when caching)
/// depend on the target: they drop labels from the pass-through frontier
/// after each wire run and from each buffer group before its sweep. With
/// bounds the sweep first fills the lookahead floor
/// (kernel::fill_lookahead_floor), and with a positive delay price the
/// Lagrangian cost floor from the same sweep, and charges each
/// candidate's labels their floors there.
///
/// Invariant entering each candidate step: the frontier is sorted by
/// (C asc, q desc, w asc). Wire propagation preserves it: C order
/// survives adding one constant (IEEE addition is monotone) and labels
/// at equal C receive the exact same q shift. (If two distinct C
/// values round to the same sum, their q tie-order can locally relax —
/// the staircase sweep below only needs C to be non-decreasing, so the
/// survivor set stays correct; at worst a dominated FP-twin lives one
/// extra round.) The merge below emits the next frontier in the same
/// order, and the in-place bound filter keeps it.
///
/// In power mode a second invariant rides along: `order` is the
/// frontier's width order (kernel::expand_candidate), carried instead of
/// re-sorted. Wire propagation leaves widths, hence the order, alone;
/// the bound filter compacts it; the merge maps its surviving
/// pass-through labels to their new indices and merges in the new
/// repeater labels, sorted by width (carry_width_order). Delay mode
/// builds no order.
const ChainFrontier& sweep_chain(const net::Net& net,
                                 const tech::RepeaterDevice& device,
                                 const RepeaterLibrary& library,
                                 const std::vector<double>& candidates_um,
                                 const ChainDpOptions& options,
                                 const tech::ChainCost& cost,
                                 const kernel::LabelBounds* bounds,
                                 Workspace& ws, DpStats& stats) {
  fill_sweep_terms(net, device, library, candidates_um, cost, ws);
  const double intrinsic_fs = device.rs_ohm * device.cp_ff;
  const double driver_rs_over_w = device.rs_ohm / net.driver_width_u();
  // The bounds at the candidate being swept: *bounds plus its floor.
  kernel::LabelBounds at{};
  const bool cost_floor = bounds != nullptr && bounds->lambda > 0;
  if (bounds != nullptr) {
    at = *bounds;
    kernel::fill_lookahead_floor(ws, cost, options.allowed_buffers,
                                 driver_rs_over_w, intrinsic_fs, 1.0, nullptr,
                                 ws.floor_d0, ws.floor_rmin, ws.floor_group);
  }
  if (cost_floor) {
    kernel::fill_lookahead_floor(
        ws, cost, options.allowed_buffers, driver_rs_over_w, intrinsic_fs,
        bounds->lambda, ws.lib_cost.data(), ws.cost_floor_v0,
        ws.cost_floor_rmin, ws.cost_floor_group);
  }

  ChainFrontier* front = &ws.chain_front;
  ChainFrontier* back = &ws.chain_back;
  std::vector<std::int32_t>* order = &ws.width_order;
  std::vector<std::int32_t>* order_back = &ws.width_order_back;
  front->clear();
  back->clear();
  order->clear();
  ws.a_parent.clear();
  ws.a_pos.clear();
  ws.a_buffer.clear();

  // Seed at the receiver: C = C_o * w_r; q = 0 (target-relative) minus
  // any backend receiver penalty (kernel::seed_q_fs); p = 0. The seed
  // has no arena entry (node -1 terminates reconstruction).
  front->push(device.co_ff * net.receiver_width_u(), kernel::seed_q_fs(cost),
              0.0, 0, -1);
  const bool power_mode = (options.mode == Mode::kMinPower);
  if (power_mode) order->push_back(0);
  stats.labels_created = 1;
  stats.positions = candidates_um.size();

  for (std::size_t ci = candidates_um.size(); ci-- > 0;) {
    propagate_frontier(*front, ws.wire[ci + 1]);
    if (bounds != nullptr) {
      at.pass_floor_fs = ws.floor_d0[ci];
      at.pass_floor_ohm = ws.floor_rmin[ci];
      at.group_floor_fs = ws.floor_group.data() + ws.floor_group_at[ci];
      if (cost_floor) {
        at.pass_cost_floor = ws.cost_floor_v0[ci];
        at.pass_cost_per_ff = at.lambda * ws.cost_floor_rmin[ci];
        at.group_cost_floor =
            ws.cost_floor_group.data() + ws.floor_group_at[ci];
      }
      stats.labels_pruned +=
          kernel::retain_admitted(*front, at, *order, ws.order_map);
    }

    // Library indices that may be inserted at this candidate. A backend
    // that forbids repeaters empties every candidate's list.
    const std::vector<std::int16_t>& allowed =
        kernel::allowed_at(cost, options.allowed_buffers, ws, ci);

    // Option B labels (insert a repeater here), built per buffer group,
    // pre-filtered within each group, concatenated in sorted run order.
    // Labels accumulate the objective cost table (== widths on the
    // identity objective, same bits).
    expand_candidate(ws, *front, *order, allowed, ws.lib_cost, intrinsic_fs,
                     power_mode, bounds != nullptr ? &at : nullptr);
    // Option A (the frontier itself) and option B merged into the back
    // frontier through the dominance filter.
    kernel::merge_candidate(ws, *front, *back, static_cast<std::int32_t>(ci),
                            allowed.size(), power_mode, stats);
    if (power_mode) {
      carry_width_order(*order, ws.order_map, ws.order_fresh, *back,
                        *order_back);
      std::swap(order, order_back);
    }
    std::swap(front, back);
  }

  // Final wire run up to the driver, then the driver gate in place.
  propagate_frontier(*front, ws.wire[0]);
  kernel::apply_driver_gate(*front, intrinsic_fs, driver_rs_over_w);
  stats.arena_peak = ws.a_parent.size();
  return *front;
}

/// Answer one target from a finished frontier (kernel::select_answer).
/// `identity` says the labels' value dimension is plain total width
/// (read it off the winner); otherwise the physical width is re-summed
/// from the winner's arena chain.
ChainDpResult select_result(const FrontierView& v,
                            const RepeaterLibrary& library,
                            const std::vector<double>& candidates_um,
                            const ChainDpOptions& options, bool identity,
                            const DpStats& stats) {
  ChainDpResult result;
  result.stats = stats;
  if (v.size == 0) {
    // Only bounds can empty the frontier: infeasible, no solutions.
    RIP_ASSERT(options.mode == Mode::kMinPower, "DP lost all labels");
    return result;
  }
  kernel::select_answer(
      result, v.q_fs, v.width_u, v.count, v.size, options, identity,
      [&](std::size_t i) {
        return reconstruct(v, v.node[i], v.count[i], library, candidates_um);
      },
      [&](std::size_t i) { return arena_total_width(v, v.node[i], library); });
  return result;
}

void bump_ws_stats(Workspace& ws, const DpStats& stats) {
  ++ws.stats_.chain_solves;
  ws.stats_.labels_created += stats.labels_created;
  ws.stats_.labels_pruned += stats.labels_pruned;
  ws.stats_.peak_frontier_labels =
      std::max(ws.stats_.peak_frontier_labels, stats.labels_peak);
  ws.stats_.peak_arena_labels =
      std::max(ws.stats_.peak_arena_labels, stats.arena_peak);
}

/// One cold solve on `ws`: the sweep (bounded iff `bounds`), selection.
ChainDpResult solve_and_select(const net::Net& net,
                               const tech::RepeaterDevice& device,
                               const RepeaterLibrary& library,
                               const std::vector<double>& candidates_um,
                               const ChainDpOptions& options,
                               const kernel::LabelBounds* bounds,
                               Workspace& ws) {
  validate_inputs(net, library, candidates_um, options, /*need_target=*/true);
  const tech::ChainCost cost = resolve_cost(net, options);

  DpStats stats;
  stats.workspace_reuses = ws.stats_.solves();
  const ChainFrontier& front = sweep_chain(
      net, device, library, candidates_um, options, cost, bounds, ws, stats);
  ChainDpResult result =
      select_result(view_of(front, ws), library, candidates_um, options,
                    identity_cost_table(cost), stats);
  bump_ws_stats(ws, stats);
  return result;
}

}  // namespace

std::size_t ChainFrontierSolve::bytes() const {
  return sizeof(*this) +
         (q_fs.capacity() + width_u.capacity()) * sizeof(double) +
         count.capacity() * sizeof(std::int16_t) +
         node.capacity() * sizeof(std::int32_t) +
         (a_parent.capacity() + a_pos.capacity()) * sizeof(std::int32_t) +
         a_buffer.capacity() * sizeof(std::int16_t);
}

std::uint64_t chain_solve_key(const net::Net& net,
                              const tech::RepeaterDevice& device,
                              const RepeaterLibrary& library,
                              const std::vector<double>& candidates_um,
                              const ChainDpOptions& options) {
  Hash64 h;
  // Device and terminals.
  h << device.rs_ohm << device.co_ff << device.cp_ff;
  h << net.driver_width_u() << net.receiver_width_u();
  // Net geometry: electrical fields only (layer names are informational
  // and do not enter the sweep).
  const auto& segments = net.segments();
  h << segments.size();
  for (const auto& s : segments) {
    h << s.length_um << s.r_ohm_per_um << s.c_ff_per_um;
  }
  const auto& zones = net.zones();
  h << zones.size();
  for (const auto& z : zones) h << z.start_um << z.end_um;
  // Library contents and candidate positions.
  h << std::span<const double>(library.widths_u());
  h << std::span<const double>(candidates_um);
  // Sweep-shaping options. The timing target and reconstruct flag are
  // selection-time knobs and deliberately excluded: one cached frontier
  // answers every target.
  h << static_cast<int>(options.mode);
  h << (options.allowed_buffers != nullptr);
  if (options.allowed_buffers != nullptr) {
    h << options.allowed_buffers->size();
    for (const auto& allowed : *options.allowed_buffers) {
      h << std::span<const std::int16_t>(allowed);
    }
  }
  // Backend identity + derived per-net coefficients. Both are folded:
  // the coefficients because they are what the sweep actually consumes
  // (a per-net activity profile is not in the geometry hash above), the
  // fingerprint so entries can never collide across backends. The
  // default path hashes only the `false` marker, keeping pre-backend
  // keys stable.
  h << (options.backend != nullptr);
  if (options.backend != nullptr) {
    const tech::ChainCost cost = resolve_cost(net, options);
    h << options.backend->fingerprint() << cost.width_weight
      << cost.per_repeater << cost.receiver_penalty_fs
      << cost.allow_repeaters;
  }
  return h.value();
}

ChainDpResult run_chain_dp(const net::Net& net,
                           const tech::RepeaterDevice& device,
                           const RepeaterLibrary& library,
                           const std::vector<double>& candidates_um,
                           const ChainDpOptions& options, Workspace& ws) {
  return solve_and_select(net, device, library, candidates_um, options,
                          nullptr, ws);
}

ChainDpResult run_chain_dp_bounded(const net::Net& net,
                                   const tech::RepeaterDevice& device,
                                   const RepeaterLibrary& library,
                                   const std::vector<double>& candidates_um,
                                   const ChainDpOptions& options,
                                   double incumbent_cost, Workspace& ws,
                                   double lambda) {
  RIP_REQUIRE(options.mode == Mode::kMinPower,
              "the bounded chain DP is kMinPower only");
  RIP_REQUIRE(std::isfinite(lambda) && lambda >= 0,
              "the delay price must be finite and non-negative");
  kernel::LabelBounds bounds{options.timing_target_fs, incumbent_cost};
  // lambda prices delay in repeater width; the cost floor prices it in
  // the objective's cost, which charges width_weight per unit of width.
  bounds.price_delay(lambda * resolve_cost(net, options).width_weight);
  return solve_and_select(net, device, library, candidates_um, options,
                          &bounds, ws);
}

LabelingScorer::LabelingScorer(const net::Net& net,
                               const tech::RepeaterDevice& device,
                               const RepeaterLibrary& library,
                               const std::vector<double>& candidates_um,
                               const ChainDpOptions& options, Workspace& ws)
    : options_(options),
      ws_(ws),
      positions_(candidates_um.size()),
      seed_cap_ff_(device.co_ff * net.receiver_width_u()),
      intrinsic_fs_(device.rs_ohm * device.cp_ff),
      driver_rs_over_w_(device.rs_ohm / net.driver_width_u()) {
  RIP_REQUIRE(options.mode == Mode::kMinPower,
              "labelings are scored in kMinPower mode only");
  validate_inputs(net, library, candidates_um, options, /*need_target=*/true);
  cost_ = resolve_cost(net, options);
  fill_sweep_terms(net, device, library, candidates_um, cost_, ws);
}

LabelingScore LabelingScorer::score(
    const std::vector<std::int16_t>& buffer_at) const {
  RIP_REQUIRE(buffer_at.size() == positions_,
              "a labeling names one buffer, or -1, per candidate");
  return walk(buffer_at.data());
}

LabelingScore LabelingScorer::walk(const std::int16_t* buffer_at) const {
  // sweep_chain's seed, and its steps for this one label: the wire map of
  // propagate_frontier, expand_candidate's repeater expression, and the
  // driver gate.
  double cap = seed_cap_ff_;
  double q = kernel::seed_q_fs(cost_);
  double w = 0.0;
  const auto cross = [&](const WireAffine& wire) {
    if (wire.r_tot == 0 && wire.c_tot == 0) return;
    q -= wire.r_tot * cap + wire.k;
    cap += wire.c_tot;
  };
  for (std::size_t ci = positions_; ci-- > 0;) {
    cross(ws_.wire[ci + 1]);
    const std::int16_t b = buffer_at != nullptr ? buffer_at[ci] : -1;
    if (b < 0) continue;
    const std::vector<std::int16_t>& allowed =
        kernel::allowed_at(cost_, options_.allowed_buffers, ws_, ci);
    RIP_REQUIRE(std::binary_search(allowed.begin(), allowed.end(), b),
                "the labeling inserts a width its candidate does not allow");
    const auto bi = static_cast<std::size_t>(b);
    q = q - (intrinsic_fs_ + ws_.lib_rs_over_w[bi] * cap);
    w = w + ws_.lib_cost[bi];
    cap = ws_.lib_load_ff[bi];
  }
  cross(ws_.wire[0]);
  q = q - (intrinsic_fs_ + driver_rs_over_w_ * cap);
  const bool feasible =
      kernel::meets_target(q, options_.timing_target_fs, kSlackToleranceFs);
  return {feasible ? w : std::numeric_limits<double>::infinity(), q};
}

LabelingScore score_labeling(const net::Net& net,
                             const tech::RepeaterDevice& device,
                             const RepeaterLibrary& library,
                             const std::vector<double>& candidates_um,
                             const ChainDpOptions& options,
                             const std::vector<std::int16_t>& buffer_at,
                             Workspace& ws) {
  return LabelingScorer(net, device, library, candidates_um, options, ws)
      .score(buffer_at);
}

std::optional<ChainDpResult> unbuffered_answer(
    const net::Net& net, const tech::RepeaterDevice& device,
    const RepeaterLibrary& library, const std::vector<double>& candidates_um,
    const ChainDpOptions& options, Workspace& ws) {
  if (options.mode != Mode::kMinPower) return std::nullopt;
  const LabelingScorer scorer(net, device, library, candidates_um, options,
                              ws);
  if (scorer.cost().allow_repeaters &&
      !std::all_of(ws.lib_cost.begin(), ws.lib_cost.end(),
                   [](double c) { return c > 0; })) {
    return std::nullopt;
  }
  const LabelingScore empty = scorer.unbuffered();
  if (!std::isfinite(empty.objective_cost)) return std::nullopt;
  ChainDpResult result;
  result.status = Status::kOptimal;
  result.delay_fs = -empty.slack_fs;
  result.stats.positions = candidates_um.size();
  return result;
}

ChainFrontierSolve solve_chain_frontier(
    const net::Net& net, const tech::RepeaterDevice& device,
    const RepeaterLibrary& library, const std::vector<double>& candidates_um,
    const ChainDpOptions& options, Workspace& ws) {
  validate_inputs(net, library, candidates_um, options, /*need_target=*/false);
  const tech::ChainCost cost = resolve_cost(net, options);

  // workspace_reuses stays 0: a detached frontier reports no workspace
  // warmth, so a miss-then-insert and a later hit describe the solve
  // identically.
  DpStats stats;
  const ChainFrontier& front = sweep_chain(
      net, device, library, candidates_um, options, cost, nullptr, ws, stats);

  ChainFrontierSolve out;
  out.identity_cost = identity_cost_table(cost);
  out.q_fs = front.q_fs;
  out.width_u = front.width_u;
  out.count = front.count;
  out.node = front.node;
  out.a_parent = ws.a_parent;
  out.a_pos = ws.a_pos;
  out.a_buffer = ws.a_buffer;
  out.stats = stats;
  bump_ws_stats(ws, stats);
  return out;
}

ChainDpResult select_from_frontier(const ChainFrontierSolve& solve,
                                   const RepeaterLibrary& library,
                                   const std::vector<double>& candidates_um,
                                   const ChainDpOptions& options) {
  if (options.mode == Mode::kMinPower) {
    RIP_REQUIRE(options.timing_target_fs > 0,
                "kMinPower needs a positive timing target");
  }
  return select_result(view_of(solve), library, candidates_um, options,
                       solve.identity_cost, solve.stats);
}

ChainDpResult run_chain_dp_cached(const net::Net& net,
                                  const tech::RepeaterDevice& device,
                                  const RepeaterLibrary& library,
                                  const std::vector<double>& candidates_um,
                                  const ChainDpOptions& options, Workspace& ws,
                                  ChainSolveCache* cache) {
  if (cache == nullptr) {
    return run_chain_dp(net, device, library, candidates_um, options, ws);
  }
  const std::uint64_t key =
      chain_solve_key(net, device, library, candidates_um, options);
  std::shared_ptr<const ChainFrontierSolve> entry = cache->lookup(key);
  if (entry == nullptr) {
    entry = cache->insert(
        key, solve_chain_frontier(net, device, library, candidates_um,
                                  options, ws));
  }
  // Hit or miss, always select from the stored entry's arrays: every
  // caller of this key answers from the same bits.
  return select_from_frontier(*entry, library, candidates_um, options);
}

}  // namespace rip::dp

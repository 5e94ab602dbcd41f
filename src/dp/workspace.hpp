#pragma once

/// @file workspace.hpp
/// Reusable solver state for the DP kernels.
///
/// The chain and tree DPs are the hot path of every experiment: a sweep
/// evaluates millions of (net, target, library) cases and each case runs
/// one or more DP solves. A Workspace owns every piece of dynamic memory
/// those solves need — structure-of-arrays label arenas, dominance-prune
/// scratch, the flat Pareto frontier, per-solve library terms, wire-piece
/// buffers — and hands it back, capacity intact, solve after solve. After
/// a warm-up solve per shape, steady-state solves perform zero heap
/// allocations in the kernel (bench_dp asserts this with a counting
/// operator new). Both kernels share one label algebra
/// (dp/kernel_ops.hpp), and with it one candidate merge and one
/// reconstruction arena; the tree adds its frontier pool, its junction
/// scratch and the arena's junction column.
///
/// Threading model: a Workspace is single-threaded state. Every solver
/// entry point takes one `Workspace&` parameter that defaults to
/// `Workspace::local()`, one workspace per thread, so each participant
/// of the persistent scheduler (util/thread_pool.hpp) and each service
/// worker (eval/service.hpp) reuses its own arenas across the cases it
/// claims. eval::run_case always solves on the calling thread's local
/// workspace.
/// Solver results are a pure function of the solver inputs — never of
/// the workspace's prior contents — which tests/pareto_property_test.cpp
/// proves by bit-comparing fresh-workspace and reused-workspace solves.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dp/pareto.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"

namespace rip::dp {

/// The DP kernels' alive label set, structure-of-arrays. The value
/// fields (cap/q/width) are contiguous so affine wire propagation is a
/// straight vectorizable loop; count rides along for the final
/// tie-break; node points into the reconstruction arena. The chain
/// kernel keeps two of these and ping-pongs between them each candidate
/// step; the tree kernel pools one per subtree (plus a scratch it merges
/// into and copies back from).
struct ChainFrontier {
  std::vector<double> cap_ff;
  std::vector<double> q_fs;
  std::vector<double> width_u;
  std::vector<std::int16_t> count;
  std::vector<std::int32_t> node;

  std::size_t size() const { return cap_ff.size(); }
  void clear() {
    cap_ff.clear();
    q_fs.clear();
    width_u.clear();
    count.clear();
    node.clear();
  }
  void reserve(std::size_t n) {
    cap_ff.reserve(n);
    q_fs.reserve(n);
    width_u.reserve(n);
    count.reserve(n);
    node.reserve(n);
  }
  /// Keep the first n labels (n <= size(); capacity is kept).
  void truncate(std::size_t n) {
    cap_ff.resize(n);
    q_fs.resize(n);
    width_u.resize(n);
    count.resize(n);
    node.resize(n);
  }
  void push(double cap, double q, double width, std::int16_t cnt,
            std::int32_t nd) {
    cap_ff.push_back(cap);
    q_fs.push_back(q);
    width_u.push_back(width);
    count.push_back(cnt);
    node.push_back(nd);
  }
};

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

/// A point of the stage-3 floors' forward sweep
/// (kernel::fill_lookahead_floor): R, the resistance from the driving gate
/// to here, and v, the price so far with no load here: the delay itself
/// for the lookahead floor, cost + lambda * delay for the cost floor.
struct ForwardPair {
  double r_ohm;
  double v;
};

/// A group survivor after the within-group dominance filter, tagged
/// with its buffer for arena materialization.
struct ExpandLabel {
  double cap_ff;
  double q_fs;
  double width_u;
  std::int32_t origin;
  std::int16_t buffer;
};

/// Cumulative counters of one workspace, across every solve it served.
/// (Per-solve, input-deterministic counters live in DpStats instead.)
struct WorkspaceStats {
  std::size_t chain_solves = 0;  ///< chain DP solves served
  std::size_t tree_solves = 0;   ///< tree DP solves served
  std::size_t labels_created = 0;     ///< labels materialized, cumulative
  std::size_t labels_pruned = 0;      ///< labels dominance-pruned, cumulative
  std::size_t peak_frontier_labels = 0;  ///< largest pruned frontier ever
  std::size_t peak_arena_labels = 0;     ///< largest reconstruction arena ever

  std::size_t solves() const { return chain_solves + tree_solves; }
};

/// Bump-style arena bundle for the DP kernels. All buffer members are
/// internal solver state — public so the kernels (chain_dp.cpp,
/// tree_dp.cpp, brute_force.cpp) can use them without indirection, but
/// not part of the stable API; outside callers should only construct
/// workspaces, pass them to solvers, and read stats().
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// This thread's workspace (thread_local). The parameterless solver
  /// overloads use it, so scheduler workers automatically reuse one
  /// arena set per thread.
  static Workspace& local();

  const WorkspaceStats& stats() const { return stats_; }

  /// Drop every arena's memory (capacity included). Only useful for
  /// memory-pressure tests; steady-state callers never need it.
  void release_memory();

  // ---- chain DP: the alive frontier double-buffer (current and next).
  ChainFrontier chain_front;
  ChainFrontier chain_back;

  // ---- both DPs: one candidate's group survivors
  // (kernel::expand_candidate), which kernel::merge_candidate consumes.
  std::vector<ExpandLabel> expanded;

  // ---- both DPs: the frontier's width order (its label indices by
  // non-decreasing width, which kernel::expand_candidate sweeps). The
  // chain DP double-buffers it like the frontier and carries it from
  // candidate to candidate: order_map sends old frontier indices to new
  // ones (-1: dropped) across a bound filter or a merge, and order_fresh
  // collects the merge's new repeater labels. The tree DP sorts
  // width_order afresh at each candidate node; its merges fill
  // order_map and order_fresh too, and it ignores them.
  std::vector<std::int32_t> width_order;
  std::vector<std::int32_t> width_order_back;
  std::vector<std::int32_t> order_map;
  std::vector<std::int32_t> order_fresh;

  // ---- both DPs: the append-only reconstruction arena, written by
  // kernel::merge_candidate. One entry per surviving repeater insertion
  // (a_parent: the downstream label's entry, -1 = none; a_pos: the
  // candidate index or tree node; a_buffer: the library index);
  // pass-throughs reuse their entry. The tree DP adds one junction entry
  // per merged label whose two branches both hold repeaters: a_parent is
  // the left branch's entry, a_buffer -1, and a_pos indexes a_right,
  // which holds the right branch's entry. Only junctions fill a_right.
  std::vector<std::int32_t> a_parent;
  std::vector<std::int32_t> a_pos;
  std::vector<std::int16_t> a_buffer;
  std::vector<std::int32_t> a_right;

  // ---- chain DP: the candidate intervals' wire maps, driver to
  // receiver (kernel::fill_wire_affines): wire[k] ends at candidate k,
  // and wire[n] at the receiver. The chain sweep reads them, and so does
  // the lookahead floor's forward sweep.
  std::vector<WireAffine> wire;

  // ---- RIP's stage 3: the lookahead floor (kernel::fill_lookahead_floor).
  // Per candidate i, floor_d0[i] and floor_rmin[i]; per allowed width k
  // of candidate i, floor_group[floor_group_at[i] + k]. The Lagrangian
  // cost floor, from the same sweep at the delay price: cost_floor_v0[i],
  // cost_floor_rmin[i] and cost_floor_group[floor_group_at[i] + k]. The
  // forward sweep's Pareto set double-buffers through fwd and fwd_next.
  std::vector<double> floor_d0;
  std::vector<double> floor_rmin;
  std::vector<double> floor_group;
  std::vector<std::size_t> floor_group_at;
  std::vector<double> cost_floor_v0;
  std::vector<double> cost_floor_rmin;
  std::vector<double> cost_floor_group;
  std::vector<ForwardPair> fwd;
  std::vector<ForwardPair> fwd_next;

  // ---- dominance pruning: the flat staircase frontier.
  FlatFrontier frontier;

  // ---- per-solve library terms (filled by RepeaterLibrary::
  // fill_device_terms / fill_cost_terms): input load co*w, driving rs/w,
  // and objective cost per width (== the width itself on the identity
  // objective — see tech/objective.hpp).
  std::vector<double> lib_load_ff;
  std::vector<double> lib_rs_over_w;
  std::vector<double> lib_cost;
  std::vector<std::int16_t> all_buffers;  ///< 0..n-1 identity allowed-list

  // ---- wire decomposition buffer (net::Net::pieces_between reuse).
  std::vector<net::WirePiece> pieces;

  // ---- repeater scratch (brute_force assignment expansion).
  std::vector<net::Repeater> repeaters;

  // ---- tree DP: SoA frontier pool plus a scratch frontier. A subtree's
  // frontier lives in the pool slot of its leftmost descendant leaf
  // (tree_slot maps node -> slot), so walking up a unary path segment
  // never moves it, and the slot serving each role is a pure function of
  // the topology. Merges materialize into the scratch and are copied —
  // not swapped — back into the role's slot: capacities never migrate
  // between slots, which is what makes a single warm-up solve enough for
  // the zero-steady-state-allocation guarantee bench_dp gates on. The
  // pool only ever grows — a shrinking resize would destroy the pooled
  // vectors' capacity.
  std::vector<ChainFrontier> tree_frontiers;
  ChainFrontier tree_scratch;
  std::vector<std::int32_t> tree_slot;

  // ---- tree DP: junction-merge scratch. The cross product of the two
  // child frontiers is enumerated as an n-way merge of sorted row
  // streams (row i = smaller-side label i crossed with every label of
  // the larger side, which is C-ascending): tree_order is the binary
  // heap of row indices, tree_rowpos each row's cursor into the larger
  // side, tree_pair_cap/q the cached (C, q) key of each row's current
  // element. Pairs pop in frontier order and are dominance-tested on
  // the spot — nothing is materialized or sorted.
  std::vector<std::int32_t> tree_order;
  std::vector<std::int32_t> tree_rowpos;
  std::vector<double> tree_pair_cap;
  std::vector<double> tree_pair_q;

  // ---- tree DP: the arena walk's stack, and tree_delay_fs's sweep.
  std::vector<std::int32_t> tree_stack;
  std::vector<double> tree_cap;    ///< tree_delay_fs bottom-up caps
  std::vector<double> tree_delay;  ///< tree_delay_fs bottom-up delays

  // Cumulative counters; kernels update them alongside DpStats.
  WorkspaceStats stats_;
};

}  // namespace rip::dp

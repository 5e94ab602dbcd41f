#include "dp/tree_dp.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "dp/kernel_ops.hpp"
#include "dp/workspace.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace rip::dp {

BufferTree::BufferTree() {
  BufferTreeNode root;
  root.parent = -1;
  root.name = "root";
  nodes_.push_back(root);
  children_.emplace_back();
}

std::int32_t BufferTree::add_node(BufferTreeNode node) {
  RIP_REQUIRE(node.parent >= 0 &&
                  node.parent < static_cast<std::int32_t>(nodes_.size()),
              "tree node parent must exist");
  RIP_REQUIRE(node.edge_r_ohm >= 0 && node.edge_c_ff >= 0,
              "edge RC must be non-negative");
  if (node.is_sink) {
    RIP_REQUIRE(node.sink_cap_ff >= 0, "sink cap must be non-negative");
    ++sink_count_;
  }
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  children_.emplace_back();
  children_[static_cast<std::size_t>(nodes_.back().parent)].push_back(id);
  return id;
}

double TreeSolution::total_width_u() const {
  double p = 0;
  for (const double w : width_u) p += w;
  return p;
}

std::size_t TreeSolution::repeater_count() const {
  std::size_t n = 0;
  for (const double w : width_u)
    if (w > 0) ++n;
  return n;
}

namespace {

/// Copy one frontier's contents into another, preserving the
/// destination's vector capacities (assign never shrinks capacity, so
/// once a slot has served its role it stays allocation-free). The
/// kernel copies merge results from the scratch back into the role's
/// pool slot instead of swapping, so capacities never migrate between
/// slots — see the tree pool comment in workspace.hpp.
void copy_frontier(ChainFrontier& dst, const ChainFrontier& src) {
  dst.cap_ff.assign(src.cap_ff.begin(), src.cap_ff.end());
  dst.q_fs.assign(src.q_fs.begin(), src.q_fs.end());
  dst.width_u.assign(src.width_u.begin(), src.width_u.end());
  dst.count.assign(src.count.begin(), src.count.end());
  dst.node.assign(src.node.begin(), src.node.end());
}

/// Merge two branch frontiers at a junction, both sorted by
/// (C asc, q desc, w asc), leaving the merged frontier in `a` (and `b`
/// cleared). The cross product (C adds, q takes the min, w adds) is
/// never materialized: with rows keyed by the smaller side, row i
/// (label i crossed with every label of the larger, C-ascending side)
/// is itself a stream sorted by (C asc, q desc), so a binary heap of
/// row cursors pops the n*m pairs in frontier order and each pair is
/// dominance-tested on the spot. Exact (C, q) ties pop consecutively
/// and are buffered so only the min-width (then min-index)
/// representative reaches the staircase — the single survivor a full
/// sort-and-sweep would keep.
///
/// One deliberate approximation: when two *different* column caps round
/// to the same summed C, a row stream's q-monotonicity can break within
/// that bitwise-equal-C run, so a pop there may arrive after a
/// lower-q sibling and survive despite being dominated by it. The
/// staircase only ever rejects genuinely dominated labels (everything
/// inserted has <= C, >= q, <= w), so no non-dominated label is ever
/// lost — the frontier just keeps a stray dominated label on such
/// rounding collisions, which the next junction or candidate sweep
/// filters. The tree-oracle battery pins optimality either way.
///
/// A junction arena entry is appended only for survivors whose *both*
/// sides carry downstream repeaters; otherwise the merged label simply
/// inherits the non-empty side's arena index.
void merge_junction(Workspace& ws, ChainFrontier& a, ChainFrontier& b,
                    bool power_mode, DpStats& stats) {
  const bool a_rows = a.size() <= b.size();
  const ChainFrontier& ra = a_rows ? a : b;  // row side (heap of |ra| rows)
  const ChainFrontier& rb = a_rows ? b : a;  // column side, walked per row
  const std::size_t n = ra.size();
  const std::size_t m = rb.size();
  ws.tree_rowpos.assign(n, 0);
  ws.tree_pair_cap.resize(n);
  ws.tree_pair_q.resize(n);
  ws.tree_order.resize(n);
  const double* __restrict rac = ra.cap_ff.data();
  const double* __restrict raq = ra.q_fs.data();
  const double* __restrict raw = ra.width_u.data();
  const double* __restrict rbc = rb.cap_ff.data();
  const double* __restrict rbq = rb.q_fs.data();
  const double* __restrict rbw = rb.width_u.data();
  double* __restrict kc = ws.tree_pair_cap.data();
  double* __restrict kq = ws.tree_pair_q.data();
  std::int32_t* __restrict pos = ws.tree_rowpos.data();
  std::int32_t* heap = ws.tree_order.data();
  RIP_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    kc[i] = rac[i] + rbc[0];
    kq[i] = std::min(raq[i], rbq[0]);
  }
  for (std::size_t i = 0; i < n; ++i)
    heap[i] = static_cast<std::int32_t>(i);

  // Min-heap on each row's cached current key, frontier order (C asc,
  // q desc); the row index breaks exact ties deterministically (the
  // pending-cluster buffer below resolves them value-wise).
  const auto row_before = [&](std::int32_t x, std::int32_t y) {
    const auto xi = static_cast<std::size_t>(x);
    const auto yi = static_cast<std::size_t>(y);
    if (kc[xi] != kc[yi]) return kc[xi] < kc[yi];
    if (kq[xi] != kq[yi]) return kq[xi] > kq[yi];
    return x < y;
  };
  const auto sift_down = [&](std::size_t hn, std::size_t at) {
    const std::int32_t v = heap[at];
    while (true) {
      std::size_t kid = 2 * at + 1;
      if (kid >= hn) break;
      if (kid + 1 < hn && row_before(heap[kid + 1], heap[kid])) ++kid;
      if (!row_before(heap[kid], v)) break;
      heap[at] = heap[kid];
      at = kid;
    }
    heap[at] = v;
  };
  for (std::size_t at = n / 2; at-- > 0;) sift_down(n, at);

  ChainFrontier& out = ws.tree_scratch;
  out.clear();
  out.reserve(std::max(n, m));
  ws.frontier.clear();
  double best_q = -std::numeric_limits<double>::infinity();

  // Pending (C, q) cluster: its min-width representative, with row/col
  // provenance. Flushed to the staircase when the next distinct key
  // pops (all pairs of an exact key pop consecutively).
  bool have_pend = false;
  double pend_c = 0;
  double pend_q = 0;
  double pend_w = 0;
  std::int64_t pend_k = 0;
  std::size_t pend_i = 0;
  std::size_t pend_j = 0;
  const auto flush = [&] {
    const bool survives =
        power_mode ? ws.frontier.try_insert(pend_q, pend_w) : pend_q > best_q;
    if (!survives) return;
    best_q = pend_q;
    const std::size_t ia = a_rows ? pend_i : pend_j;
    const std::size_t ib = a_rows ? pend_j : pend_i;
    const std::int32_t la = a.node[ia];
    const std::int32_t lb = b.node[ib];
    std::int32_t idx = la < 0 ? lb : la;
    if (la >= 0 && lb >= 0) {
      // A junction entry (see workspace.hpp): a_parent the left entry,
      // a_pos the slot of a_right holding the right one, a_buffer -1.
      ws.a_parent.push_back(la);
      ws.a_pos.push_back(static_cast<std::int32_t>(ws.a_right.size()));
      ws.a_buffer.push_back(-1);
      ws.a_right.push_back(lb);
      idx = static_cast<std::int32_t>(ws.a_parent.size() - 1);
    }
    out.push(pend_c, pend_q, pend_w,
             static_cast<std::int16_t>(a.count[ia] + b.count[ib]), idx);
  };

  std::size_t hn = n;
  while (hn > 0) {
    const std::int32_t i = heap[0];
    const auto ii = static_cast<std::size_t>(i);
    const auto j = static_cast<std::size_t>(pos[ii]);
    const double c = kc[ii];
    const double q = kq[ii];
    const double w = raw[ii] + rbw[j];
    const auto k = static_cast<std::int64_t>(ii) *
                       static_cast<std::int64_t>(m) +
                   static_cast<std::int64_t>(j);
    if (have_pend && c == pend_c && q == pend_q) {
      if (w < pend_w || (w == pend_w && k < pend_k)) {
        pend_w = w;
        pend_k = k;
        pend_i = ii;
        pend_j = j;
      }
    } else {
      if (have_pend) flush();
      pend_c = c;
      pend_q = q;
      pend_w = w;
      pend_k = k;
      pend_i = ii;
      pend_j = j;
      have_pend = true;
    }
    const std::size_t jn = j + 1;
    if (jn < m) {
      pos[ii] = static_cast<std::int32_t>(jn);
      kc[ii] = rac[ii] + rbc[jn];
      kq[ii] = std::min(raq[ii], rbq[jn]);
      sift_down(hn, 0);
    } else {
      heap[0] = heap[--hn];
      if (hn > 0) sift_down(hn, 0);
    }
  }
  if (have_pend) flush();

  stats.labels_created += n * m;
  stats.labels_pruned += n * m - out.size();
  copy_frontier(a, out);
  b.clear();
}

/// Visit the buffer entries of a label's arena DAG (from entry `idx`;
/// -1 = none) depth first, each junction's left side first. On a
/// path-shaped tree that is upstream before downstream, the chain
/// kernel's own arena walk order, so widths re-summed in it agree bit for
/// bit.
template <class Visit>
void walk_arena(Workspace& ws, std::int32_t idx, Visit&& visit) {
  std::vector<std::int32_t>& stack = ws.tree_stack;
  stack.clear();
  if (idx >= 0) stack.push_back(idx);
  while (!stack.empty()) {
    const auto cur = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    if (ws.a_buffer[cur] >= 0) {
      visit(static_cast<std::size_t>(ws.a_pos[cur]), ws.a_buffer[cur]);
    } else {
      stack.push_back(ws.a_right[static_cast<std::size_t>(ws.a_pos[cur])]);
    }
    if (ws.a_parent[cur] >= 0) stack.push_back(ws.a_parent[cur]);
  }
}

}  // namespace

TreeDpResult run_tree_dp(const BufferTree& tree,
                         const tech::RepeaterDevice& device,
                         double driver_width_u,
                         const RepeaterLibrary& library,
                         const ChainDpOptions& options, Workspace& ws) {
  const auto& nodes = tree.nodes();
  RIP_REQUIRE(driver_width_u > 0, "driver width must be positive");
  RIP_REQUIRE(tree.sink_count() > 0, "tree has no sinks");
  const bool power_mode = (options.mode == Mode::kMinPower);
  if (power_mode) {
    RIP_REQUIRE(options.timing_target_fs > 0,
                "kMinPower needs a positive timing target");
  }

  kernel::check_allowed_lists(options.allowed_buffers, nodes.size(), library);

  // Objective backend: the tree carries no route length or net name, so
  // the profile is synthetic — anonymous, zero length, wire cap = total
  // edge + sink capacitance (enough for cap-driven cost derivations).
  tech::ChainCost cost;
  if (options.backend != nullptr) {
    tech::NetProfile profile;
    for (const auto& node : nodes) {
      profile.wire_cap_ff += node.edge_c_ff;
      if (node.is_sink) profile.wire_cap_ff += node.sink_cap_ff;
    }
    cost = kernel::checked_chain_cost(options.backend, profile);
  }
  const bool identity = kernel::identity_cost_table(cost);

  kernel::fill_library_terms(device, library, cost, ws);
  const double intrinsic_fs = device.rs_ohm * device.cp_ff;

  TreeDpResult result;
  result.stats.positions = nodes.size();
  result.stats.workspace_reuses = ws.stats_.solves();

  // Grow-only frontier pool (a shrinking resize would destroy pooled
  // capacity), the node -> slot map, and a fresh reconstruction arena.
  if (ws.tree_frontiers.size() < nodes.size())
    ws.tree_frontiers.resize(nodes.size());
  ws.tree_slot.resize(nodes.size());
  ws.a_parent.clear();
  ws.a_pos.clear();
  ws.a_buffer.clear();
  ws.a_right.clear();

  const double seed_q = kernel::seed_q_fs(cost);

  // Children have larger indices than parents (enforced by add_node), so
  // a reverse index sweep is a bottom-up traversal. Each node's alive
  // set lives in its pool slot, sorted by (C asc, q desc, w asc)
  // throughout — junction merges, candidate expansion, and wire
  // propagation all preserve the invariant, exactly like the chain
  // sweep.
  for (std::size_t ni = nodes.size(); ni-- > 0;) {
    const auto& node = nodes[ni];
    const auto& kids = tree.children()[ni];
    // The subtree frontier lives in the slot of its leftmost descendant
    // leaf — it follows the first child up without ever moving, and the
    // physical buffer serving each node is a pure function of the
    // topology (no capacity migration between solves).
    const std::int32_t slot =
        kids.empty() ? static_cast<std::int32_t>(ni)
                     : ws.tree_slot[static_cast<std::size_t>(kids[0])];
    ws.tree_slot[ni] = slot;
    ChainFrontier& front = ws.tree_frontiers[static_cast<std::size_t>(slot)];

    if (kids.empty()) {
      RIP_REQUIRE(node.is_sink, "leaf node is not a sink");
      // Seed at the sink, target-relative like the chain's receiver
      // seed: q = 0 minus any backend receiver penalty, charged once
      // per sink (e.g. a sense amp at every leaf).
      front.clear();
      front.push(node.sink_cap_ff, seed_q, 0.0, 0, -1);
      ++result.stats.labels_created;
    } else {
      // Merge children branch sets: C adds, q takes the min, p adds.
      // The first child's frontier is already in place (same slot);
      // every further child staircase-merges into it.
      for (std::size_t k = 1; k < kids.size(); ++k) {
        merge_junction(
            ws, front,
            ws.tree_frontiers[static_cast<std::size_t>(
                ws.tree_slot[static_cast<std::size_t>(kids[k])])],
            power_mode, result.stats);
      }
      // A sink can also be an internal tap: add its pin cap (a constant
      // shift keeps the sort order).
      if (node.is_sink) {
        double* __restrict cap = front.cap_ff.data();
        const double pin = node.sink_cap_ff;
        const std::size_t fn = front.size();
        RIP_SIMD_LOOP
        for (std::size_t i = 0; i < fn; ++i) cap[i] += pin;
      }
    }

    // Optional repeater at this node: the chain kernel's candidate step,
    // expansion and merge, on a width order sorted afresh (power mode
    // only; junction merges do not carry it).
    const std::vector<std::int16_t>& allowed =
        kernel::allowed_at(cost, options.allowed_buffers, ws, ni);
    if (node.candidate && !allowed.empty()) {
      if (power_mode) kernel::width_order(front, ws.width_order);
      kernel::expand_candidate(ws, front, ws.width_order, allowed,
                               ws.lib_cost, intrinsic_fs, power_mode);
      kernel::merge_candidate(ws, front, ws.tree_scratch,
                              static_cast<std::int32_t>(ni), allowed.size(),
                              power_mode, result.stats);
      copy_frontier(front, ws.tree_scratch);
    }

    // Traverse the edge to the parent: the same affine interval map as
    // the chain's wire propagation, over one lumped RC piece.
    if (node.parent >= 0) {
      kernel::propagate_frontier(
          front, kernel::edge_affine(node.edge_r_ohm, node.edge_c_ff));
    }
    result.stats.labels_peak =
        std::max(result.stats.labels_peak, front.size());
  }

  ChainFrontier& root =
      ws.tree_frontiers[static_cast<std::size_t>(ws.tree_slot[0])];
  RIP_ASSERT(root.size() > 0, "tree DP lost all labels");
  kernel::apply_driver_gate(root, intrinsic_fs,
                            device.rs_ohm / driver_width_u);
  result.stats.arena_peak = ws.a_parent.size();
  kernel::select_answer(
      result, root.q_fs.data(), root.width_u.data(), root.count.data(),
      root.size(), options, identity,
      [&](std::size_t i) {
        TreeSolution s;
        s.width_u.assign(nodes.size(), 0.0);
        walk_arena(ws, root.node[i], [&](std::size_t at, std::int16_t b) {
          s.width_u[at] = library.widths_u()[static_cast<std::size_t>(b)];
        });
        return s;
      },
      [&](std::size_t i) {
        double w = 0;
        walk_arena(ws, root.node[i], [&](std::size_t, std::int16_t b) {
          w += library.widths_u()[static_cast<std::size_t>(b)];
        });
        return w;
      });

  ++ws.stats_.tree_solves;
  ws.stats_.labels_created += result.stats.labels_created;
  ws.stats_.labels_pruned += result.stats.labels_pruned;
  ws.stats_.peak_frontier_labels =
      std::max(ws.stats_.peak_frontier_labels, result.stats.labels_peak);
  ws.stats_.peak_arena_labels =
      std::max(ws.stats_.peak_arena_labels, result.stats.arena_peak);
  return result;
}

double tree_delay_fs(const BufferTree& tree,
                     const tech::RepeaterDevice& device,
                     double driver_width_u, const TreeSolution& solution,
                     Workspace& ws) {
  const auto& nodes = tree.nodes();
  RIP_REQUIRE(solution.width_u.size() == nodes.size(),
              "solution size does not match tree");
  // Bottom-up evaluation mirroring the DP but over a fixed assignment:
  // carry (C, d_worst) per node where d_worst is the worst delay from
  // this node down to any sink below it.
  ws.tree_cap.assign(nodes.size(), 0.0);
  ws.tree_delay.assign(nodes.size(), 0.0);
  std::vector<double>& cap = ws.tree_cap;
  std::vector<double>& delay = ws.tree_delay;
  for (std::size_t ni = nodes.size(); ni-- > 0;) {
    const auto& node = nodes[ni];
    double c = node.is_sink ? node.sink_cap_ff : 0.0;
    double d = 0.0;
    for (const auto kid : tree.children()[ni]) {
      c += cap[static_cast<std::size_t>(kid)];
      d = std::max(d, delay[static_cast<std::size_t>(kid)]);
    }
    const double w = solution.width_u[ni];
    if (w > 0) {
      RIP_REQUIRE(node.candidate, "repeater placed at a non-candidate node");
      d += device.rs_ohm * device.cp_ff + device.rs_ohm / w * c;
      c = device.co_ff * w;
    }
    if (node.parent >= 0) {
      d += node.edge_r_ohm * (c + 0.5 * node.edge_c_ff);
      c += node.edge_c_ff;
    }
    cap[ni] = c;
    delay[ni] = d;
  }
  return delay[0] + device.rs_ohm * device.cp_ff +
         device.rs_ohm / driver_width_u * cap[0];
}

BufferTree random_buffer_tree(const RandomTreeConfig& config, Rng& rng) {
  RIP_REQUIRE(config.sink_count >= 1, "tree needs at least one sink");
  RIP_REQUIRE(config.candidates_per_edge >= 1,
              "need at least one candidate per edge");
  BufferTree tree;
  // Attachment points: nodes new branches may sprout from.
  std::vector<std::int32_t> attach{0};
  for (int s = 0; s < config.sink_count; ++s) {
    const std::int32_t from = attach[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(attach.size()) - 1))];
    const double length =
        rng.uniform(config.edge_length_min_um, config.edge_length_max_um);
    const double piece = length / config.candidates_per_edge;
    std::int32_t parent = from;
    for (int k = 0; k < config.candidates_per_edge; ++k) {
      BufferTreeNode node;
      node.parent = parent;
      node.edge_r_ohm = config.r_ohm_per_um * piece;
      node.edge_c_ff = config.c_ff_per_um * piece;
      node.candidate = true;
      const bool last = (k + 1 == config.candidates_per_edge);
      if (last) {
        node.is_sink = true;
        node.sink_cap_ff =
            rng.uniform(config.sink_cap_min_ff, config.sink_cap_max_ff);
        node.name = "sink" + std::to_string(s);
      }
      parent = tree.add_node(std::move(node));
      attach.push_back(parent);
    }
  }
  return tree;
}

}  // namespace rip::dp

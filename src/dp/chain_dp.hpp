#pragma once

/// @file chain_dp.hpp
/// Dynamic-programming repeater insertion on a two-pin chain.
///
/// This is the engine behind both the Lillis-style low-power baseline
/// ([14] in the paper) and stages 1 and 3 of Algorithm RIP. It sweeps the
/// candidate locations from the receiver toward the driver, carrying a
/// pruned set of labels (downstream capacitance C, required arrival time
/// q, downstream repeater width p); at each candidate it may insert any
/// repeater of the library.
///
/// Two modes:
///  - kMinPower: minimize total repeater width subject to the timing
///    target (the LPRI problem). Pseudo-polynomial: label count grows
///    with library granularity, which is exactly the cost the paper's
///    hybrid scheme attacks.
///  - kMinDelay: classic van Ginneken maximum-slack recursion, used to
///    compute tau_min for setting timing targets.
///
/// The kernel is allocation-free in steady state: all label storage is
/// structure-of-arrays inside a reusable dp::Workspace (workspace.hpp),
/// wire propagation across a candidate interval is a precomputed affine
/// map `q -= R_tot*C + K; C += C_tot` applied to the contiguous frontier,
/// and dominance pruning runs over a sorted flat-vector Pareto staircase.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dp/library.hpp"
#include "dp/workspace.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/objective.hpp"
#include "tech/technology.hpp"

namespace rip::dp {

/// Optimization objective.
enum class Mode {
  kMinPower,  ///< min total width subject to delay <= timing target
  kMinDelay,  ///< min delay (timing target ignored)
};

/// Outcome of a DP run.
enum class Status {
  kOptimal,     ///< a feasible solution was found (always, in kMinDelay)
  kInfeasible,  ///< no feasible labeling meets the target (kMinPower)
};

/// Feasibility slack tolerance [fs]: a label whose target-relative final
/// slack q meets q + target >= -kSlackToleranceFs is accepted (guards
/// against float round-off at the boundary). Final selection, the
/// stage-3 bounds and LabelingScorer all read this one constant.
inline constexpr double kSlackToleranceFs = 1e-6;

/// Engine options.
struct ChainDpOptions {
  Mode mode = Mode::kMinPower;
  double timing_target_fs = 0;  ///< required in kMinPower mode
  /// Optional per-candidate restriction: allowed_buffers[i] lists the
  /// library indices that may be inserted at candidate i, sorted
  /// ascending (the kernel concatenates the per-buffer label groups
  /// into a capacitance-sorted run, which is only a sorted run when the
  /// indices — and therefore the widths and input loads — ascend;
  /// run_chain_dp rejects unsorted lists). Empty list = no repeater
  /// allowed there; nullptr = the whole library everywhere.
  /// RIP's stage 3 uses this to tie each REFINE repeater's bracketed
  /// widths to its own location window, which collapses the
  /// pseudo-polynomial width lattice the final DP would otherwise
  /// explore.
  const std::vector<std::vector<std::int16_t>>* allowed_buffers = nullptr;
  /// Skip building the RepeaterSolution outputs; status, widths, delays,
  /// and stats are still filled. Stat-only sweeps and the kernel bench
  /// use this so steady-state solves on a reused workspace perform zero
  /// heap allocations.
  bool reconstruct_solutions = true;
  /// Objective backend (tech/objective.hpp). nullptr = the paper's
  /// Eq. 3/4 objective (minimize total width) with bit-identical results
  /// to the pre-backend kernels. A backend reshapes the label's third
  /// dimension from total width into its affine per-net cost, may charge
  /// a fixed receiver-side delay penalty, and may forbid repeater
  /// insertion entirely (the low-swing design point). In kMinPower mode
  /// the DP then minimizes that cost subject to the target; in kMinDelay
  /// mode the cost only breaks slack ties. The derived coefficients are
  /// folded into chain_solve_key, so cached frontiers never collide
  /// across backends.
  const tech::ObjectiveBackend* backend = nullptr;
};

/// Label-count statistics (for the scaling benchmarks and the kernel
/// bench). All fields are a deterministic function of the solver inputs
/// except `workspace_reuses`, which reports how warm the workspace was.
struct DpStats {
  std::size_t labels_created = 0;   ///< labels materialized over the sweep
  std::size_t labels_peak = 0;      ///< largest pruned set at any position
  std::size_t positions = 0;        ///< candidate count
  std::size_t labels_pruned = 0;    ///< removed by dominance or bounds
  std::size_t arena_peak = 0;       ///< reconstruction-arena entries kept
  /// Solves this workspace had already served before this one (the
  /// arena-reuse observability counter; 0 = cold workspace).
  std::size_t workspace_reuses = 0;

  /// Fraction of created labels that pruning discarded.
  double prune_ratio() const {
    return labels_created == 0
               ? 0.0
               : static_cast<double>(labels_pruned) /
                     static_cast<double>(labels_created);
  }
};

/// Result of a DP run.
struct ChainDpResult {
  Status status = Status::kInfeasible;
  /// Min-power (or min-delay) solution; empty when infeasible.
  net::RepeaterSolution solution;
  /// Delay of `solution` per the DP's Elmore bookkeeping [fs], including
  /// any backend receiver penalty.
  double delay_fs = 0;
  /// Total repeater width of `solution` [u].
  double total_width_u = 0;
  /// Objective cost of `solution` under the active backend. Equals
  /// total_width_u on the identity objective (backend == nullptr or
  /// Paper2005Backend); 0 when infeasible.
  double objective_cost = 0;
  /// The minimum-delay labeling found during the same sweep; populated
  /// whenever a sweep ran, in kMinPower mode even when infeasible
  /// (best-effort diagnostics). Empty and 0 on an unbuffered_answer,
  /// which runs no sweep.
  net::RepeaterSolution min_delay_solution;
  double min_delay_fs = 0;
  DpStats stats;
};

/// Run the chain DP. Candidate positions must be sorted ascending and lie
/// strictly inside (0, L); illegal positions (inside forbidden zones) are
/// rejected with rip::Error — generate candidates with
/// net::uniform_candidates / net::window_candidates.
///
/// Solves on `ws`, by default this thread's Workspace::local(); its
/// prior contents never affect the result — only how much memory is
/// already warm.
ChainDpResult run_chain_dp(const net::Net& net,
                           const tech::RepeaterDevice& device,
                           const RepeaterLibrary& library,
                           const std::vector<double>& candidates_um,
                           const ChainDpOptions& options,
                           Workspace& ws = Workspace::local());

/// RIP's stage 3 as an exact branch-and-bound: run_chain_dp (kMinPower
/// only, uncached) minus every label that can no longer meet the target,
/// even on the fastest path to the driver it could still get (a lookahead
/// floor from one driver-to-receiver sweep), or already costs more than
/// `incumbent_cost`, or whose cost plus the least price of any
/// completion (its cost + lambda' * its delay, a Lagrangian floor from the
/// same sweep), less lambda' * (its slack + the target), exceeds
/// `incumbent_cost` (kernel::LabelBounds). `lambda` is the price of a
/// femtosecond in repeater width, finite and >= 0, as REFINE's multiplier
/// is (RIP passes that one); lambda' is it in the objective's cost,
/// lambda times the backend's width weight. Any such price keeps the
/// answer, and 0 applies no cost floor.
/// If the unbounded optimum meets the target at a cost <= incumbent_cost,
/// status, solution, delay, width and cost are bit-identical to it;
/// otherwise the status is kInfeasible (with an empty min_delay_solution
/// when the bounds removed every label). min_delay_* and stats describe
/// the bounded sweep; dropped labels count as pruned. Allocation-free in
/// steady state.
ChainDpResult run_chain_dp_bounded(const net::Net& net,
                                   const tech::RepeaterDevice& device,
                                   const RepeaterLibrary& library,
                                   const std::vector<double>& candidates_um,
                                   const ChainDpOptions& options,
                                   double incumbent_cost, Workspace& ws,
                                   double lambda = 0);

/// The label the chain sweep builds for one labeling, at the driver.
struct LabelingScore {
  /// Objective cost; +inf when the labeling misses the target.
  double objective_cost;
  /// Target-relative final slack, driver gate applied: the labeling's
  /// delay is -slack_fs.
  double slack_fs;
};

/// Scores labelings of (library, candidates_um) with the kMinPower
/// sweep's own label arithmetic: the same seed, wire maps, expansion
/// expression, driver gate and feasibility test, so a score is bit for
/// bit the label the sweep builds for that labeling. A feasible
/// labeling's cost is therefore an incumbent the DP's optimum never
/// exceeds, with no rounding margin.
///
/// Construction validates the inputs as run_chain_dp does and fills the
/// sweep's terms into `ws` (the library's device and cost terms, the
/// wire maps) once; every score then walks one labeling over them. The
/// scorer borrows its arguments and `ws`: it is valid while they live
/// and until another solve or scorer refills ws's sweep terms.
class LabelingScorer {
 public:
  LabelingScorer(const net::Net& net, const tech::RepeaterDevice& device,
                 const RepeaterLibrary& library,
                 const std::vector<double>& candidates_um,
                 const ChainDpOptions& options, Workspace& ws);

  /// `buffer_at[i]` is the library index inserted at candidate i, or -1
  /// for none, and must be in the candidate's allowed list.
  LabelingScore score(const std::vector<std::int16_t>& buffer_at) const;
  /// The labeling with no repeater.
  LabelingScore unbuffered() const { return walk(nullptr); }
  /// The backend's per-net cost coefficients the sweep would use.
  const tech::ChainCost& cost() const { return cost_; }

 private:
  /// One labeling's label at the driver; nullptr = no repeater anywhere.
  LabelingScore walk(const std::int16_t* buffer_at) const;

  const ChainDpOptions& options_;
  const Workspace& ws_;
  tech::ChainCost cost_;
  std::size_t positions_;
  double seed_cap_ff_;
  double intrinsic_fs_;
  double driver_rs_over_w_;
};

/// One labeling's score: LabelingScorer(...).score(buffer_at).
LabelingScore score_labeling(const net::Net& net,
                             const tech::RepeaterDevice& device,
                             const RepeaterLibrary& library,
                             const std::vector<double>& candidates_um,
                             const ChainDpOptions& options,
                             const std::vector<std::int16_t>& buffer_at,
                             Workspace& ws);

/// run_chain_dp's answer, bit for bit and without a sweep, whenever that
/// answer is the labeling with no repeater and the sweep need not prove
/// it. Engaged only when all three hold: the mode is kMinPower; the
/// labeling with no repeater meets the target in the sweep's own label
/// arithmetic (LabelingScorer::unbuffered); and every labeling with a
/// repeater costs more than 0, because the backend forbids repeaters or
/// every entry of the library's cost table is > 0. Why it is exact:
///  1. every labeling with a repeater costs more than 0: its cost is a
///     positive width cost plus a non-negative IEEE sum, and rounding is
///     monotone, so the sum is at least that positive cost;
///  2. the empty labeling's label costs +0.0, has count 0 and is never
///     pruned: only a label of cost <= 0 could dominate it (FlatFrontier
///     keeps any label no seen label beats in both slack and cost), and
///     it is the only such label;
///  3. its slack is bit for bit the sweep's: the scorer walks the same
///     seed, the same wire maps receiver to driver (skipping a zero
///     interval as propagate_frontier does) and the same driver gate.
/// So run_chain_dp's min-cost selection among feasible labels picks that
/// label: status kOptimal, an empty solution, delay_fs = -its slack, and
/// total_width_u = objective_cost = +0.0. A backend whose widths cost 0
/// (both coefficients 0, repeaters allowed) breaks step 1, since a free
/// repeater label can dominate the empty one, so the function declines
/// there. No sweep runs, so min_delay_* stay empty and 0 and stats count
/// no labels (stats.positions is the candidate count). In kMinPower mode
/// it validates its inputs as run_chain_dp does, so a bad input throws
/// the same error. Uses `ws`'s sweep terms as scratch and counts no solve
/// on it.
std::optional<ChainDpResult> unbuffered_answer(
    const net::Net& net, const tech::RepeaterDevice& device,
    const RepeaterLibrary& library, const std::vector<double>& candidates_um,
    const ChainDpOptions& options, Workspace& ws);

// ---------------------------------------------------------------------------
// Target-independent frontier solves (the solve-cache substrate)
// ---------------------------------------------------------------------------
//
// The sweep carries q *relative to the timing target*: the seed label
// starts at q = 0 in both modes and every update subtracts terms that
// depend only on C, never on q itself. The swept frontier is therefore a
// pure function of (net, device, library, candidates, mode,
// allowed_buffers) — the timing target enters only in the final label
// selection, as `q_rel + target >= -kSlackToleranceFs`. That is what
// makes a solved frontier reusable across targets: caching it turns every
// subsequent target on the same net into an O(frontier) selection walk.

/// A completed frontier solve: the post-driver label arrays plus the
/// reconstruction arena, detached from any workspace. `q_fs[i]` is label
/// i's *target-relative* final slack (driver gate already applied);
/// feasibility at a target is `q_fs[i] + target >= -kSlackToleranceFs`
/// and the realized delay is `-q_fs[i]`.
struct ChainFrontierSolve {
  std::vector<double> q_fs;
  /// Objective value per label: total repeater width on the identity
  /// objective, the backend's affine cost otherwise (see identity_cost).
  std::vector<double> width_u;
  std::vector<std::int16_t> count;    ///< repeater count per label
  std::vector<std::int32_t> node;     ///< arena node per label (-1 = none)
  std::vector<std::int32_t> a_parent; ///< reconstruction arena
  std::vector<std::int32_t> a_pos;
  std::vector<std::int16_t> a_buffer;
  /// Stats of the solve that built this frontier. `workspace_reuses` is
  /// canonicalized to 0: a cached frontier has no meaningful warmth.
  DpStats stats;
  /// True when width_u holds plain total widths (identity objective).
  /// select_from_frontier uses this to decide whether total_width_u can
  /// be read off the label or must be re-summed from the arena.
  bool identity_cost = true;

  std::size_t size() const { return q_fs.size(); }
  /// Approximate retained footprint, for the cache's byte accounting.
  std::size_t bytes() const;
};

/// Canonical cache key: hashes everything `solve_chain_frontier` reads —
/// net geometry (segments, zones, terminal widths), device, library
/// widths, candidate positions, mode, allowed_buffers, and (when a
/// backend is set) the backend fingerprint plus its derived per-net cost
/// coefficients — and excludes the selection-time knobs (timing target,
/// reconstruct_solutions). Two calls with equal keys produce
/// bit-identical frontiers; the cache compares by hash only (see
/// util/hash.hpp for the collision trade).
std::uint64_t chain_solve_key(const net::Net& net,
                              const tech::RepeaterDevice& device,
                              const RepeaterLibrary& library,
                              const std::vector<double>& candidates_um,
                              const ChainDpOptions& options);

/// Abstract frontier cache consulted by run_chain_dp_cached. The concrete
/// sharded LRU implementation lives in eval/solve_cache.hpp (the dp layer
/// stays dependency-free). Implementations must be thread-safe.
class ChainSolveCache {
 public:
  virtual ~ChainSolveCache() = default;
  /// Returns the cached solve for `key`, or nullptr on miss.
  virtual std::shared_ptr<const ChainFrontierSolve> lookup(
      std::uint64_t key) = 0;
  /// Inserts `solve` under `key` and returns the stored entry. If another
  /// thread raced the same key in first, the *existing* entry is returned
  /// (equal keys mean bit-identical frontiers, so either copy is correct —
  /// but callers must select from the returned entry so every caller
  /// answers from the same arrays).
  virtual std::shared_ptr<const ChainFrontierSolve> insert(
      std::uint64_t key, ChainFrontierSolve solve) = 0;
};

/// Run the full sweep and return the detached frontier (no selection).
/// Validates inputs like run_chain_dp except that no timing target is
/// required — the frontier is target-independent.
ChainFrontierSolve solve_chain_frontier(const net::Net& net,
                                        const tech::RepeaterDevice& device,
                                        const RepeaterLibrary& library,
                                        const std::vector<double>& candidates_um,
                                        const ChainDpOptions& options,
                                        Workspace& ws);

/// Answer one target from a solved frontier: feasibility scan, min-width
/// (or max-slack) label selection, and solution reconstruction. Runs the
/// exact same arithmetic as the tail of run_chain_dp on the exact same
/// label arrays, so a cache hit is bit-identical to a cold solve.
ChainDpResult select_from_frontier(const ChainFrontierSolve& solve,
                                   const RepeaterLibrary& library,
                                   const std::vector<double>& candidates_um,
                                   const ChainDpOptions& options);

/// run_chain_dp with an optional frontier cache. `cache == nullptr`
/// degrades to plain run_chain_dp. On a miss the frontier is solved into
/// `ws`, copied into the cache, and the result selected from the stored
/// entry; on a hit the workspace is untouched and only the selection walk
/// runs. Results are bit-identical to the uncached path in every field
/// except stats.workspace_reuses (cached stats report 0 warmth).
ChainDpResult run_chain_dp_cached(const net::Net& net,
                                  const tech::RepeaterDevice& device,
                                  const RepeaterLibrary& library,
                                  const std::vector<double>& candidates_um,
                                  const ChainDpOptions& options, Workspace& ws,
                                  ChainSolveCache* cache);

}  // namespace rip::dp

#pragma once

/// @file sharded_sweep.hpp
/// The generic sharded-sweep surface behind Table 1, Table 2 and
/// Fig. 7. All three experiments share one shape: two flat case spaces
/// (RIP solves and DP-baseline solves), each cut into groups of
/// consecutive cases that are split round-robin across processes
/// (eval::shard_case_indices over group indices) and fanned out over
/// the persistent scheduler within a process; the reduction runs only
/// at merge time, serially, in the original input order — so any
/// (shard_count, jobs) combination reproduces the serial bits.
///
/// A group is the unit of work and of shard ownership. Table 1 and
/// Fig. 7 group a whole target sweep of one (net, library), so one task
/// sweeps the target-independent frontier once and selects every
/// target from it; Table 2 uses groups of one case, so every solve it
/// times stays cold.
///
/// run_sweep_slice solves one shard's slice of one flat case space;
/// reassemble_sweep_shards validates a full set of shards and scatters
/// their slices back into the full case spaces. The per-table runners
/// (eval/experiments.cpp) are thin adapters over these two templates:
/// they own only the case-space geometry (how a flat index decodes to
/// (net, granularity, target)), the solve body, and the reduction.

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "eval/parallel.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {

namespace detail {
/// Groups in a `case_count`-sized case space cut into `group_size`
/// consecutive cases each; the cut must be exact.
inline std::size_t sweep_group_count(std::size_t case_count,
                                     std::size_t group_size) {
  RIP_REQUIRE(group_size >= 1, "sweep group size must be >= 1");
  RIP_REQUIRE(case_count % group_size == 0,
              "sweep case count is not a multiple of the group size");
  return case_count / group_size;
}
}  // namespace detail

/// Solve this shard's slice of a `case_count`-sized flat case space cut
/// into groups of `group_size`: group j owns flat cases
/// [j * group_size, (j + 1) * group_size) and belongs to shard
/// j % shard_count. The slice's groups fan out over `jobs` workers;
/// `solve(j, out)` fills group j's span (out[i] is flat case
/// j * group_size + i). It runs on a scheduler worker thread (use
/// dp::Workspace::local() inside), solves its cases in order on that
/// one thread — so it may carry task-local state such as a frontier
/// cache from case to case — must not touch shared mutable state, and
/// writes only its own span, which is what keeps every (jobs, shard)
/// combination bit-identical to the serial loop. Returns the slice's
/// outcomes in ascending global order.
template <class Outcome, class Solve>
std::vector<Outcome> run_sweep_slice(std::size_t case_count,
                                     std::size_t group_size, int jobs,
                                     int shard_index, int shard_count,
                                     Solve&& solve) {
  const auto mine =
      shard_case_indices(detail::sweep_group_count(case_count, group_size),
                         shard_index, shard_count);
  std::vector<Outcome> out(mine.size() * group_size);
  parallel_for_indexed(mine.size(), jobs, [&](std::size_t j) {
    solve(mine[j],
          std::span<Outcome>(out).subspan(j * group_size, group_size));
  });
  return out;
}

/// Validate a complete set of sweep shards and scatter each shard's
/// `rip`/`dp` slices, whole groups of `group_size` at a time, into the
/// full-size case spaces (`rip_runs` and `dp_runs`, pre-sized by the
/// caller). A Shard must carry `shard_index`, `shard_count`, and
/// `rip`/`dp` outcome vectors. `check_meta(shard)` is the experiment's
/// own consistency check (e.g. every shard saw the same workload); it
/// should throw on disagreement. Throws rip::Error if shards are
/// missing, duplicated, out of range, from different splits, or slice
/// sizes do not match the shard's group assignment.
template <class Shard, class Outcome, class CheckMeta>
void reassemble_sweep_shards(std::span<const Shard> shards,
                             std::size_t group_size,
                             std::vector<Outcome>& rip_runs,
                             std::vector<Outcome>& dp_runs,
                             CheckMeta&& check_meta) {
  RIP_REQUIRE(!shards.empty(), "merge needs at least one shard");
  const int shard_count = shards.front().shard_count;
  RIP_REQUIRE(static_cast<int>(shards.size()) == shard_count,
              "merge needs every shard of the split");
  const auto scatter = [&](const std::vector<Outcome>& slice,
                           std::vector<Outcome>& runs, int shard_index,
                           const std::string& what) {
    const auto groups = shard_case_indices(
        detail::sweep_group_count(runs.size(), group_size), shard_index,
        shard_count);
    RIP_REQUIRE(slice.size() == groups.size() * group_size,
                "shard " + what + " case count mismatch");
    for (std::size_t j = 0; j < groups.size(); ++j) {
      std::copy_n(slice.begin() + static_cast<std::ptrdiff_t>(j * group_size),
                  group_size,
                  runs.begin() +
                      static_cast<std::ptrdiff_t>(groups[j] * group_size));
    }
  };
  std::vector<bool> seen(static_cast<std::size_t>(shard_count), false);
  for (const Shard& shard : shards) {
    RIP_REQUIRE(shard.shard_count == shard_count,
                "shards come from different splits");
    RIP_REQUIRE(shard.shard_index >= 0 && shard.shard_index < shard_count,
                "shard index out of range");
    RIP_REQUIRE(!seen[static_cast<std::size_t>(shard.shard_index)],
                "duplicate shard " + std::to_string(shard.shard_index));
    seen[static_cast<std::size_t>(shard.shard_index)] = true;
    check_meta(shard);
    scatter(shard.rip, rip_runs, shard.shard_index, "RIP");
    scatter(shard.dp, dp_runs, shard.shard_index, "DP");
  }
}

}  // namespace rip::eval

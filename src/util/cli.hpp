#pragma once

/// @file cli.hpp
/// A small command-line argument parser for the rip_cli tool and other
/// executables: one positional subcommand followed by `--key value`
/// options and `--flag` booleans.
///
///     rip_cli solve --net my.net --target-ns 2.5 --spice out.sp

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace rip {

/// Parsed command line.
class CliArgs {
 public:
  /// Parse argv. The first non-flag token becomes the subcommand (may be
  /// empty). Throws rip::Error on a malformed line (option without value,
  /// unexpected extra positionals).
  /// @param boolean_flags  names (without "--") that take no value.
  static CliArgs parse(int argc, const char* const* argv,
                       const std::set<std::string>& boolean_flags = {});

  const std::string& command() const { return command_; }

  /// True if --name was given (as a boolean flag or with a value).
  bool has(const std::string& name) const;

  /// Value of --name, or nullopt.
  std::optional<std::string> get(const std::string& name) const;

  /// Value of --name, or `fallback`.
  std::string get_or(const std::string& name,
                     const std::string& fallback) const;

  /// Numeric accessors; throw rip::Error on malformed numbers.
  double get_double_or(const std::string& name, double fallback) const;
  int get_int_or(const std::string& name, int fallback) const;

  /// Value of a mandatory option; throws with a helpful message.
  std::string require(const std::string& name) const;

  /// Option names that were parsed but never read — lets tools reject
  /// typos ("--targt-ns") instead of silently ignoring them.
  std::vector<std::string> unused() const;

 private:
  std::string command_;
  std::map<std::string, std::string> options_;
  std::set<std::string> flags_;
  mutable std::set<std::string> touched_;
};

/// The standard `--jobs N` option shared by every parallel-capable
/// binary (rip_cli, the bench runners): N >= 1 worker threads taken
/// literally, 0 meaning one per hardware thread. Returns the resolved
/// thread count; throws rip::Error on a negative or malformed value.
int parallel_jobs(const CliArgs& args, int fallback = 1);

/// One process's slice of a cross-process sweep split.
struct ShardSpec {
  int index = 0;  ///< this process's shard, 0-based
  int count = 1;  ///< total shards in the split
};

/// rip_cli's `--shard I/N` option for `sweep` and `compare`: shard I of
/// N (0 <= I < N). Absent means the single, unsharded shard 0/1.
/// Throws rip::Error on a malformed spec.
ShardSpec shard_option(const CliArgs& args);

/// The point indices one shard of a round-robin split owns (point i
/// belongs to shard i % shard_count), in ascending (input) order.
/// Scattering each shard's results back to its indices rebuilds the
/// unsharded sweep; `rip_cli merge` does that on the `idx` column.
std::vector<std::size_t> shard_case_indices(std::size_t case_count,
                                            int shard_index,
                                            int shard_count);

/// Strict unsigned-count option: digits only (no signs, spaces, or
/// trailing garbage), value >= `min_value`; absent returns `fallback`
/// unvalidated (so 0-means-unbounded defaults survive a min of 1).
/// Rejections share one uniform message shape, in the same style as
/// shard_option: "--NAME expects an integer >= MIN ...: <why> in '<v>'".
std::uint64_t count_option(const CliArgs& args, const std::string& name,
                           std::uint64_t fallback,
                           std::uint64_t min_value = 0);

}  // namespace rip

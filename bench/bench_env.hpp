#pragma once

/// @file bench_env.hpp
/// Shared configuration for the table-regeneration benches. Every knob
/// has an environment-variable default (so CI can shrink runs globally)
/// that the command line overrides per invocation:
///   RIP_BENCH_NETS     / --nets N     population size (paper: 20)
///   RIP_BENCH_TARGETS  / --targets N  timing targets per net (paper: 20)
///   RIP_BENCH_JOBS     / --jobs N     worker threads (1 = serial,
///                                     0 = all hardware threads)

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rip::bench {

/// The integer in environment variable `name`, or `fallback` when it
/// is unset. A malformed value is a usage error that names the
/// variable, like a malformed option.
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : parse_int(value, name);
}

/// A count read from `--name`, else environment variable `env`, else
/// `fallback`. A value below 1 is a usage error that names the option
/// or the variable it came from.
inline int count_or(const CliArgs& args, const std::string& name,
                    const char* env, int fallback) {
  const int value = args.get_int_or(name, env_int(env, fallback));
  if (value < 1) {
    throw Error((args.has(name) ? "--" + name : std::string(env)) +
                " expects an integer >= 1");
  }
  return value;
}

/// CLI-over-environment resolution used by every bench main().
inline int net_count(const CliArgs& args, int fallback = 20) {
  return count_or(args, "nets", "RIP_BENCH_NETS", fallback);
}

inline int targets_per_net(const CliArgs& args, int fallback = 20) {
  return count_or(args, "targets", "RIP_BENCH_TARGETS", fallback);
}

/// Resolved worker-thread count (`--jobs`, then RIP_BENCH_JOBS, then
/// `fallback`; 0 = all hardware threads). A negative value is a usage
/// error that names the option or the variable it came from.
inline int jobs(const CliArgs& args, int fallback = 1) {
  const int env = env_int("RIP_BENCH_JOBS", fallback);
  if (!args.has("jobs") && env < 0) {
    throw Error("RIP_BENCH_JOBS must be >= 0 (0 = all hardware threads)");
  }
  return parallel_jobs(args, env);
}

/// Every bench declares `--help` as a boolean flag; main() answers it
/// with `return bench::usage("bench_x [--opt V] ...")`, which prints
/// the usage line and exits 0.
inline int usage(const char* synopsis) {
  std::cout << "usage: " << synopsis << "\n";
  return 0;
}

/// Flag mistyped options instead of silently ignoring them (mirrors
/// rip_cli); call after every option has been read.
inline void warn_unused(const CliArgs& args) {
  for (const auto& name : args.unused()) {
    std::cerr << "warning: unused option --" << name << "\n";
  }
}

}  // namespace rip::bench

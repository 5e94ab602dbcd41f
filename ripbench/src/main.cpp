// ripbench — the repository benchmark binary (run.py builds and drives
// it). Usage:
//
//   ripbench --workload table1|retarget-stream|small-stream
//            [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// Solves run on min(4, hardware threads) workers.
//
// Prints a human summary, then one JSON line with the result record:
// correct/attempted/failed, the metrics (end-to-end with --trace 0,
// per-layer with --trace 1), exact counts and output hashes, the
// workload configuration, failed checks and notes. A traced run also
// writes its spans to DIR/trace-<workload>-<seed>.jsonl.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace {

using namespace ripbench;

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  o.jobs = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  o.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    RIP_REQUIRE(i + 1 < argc, "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      const auto end = value.data() + value.size();
      const auto parsed = std::from_chars(value.data(), end, o.seed);
      RIP_REQUIRE(parsed.ec == std::errc() && parsed.ptr == end,
                  "--seed must be an unsigned 64-bit integer");
    } else if (flag == "--seconds") {
      o.seconds = rip::parse_double(value, "--seconds");
      RIP_REQUIRE(o.seconds > 0, "--seconds must be positive");
    } else if (flag == "--trace") {
      RIP_REQUIRE(value == "0" || value == "1", "--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      throw rip::Error("unknown option " + flag);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) try {
  const RunOptions options = parse(argc, argv);
  std::filesystem::create_directories(options.out_dir);

  RunResult result;
  if (options.workload == "table1") {
    result = run_table1_workload(options);
  } else if (options.workload == "retarget-stream") {
    result = run_retarget_stream(options);
  } else if (options.workload == "small-stream") {
    result = run_small_stream(options);
  } else {
    throw rip::Error("--workload must be table1, retarget-stream or "
                     "small-stream");
  }
  result.set("workload", options.workload);
  result.set("seed", std::to_string(options.seed));
  result.set("jobs", std::to_string(options.jobs));
  result.set("trace", options.trace ? "1" : "0");

  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    Tracer::global().write_jsonl(path);
    result.set("trace_file", path);
  }

  for (const auto& m : result.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : result.problems) std::printf("FAILED CHECK: %s\n", p.c_str());
  for (const auto& n : result.notes) std::printf("note: %s\n", n.c_str());
  std::printf("%s\n", result.to_json().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fflush(stdout);
  std::fprintf(stderr, "ripbench: %s\n", e.what());
  return 2;
}

// Benchmark of the streaming netlist sweep (net/netlist_io.hpp +
// eval/stream.hpp): generate an N-net binary netlist on disk, stream it
// through run_stream, and report throughput (nets/sec, ns_per_solve)
// and peak RSS per scale.
//
// The point being measured is the MEMORY contract, not the solver: the
// driver's reorder window bounds resident records, so peak RSS must be
// (nearly) independent of the file's net count. The bench runs its
// scales in ascending order inside one process and gates on the ratio
// of peak RSS after the largest scale to peak RSS after the smallest
// (ru_maxrss is process-lifetime monotone, so the ratio can only be
// pushed UP by a leak — a passing ratio is real evidence). Exit 3 when
// the ratio exceeds --rss-limit (default 1.35).
//
// To keep a million-net sweep tractable the bench generates small nets
// (2-4 short segments) with cheap stored targets — a multiple of the
// net's unbuffered Elmore delay, no DP needed at generation time. The
// DP work per net is small but real; throughput numbers are comparable
// across runs of the same scales.
//
// Knobs: --scales 10000,100000 (net counts, ascending; default matches
// the committed BENCH_stream.json — CI compares configs by name, so
// adding 1000000 locally is fine but do not commit a baseline CI does
// not run), --jobs / RIP_BENCH_JOBS worker threads, --max-pending N
// (window sizing, default 64), --rss-limit R, --dir D scratch directory
// for the generated netlists (default: the system temp dir; files are
// removed afterwards), --keep to leave them, --json PATH for the
// machine-readable summary (CI uploads it as BENCH_stream.json and
// gates it with tools/perf_gate.py).

#include <sys/resource.h>

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "eval/stream.hpp"
#include "net/net.hpp"
#include "net/netlist_io.hpp"
#include "rc/buffered_chain.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rip;

/// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
std::uint64_t peak_rss_kib() {
  struct rusage usage{};
  RIP_REQUIRE(getrusage(RUSAGE_SELF, &usage) == 0, "getrusage failed");
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// One small random net: 2-4 segments of 200..700 um on paper-like RC,
/// occasionally a forbidden zone. Solves in well under a millisecond,
/// which is what makes 10^5..10^6-net sweeps benchable.
net::Net small_net(Rng& rng, std::uint64_t index) {
  const int segment_count = rng.uniform_int(2, 4);
  std::vector<net::Segment> segments;
  segments.reserve(static_cast<std::size_t>(segment_count));
  double total_um = 0;
  for (int s = 0; s < segment_count; ++s) {
    net::Segment seg;
    seg.length_um = rng.uniform(200.0, 700.0);
    seg.r_ohm_per_um = rng.uniform(0.08, 0.12);
    seg.c_ff_per_um = rng.uniform(0.18, 0.25);
    seg.layer = rng.bernoulli(0.5) ? "metal4" : "metal5";
    total_um += seg.length_um;
    segments.push_back(std::move(seg));
  }
  std::vector<net::ForbiddenZone> zones;
  if (rng.bernoulli(0.2)) {
    const double start = rng.uniform(0.1, 0.6) * total_um;
    zones.push_back(net::ForbiddenZone{start, start + 0.15 * total_um});
  }
  return net::Net("n" + std::to_string(index), rng.uniform(80.0, 160.0),
                  rng.uniform(40.0, 80.0), std::move(segments),
                  std::move(zones));
}

/// Write an N-net binary netlist with stored targets = 3x the net's
/// unbuffered Elmore delay (cheap to compute, loose enough that most
/// nets are feasible with 0..2 repeaters).
std::uint64_t write_workload(const tech::Technology& tech,
                             const std::string& path, std::uint64_t nets,
                             std::uint64_t seed) {
  Rng rng(seed);
  net::NetlistWriter writer(path, net::NetlistFormat::kBinary);
  for (std::uint64_t i = 0; i < nets; ++i) {
    const net::Net n = small_net(rng, i);
    const double unbuffered =
        rc::elmore_delay_fs(n, net::RepeaterSolution{}, tech.device());
    writer.add(n, 3.0 * unbuffered);
  }
  writer.close();
  return std::filesystem::file_size(path);
}

std::string scale_name(std::uint64_t nets) {
  if (nets % 1000000 == 0) return std::to_string(nets / 1000000) + "m";
  if (nets % 1000 == 0) return std::to_string(nets / 1000) + "k";
  return std::to_string(nets);
}

struct ScaleResult {
  std::uint64_t nets = 0;
  std::uint64_t file_bytes = 0;
  double write_s = 0;
  double stream_s = 0;
  double nets_per_sec = 0;
  double ns_per_solve = 0;
  std::uint64_t peak_rss_kib = 0;  ///< process peak AFTER this scale
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help", "keep"});
  if (args.has("help")) {
    return bench::usage(
        "bench_stream [--scales N,N,...] [--jobs N] [--max-pending N] "
        "[--rss-limit R] [--dir DIR] [--keep] [--json PATH]");
  }
  const int jobs = bench::jobs(args, 1);
  const std::uint64_t max_pending = count_option(args, "max-pending", 64, 1);
  const std::string json_path = args.get_or("json", "");
  const bool keep = args.has("keep");

  // Bad values are usage errors: the whole token must parse.
  const auto parsed = [](const std::string& text, auto& value) {
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, value);
    return result.ec == std::errc() && result.ptr == end;
  };
  const std::string rss_text = args.get_or("rss-limit", "1.35");
  double rss_limit = 0;
  if (!parsed(rss_text, rss_limit) || !(rss_limit > 1.0)) {
    throw Error("--rss-limit expects a ratio > 1 (e.g. --rss-limit 1.35), "
                "got '" + rss_text + "'");
  }
  const std::string scales_text = args.get_or("scales", "10000,100000");
  std::vector<std::uint64_t> scales;
  for (const auto& token : split_on(scales_text, ',')) {
    std::uint64_t nets = 0;
    if (!parsed(trim(token), nets) || nets < 1 ||
        (!scales.empty() && scales.back() >= nets)) {
      throw Error("--scales expects ascending net counts >= 1 (e.g. "
                  "--scales 10000,100000), got '" + scales_text + "'");
    }
    scales.push_back(nets);
  }

  const std::string dir = args.get_or(
      "dir", std::filesystem::temp_directory_path().string());
  const tech::Technology tech = tech::make_tech180();
  bench::warn_unused(args);

  std::vector<ScaleResult> results;
  for (const std::uint64_t nets : scales) {
    ScaleResult r;
    r.nets = nets;
    const std::string name = scale_name(nets);
    const std::string input = dir + "/bench_stream_" + name + ".rnlb";
    const std::string output = dir + "/bench_stream_" + name + ".csv";

    WallTimer write_timer;
    r.file_bytes = write_workload(tech, input, nets, 2005);
    r.write_s = write_timer.seconds();

    eval::StreamOptions options;
    options.jobs = jobs;
    options.max_pending = max_pending;
    const auto stream = eval::run_stream(tech, input, output, options);
    RIP_REQUIRE(stream.finished && stream.rows_written == nets,
                "stream did not complete the workload");
    r.stream_s = stream.elapsed_s;
    r.nets_per_sec = static_cast<double>(nets) / stream.elapsed_s;
    r.ns_per_solve =
        stream.elapsed_s * 1e9 / static_cast<double>(nets);
    r.peak_rss_kib = peak_rss_kib();
    results.push_back(r);

    if (!keep) {
      std::filesystem::remove(input);
      std::filesystem::remove(output);
    }
  }

  Table table({"scale", "nets", "file_mb", "write_s", "stream_s",
               "nets_per_sec", "ns_per_solve", "peak_rss_mb"});
  for (const auto& r : results) {
    table.add_row({scale_name(r.nets), std::to_string(r.nets),
                   fmt_f(r.file_bytes / 1e6, 1), fmt_f(r.write_s, 2),
                   fmt_f(r.stream_s, 2), fmt_f(r.nets_per_sec, 0),
                   fmt_f(r.ns_per_solve, 0),
                   fmt_f(r.peak_rss_kib / 1024.0, 1)});
  }
  table.print(std::cout);

  // The memory gate: peak RSS after the largest scale over peak after
  // the smallest. A window-bounded stream adds essentially nothing when
  // the file grows 10x; an accidental whole-file slurp (or a per-record
  // leak) blows straight through the limit.
  const double rss_ratio =
      static_cast<double>(results.back().peak_rss_kib) /
      static_cast<double>(results.front().peak_rss_kib);
  const bool rss_bounded = rss_ratio <= rss_limit;
  std::cout << "peak RSS ratio (" << scale_name(results.back().nets) << " / "
            << scale_name(results.front().nets) << "): "
            << fmt_f(rss_ratio, 3) << " (limit " << fmt_f(rss_limit, 2)
            << ") " << (rss_bounded ? "ok" : "EXCEEDED") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    RIP_REQUIRE(out.good(), "cannot open --json output file " + json_path);
    out << "{\n  \"workload\": {\"jobs\": " << jobs
        << ", \"max_pending\": " << max_pending << ", \"seed\": 2005},\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      out << "    {\"name\": \"stream-" << scale_name(r.nets)
          << "\", \"nets\": " << r.nets
          << ", \"file_bytes\": " << r.file_bytes
          << ", \"write_s\": " << r.write_s
          << ", \"stream_s\": " << r.stream_s
          << ", \"nets_per_sec\": " << r.nets_per_sec
          << ", \"ns_per_solve\": " << r.ns_per_solve
          << ", \"peak_rss_kib\": " << r.peak_rss_kib << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"rss_ratio\": " << rss_ratio
        << ",\n  \"rss_limit\": " << rss_limit
        << ",\n  \"rss_bounded\": " << (rss_bounded ? "true" : "false")
        << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return rss_bounded ? 0 : 3;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

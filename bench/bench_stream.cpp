// Peak-RSS gate of the streaming netlist sweep (net/netlist_io.hpp +
// eval/stream.hpp): generate an N-net binary netlist on disk, stream it
// through run_stream, and record the process's peak RSS per scale.
//
// The point being measured is the MEMORY contract, not the solver: the
// driver's reorder window bounds resident records, so peak RSS must be
// (nearly) independent of the file's net count. The bench runs its
// scales in ascending order inside one process and gates on the ratio
// of peak RSS after the largest scale to peak RSS after the smallest
// (ru_maxrss is process-lifetime monotone, so the ratio can only be
// pushed UP by a leak — a passing ratio is real evidence). Exit 3 when
// the ratio exceeds 1.35. The ctest bench_stream.peak_rss_is_flat runs
// the default 10^4 -> 10^5 scales. Run it on the normal allocator: a
// sanitizer's allocator keeps freed memory in quarantine, which grows
// the peak with the record count.
//
// The nets are small (2-4 short segments) with cheap stored targets —
// a multiple of the net's unbuffered Elmore delay, no DP needed at
// generation time — so 10^5-net sweeps stay fast. With --keep the
// generated netlists stay behind as bench_stream_<scale>.rnlb, a cheap
// streaming workload for other tools.
//
// Knobs: --scales 10000,100000 (net counts, ascending; one scale only
// generates and streams, the gate needs two), --jobs / RIP_BENCH_JOBS
// worker threads, --dir D scratch directory for the generated netlists
// (default: the system temp dir; files are removed afterwards), --keep
// to leave them.

#include <sys/resource.h>

#include <charconv>
#include <cstdint>
#include <filesystem>
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

namespace {

using namespace rip;

/// Bounded-queue depth of every stream (and so its reorder window).
constexpr std::size_t kMaxPending = 64;
/// Largest allowed peak-RSS growth from the smallest to the largest
/// scale.
constexpr double kRssLimit = 1.35;

/// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
std::uint64_t peak_rss_kib() {
  struct rusage usage{};
  RIP_REQUIRE(getrusage(RUSAGE_SELF, &usage) == 0, "getrusage failed");
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// One small random net: 2-4 segments of 200..700 um on paper-like RC,
/// occasionally a forbidden zone. Solves in well under a millisecond,
/// which is what makes 10^5-net sweeps cheap.
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
  std::string name = "n";
  name += std::to_string(index);
  return net::Net(std::move(name), rng.uniform(80.0, 160.0),
                  rng.uniform(40.0, 80.0), std::move(segments),
                  std::move(zones));
}

/// Write an N-net binary netlist with stored targets = 3x the net's
/// unbuffered Elmore delay (cheap to compute, loose enough that most
/// nets are feasible with 0..2 repeaters).
void write_workload(const tech::Technology& tech, const std::string& path,
                    std::uint64_t nets, std::uint64_t seed) {
  Rng rng(seed);
  net::NetlistWriter writer(path, net::NetlistFormat::kBinary);
  for (std::uint64_t i = 0; i < nets; ++i) {
    const net::Net n = small_net(rng, i);
    const double unbuffered =
        rc::elmore_delay_fs(n, net::RepeaterSolution{}, tech.device());
    writer.add(n, 3.0 * unbuffered);
  }
  writer.close();
}

std::string scale_name(std::uint64_t nets) {
  if (nets % 1000000 == 0) return std::to_string(nets / 1000000) + "m";
  if (nets % 1000 == 0) return std::to_string(nets / 1000) + "k";
  return std::to_string(nets);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rip;
  const CliArgs args = CliArgs::parse(argc, argv, {"help", "keep"});
  if (args.has("help")) {
    return bench::usage(
        "bench_stream [--scales N,N,...] [--jobs N] [--dir DIR] [--keep]");
  }
  const int jobs = bench::jobs(args, 1);
  const bool keep = args.has("keep");

  // Bad values are usage errors: the whole token must parse.
  const std::string scales_text = args.get_or("scales", "10000,100000");
  std::vector<std::uint64_t> scales;
  for (const auto& token : split_on(scales_text, ',')) {
    const std::string text = trim(token);
    const char* end = text.data() + text.size();
    std::uint64_t nets = 0;
    const auto parsed = std::from_chars(text.data(), end, nets);
    if (parsed.ec != std::errc() || parsed.ptr != end || nets < 1 ||
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

  std::vector<std::uint64_t> peaks;  ///< process peak RSS after each scale
  for (const std::uint64_t nets : scales) {
    const std::string name = scale_name(nets);
    const std::string input = dir + "/bench_stream_" + name + ".rnlb";
    const std::string output = dir + "/bench_stream_" + name + ".csv";
    write_workload(tech, input, nets, 2005);

    eval::StreamOptions options;
    options.jobs = jobs;
    options.max_pending = kMaxPending;
    const auto stream = eval::run_stream(tech, input, output, options);
    RIP_REQUIRE(stream.finished && stream.rows_written == nets,
                "stream did not complete the workload");
    peaks.push_back(peak_rss_kib());
    std::cout << name << ": " << nets << " nets streamed, peak RSS "
              << fmt_f(peaks.back() / 1024.0, 1) << " MiB\n";

    if (!keep) {
      std::filesystem::remove(input);
      std::filesystem::remove(output);
    }
  }

  if (scales.size() < 2) {
    std::cout << "peak RSS gate skipped: it compares two scales, got one\n";
    return 0;
  }
  // The memory gate: peak RSS after the largest scale over peak after
  // the smallest. A window-bounded stream adds essentially nothing when
  // the file grows 10x; an accidental whole-file slurp (or a per-record
  // leak) blows straight through the limit.
  const double rss_ratio = static_cast<double>(peaks.back()) /
                           static_cast<double>(peaks.front());
  const bool rss_bounded = rss_ratio <= kRssLimit;
  std::cout << "peak RSS ratio (" << scale_name(scales.back()) << " / "
            << scale_name(scales.front()) << "): " << fmt_f(rss_ratio, 3)
            << " (limit " << fmt_f(kRssLimit, 2) << ") "
            << (rss_bounded ? "ok" : "EXCEEDED") << "\n";
  return rss_bounded ? 0 : 3;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

// Workloads "retarget-stream" and "small-stream": eval::run_stream over
// a generated netlist file, one CSV row per record.
//
// retarget-stream: a binary netlist of paper-workload nets, each stored
//   at many targets, written target-major with more nets than the
//   reorder window, through a SolveCache. The first pass over the nets
//   misses, every later pass hits, so the baseline and RIP's stage 1
//   become frontier selections and REFINE + stage 3 dominate.
// small-stream: a text netlist of small nets on which RIP exits after
//   stage 1, a tight queue bound, no cache, sparse checkpoints: the
//   reader, dispatch, reorder window, row write and checkpoint dominate.

#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/service.hpp"
#include "eval/stream.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "net/netlist_io.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace ripbench {

namespace {

using namespace rip;

struct StreamSpec {
  std::string name;
  net::NetlistFormat format = net::NetlistFormat::kBinary;
  std::size_t max_pending = 64;
  bool cache = false;
  std::uint64_t checkpoint_every = 0;
  /// Whether most cases must reach RIP's stage 3 (the stage guard).
  bool expect_stage3 = false;
  /// Writes the workload's input file (or, with warm = true, a short
  /// warm-up file) and returns its record count; adds the time spent on
  /// tau_min solves to `tau_min_s`.
  std::function<std::uint64_t(const std::string& path, bool warm,
                              double& tau_min_s)>
      write;
};

struct Paths {
  std::string input, csv, checkpoint, warm_input, warm_csv;
};

Paths paths_for(const RunOptions& options, const StreamSpec& spec) {
  const std::string stem = options.out_dir + "/" + spec.name;
  const std::string ext =
      spec.format == net::NetlistFormat::kBinary ? ".rnlb" : ".rnl";
  return {stem + ext, stem + ".csv", stem + ".ckpt", stem + "-warm" + ext,
          stem + "-warm.csv"};
}

/// The exact row eval::run_stream writes for one case.
std::string format_row(std::uint64_t index, const std::string& name,
                       const eval::CaseResult& r) {
  std::string row = std::to_string(index) + ',' + name + ',' +
                    fmt_f(units::fs_to_ns(r.tau_t_fs), 3) + ',';
  row += r.rip_feasible ? fmt_f(r.rip_width_u, 0) : "VIOL";
  row += ',';
  row += r.dp_feasible ? fmt_f(r.dp_width_u, 0) : "VIOL";
  row += ',';
  row += (r.rip_feasible && r.dp_feasible) ? fmt_f(r.improvement_pct, 2) : "-";
  return row + '\n';
}

constexpr const char* kHeader = "idx,name,tau_t_ns,rip_u,dp_u,impr_pct\n";

/// The CaseResult eval::run_case assembles from the two solves.
eval::CaseResult case_result(double tau_t_fs, const core::RipResult& rip,
                             const dp::ChainDpResult& dp) {
  eval::CaseResult out;
  out.tau_t_fs = tau_t_fs;
  out.rip_feasible = rip.status == dp::Status::kOptimal;
  out.rip_width_u = rip.total_width_u;
  out.dp_feasible = dp.status == dp::Status::kOptimal;
  out.dp_width_u = dp.total_width_u;
  if (out.rip_feasible && out.dp_feasible && out.dp_width_u > 0) {
    out.improvement_pct =
        (out.dp_width_u - out.rip_width_u) / out.dp_width_u * 100.0;
  }
  return out;
}

/// Certify both solutions of one case; empty when both pass.
std::string certify_case(const net::Net& net, double tau,
                         const tech::RepeaterDevice& device,
                         const core::RipResult& rip,
                         const dp::ChainDpResult& dp) {
  std::string why;
  if (rip.status == dp::Status::kOptimal) {
    why = certify(net, rip.solution, rip.total_width_u, tau, device);
  }
  if (why.empty() && dp.status == dp::Status::kOptimal) {
    why = certify(net, dp.solution, dp.total_width_u, tau, device);
  }
  return why.empty() ? why : net.name() + ": " + why;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  RIP_REQUIRE(in.good(), "cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line + '\n');
  return lines;
}

/// Quality outcomes from the CSV rows.
Outcomes outcomes_of(const std::vector<std::string>& lines) {
  Outcomes o;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto f = split_on(trim(lines[i]), ',');
    RIP_REQUIRE(f.size() == 6, "malformed CSV row: " + lines[i]);
    ++o.cases;
    if (f[3] == "VIOL") continue;
    ++o.rip_feasible;
    if (f[4] == "VIOL") continue;
    const double rip_u = parse_double(f[3], "rip_u");
    const double dp_u = parse_double(f[4], "dp_u");
    if (dp_u > 0) {
      ++o.compared;
      o.power_ratio_sum += rip_u / dp_u;
    }
  }
  return o;
}

eval::StreamOptions stream_options(const RunOptions& options,
                                   const StreamSpec& spec,
                                   const Paths& paths,
                                   eval::SolveCache* cache) {
  eval::StreamOptions s;
  s.jobs = options.jobs;
  s.max_pending = spec.max_pending;
  s.checkpoint_every = spec.checkpoint_every;
  if (spec.checkpoint_every > 0) s.checkpoint_path = paths.checkpoint;
  s.context.cache = cache;
  return s;
}

std::unique_ptr<eval::SolveCache> fresh_cache(const StreamSpec& spec) {
  if (!spec.cache) return nullptr;
  eval::SolveCacheOptions o;
  o.capacity = 4096;
  return std::make_unique<eval::SolveCache>(o);
}

/// One end-to-end pass: a fresh cache, then eval::run_stream.
struct StreamPass {
  eval::StreamResult stream;
  eval::SolveCacheStats cache;
  double seconds = 0;
};

StreamPass run_pass(const tech::Technology& tech, const RunOptions& options,
                    const StreamSpec& spec, const std::string& input,
                    const std::string& csv, const Paths& paths) {
  const auto cache = fresh_cache(spec);
  StreamPass pass;
  const std::int64_t begin = now_ns();
  pass.stream = eval::run_stream(
      tech, input, csv, stream_options(options, spec, paths, cache.get()));
  pass.seconds = seconds_between(begin, now_ns());
  if (cache != nullptr) pass.cache = cache->stats();
  return pass;
}

/// Re-solve evenly spaced records directly (no cache, no service) and
/// check their rows and certificates.
void check_samples(const tech::Technology& tech, const RunOptions& options,
                   const StreamSpec& spec, const Paths& paths,
                   const std::vector<std::string>& lines, RunResult& result) {
  // Sample k sits at k/16 of the file plus k records, so a file written
  // target-major yields distinct nets as well as spread targets.
  constexpr std::uint64_t kSamples = 16;
  const std::uint64_t records = lines.size() - 1;
  const std::uint64_t step = records / kSamples;
  std::vector<std::pair<std::uint64_t, net::NetlistRecord>> picked;
  net::NetlistReader reader(paths.input);
  for (std::uint64_t i = 0; i < records && picked.size() < kSamples; ++i) {
    auto record = reader.next();
    RIP_REQUIRE(record.has_value(), "netlist shorter than its CSV");
    const std::uint64_t k = picked.size();
    if (i == k * step + k) picked.emplace_back(i, std::move(*record));
  }
  std::vector<std::string> problems(picked.size());
  std::vector<char> final_ran(picked.size(), 0);
  const eval::StreamOptions defaults;
  parallel_for_indexed(picked.size(), options.jobs, [&](std::size_t k) {
    const auto& [index, record] = picked[k];
    const auto rip =
        core::rip_insert(record.net, tech.device(), record.tau_t_fs);
    const auto dp = core::run_baseline(record.net, tech.device(),
                                       record.tau_t_fs, defaults.baseline);
    final_ran[k] = reached_stage3(rip);
    const std::string row = format_row(
        index, record.net.name(), case_result(record.tau_t_fs, rip, dp));
    if (row != lines[index + 1]) {
      problems[k] = "row " + std::to_string(index) + " is '" +
                    trim(lines[index + 1]) + "', direct solve gives '" +
                    trim(row) + "'";
    } else {
      problems[k] = certify_case(record.net, record.tau_t_fs, tech.device(),
                                 rip, dp);
    }
  });
  report_certificates(problems, result);
  if (spec.expect_stage3) {
    check_stage3(static_cast<std::size_t>(
                     std::count(final_ran.begin(), final_ran.end(), 1)),
                 picked.size(), result);
  }
}

void run_timed(const tech::Technology& tech, const RunOptions& options,
               const StreamSpec& spec, const Paths& paths,
               std::uint64_t records, const std::vector<double>& setup_s,
               RunResult& result) {
  std::optional<StreamPass> first;
  std::uint64_t first_hash = 0;
  const auto rates = run_timed_units(
      options.seconds,
      [&] {
        const StreamPass pass =
            run_pass(tech, options, spec, paths.input, paths.csv, paths);
        const std::uint64_t h = hash_file(paths.csv);
        if (pass.stream.rows_written != records) {
          result.fail("stream wrote " +
                      std::to_string(pass.stream.rows_written) + " of " +
                      std::to_string(records) + " rows");
        }
        if (!first) {
          first = pass;
          first_hash = h;
        } else if (h != first_hash ||
                   pass.cache.hits != first->cache.hits ||
                   pass.cache.misses != first->cache.misses ||
                   pass.stream.checkpoints_written !=
                       first->stream.checkpoints_written) {
          result.fail("a repeat pass changed the CSV or an exact count");
        }
        return UnitTiming{records, pass.seconds};
      },
      result.attempted);
  result.failed += first->stream.rows_quarantined;

  const auto lines = read_lines(paths.csv);
  if (lines.empty() || lines.front() != kHeader ||
      lines.size() != records + 1) {
    result.fail("CSV does not hold a header and one row per record");
  } else {
    check_samples(tech, options, spec, paths, lines, result);
  }
  result.hash("stream.csv", first_hash);
  result.count("stream.records", records);
  result.count("stream.checkpoints", first->stream.checkpoints_written);
  result.count("cache.hits", first->cache.hits);
  result.count("cache.misses", first->cache.misses);
  report_end_to_end(rates, setup_s, outcomes_of(lines), result);
}

/// The traced pass. One untraced eval::run_stream gives the reference
/// CSV; then the stream driver's loop runs here, over the same public
/// calls — NetlistReader::next, EvalService::submit_fn, rip_insert and
/// run_baseline on the worker, a reorder window of the same size — with
/// spans on the driver thread (read, submit, wait, row) and on the
/// workers. Its rows must hash to the reference CSV.
void run_traced(const tech::Technology& tech, const RunOptions& options,
                const StreamSpec& spec, const Paths& paths,
                std::uint64_t records, RunResult& result,
                LayerSamples& samples) {
  const StreamPass reference =
      run_pass(tech, options, spec, paths.input, paths.csv, paths);
  const std::uint64_t reference_hash = hash_file(paths.csv);
  samples.checkpoints = reference.stream.checkpoints_written;

  const auto cache = fresh_cache(spec);
  std::optional<CountingCache> counting;
  if (cache != nullptr) counting.emplace(*cache);
  dp::ChainSolveCache* cache_ptr = counting ? &*counting : nullptr;
  const eval::StreamOptions defaults;

  samples.rip.resize(records);
  samples.baseline.resize(records);
  std::vector<std::int64_t> offered(records, 0), started(records, 0);
  samples.run_us.assign(records, 0);
  std::vector<std::string> why(records);

  Tracer& tracer = Tracer::global();
  Fnv1a rows;
  rows.add(kHeader);
  std::uint64_t rows_done = 0;
  const std::int64_t wall_begin = now_ns();
  const std::uint32_t driver = tracer.thread_id();
  {
    eval::ServiceOptions so;
    so.jobs = options.jobs;
    so.max_pending = spec.max_pending;
    eval::EvalService service(tech, so);
    net::NetlistReader reader(paths.input);
    const std::size_t window_cap =
        std::max<std::size_t>(2 * spec.max_pending, 16);
    struct InFlight {
      std::uint64_t index;
      std::string name;
      std::future<eval::CaseResult> future;
    };
    std::deque<InFlight> window;
    bool eof = false;
    while (true) {
      while (!eof && window.size() < window_cap) {
        const std::uint64_t index = reader.index();
        std::optional<net::NetlistRecord> record;
        {
          ScopedSpan span("net.read", index);
          record = reader.next();
        }
        if (!record) {
          eof = true;
          break;
        }
        InFlight f;
        f.index = index;
        f.name = record->net.name();
        const auto net =
            std::make_shared<const net::Net>(std::move(record->net));
        const double tau = record->tau_t_fs;
        ScopedSpan span("eval.submit", index);
        offered[index] = now_ns();
        f.future = service.submit_fn([&, net, tau, index] {
          started[index] = now_ns();
          ScopedSpan run("eval.run", index);
          const auto rip = traced_rip(*net, tech.device(), tau, defaults.rip,
                                      cache_ptr, index, samples.rip[index]);
          const auto dp = traced_baseline(*net, tech.device(), tau,
                                          defaults.baseline, cache_ptr, index,
                                          samples.baseline[index]);
          why[index] = certify_case(*net, tau, tech.device(), rip, dp);
          samples.run_us[index] =
              static_cast<double>(now_ns() - started[index]) * 1e-3;
          return case_result(tau, rip, dp);
        });
        window.push_back(std::move(f));
      }
      if (window.empty()) break;
      InFlight front = std::move(window.front());
      window.pop_front();
      eval::CaseResult r;
      {
        ScopedSpan span("eval.wait", front.index);
        r = front.future.get();
      }
      ScopedSpan span("eval.stream.row", front.index);
      rows.add(format_row(front.index, front.name, r));
      ++rows_done;
    }
    const eval::ServiceStats stats = service.stats();
    if (stats.cases_evaluated != records) {
      result.fail("service evaluated " + std::to_string(stats.cases_evaluated) +
                  " of " + std::to_string(records) + " cases");
    }
  }
  const double wall = seconds_between(wall_begin, now_ns());

  samples.records = rows_done;
  samples.read_s = tracer.total_s("net.read", driver);
  const double submit_s = tracer.total_s("eval.submit", driver);
  const double wait_s = tracer.total_s("eval.wait", driver);
  const double row_s = tracer.total_s("eval.stream.row", driver);
  samples.stream_self_s = wall - samples.read_s - submit_s - wait_s;
  samples.coverage = (samples.read_s + submit_s + wait_s + row_s) / wall;
  samples.remainder = "stream driver loop outside the read, submit, wait "
                      "and row spans";
  samples.queue_us.resize(records);
  for (std::uint64_t i = 0; i < records; ++i) {
    samples.queue_us[i] = static_cast<double>(started[i] - offered[i]) * 1e-3;
  }
  if (cache != nullptr) samples.cache = cache->stats();
  result.attempted += rows_done;

  if (rows_done != records) result.fail("traced stream lost rows");
  if (rows.value() != reference_hash) {
    result.fail("traced rows differ from eval::run_stream's CSV");
  }
  report_certificates(why, result);
  result.hash("stream.csv", reference_hash);
}

RunResult run_stream_workload(const StreamSpec& spec,
                              const RunOptions& options) {
  const tech::Technology tech = tech::make_tech180();
  const Paths paths = paths_for(options, spec);
  RunResult result;
  result.set("format", spec.format == net::NetlistFormat::kBinary
                           ? "binary"
                           : "text");
  result.set("max_pending", std::to_string(spec.max_pending));
  result.set("cache", spec.cache ? "on" : "off");
  result.set("checkpoint_every", std::to_string(spec.checkpoint_every));

  // Set-up: write the input (and a short warm-up input), then stream
  // the warm-up once so the scheduler, workspaces and page cache are
  // warm before timing.
  std::vector<double> setup_s;
  std::uint64_t records = 0;
  double tau_min_s = 0;
  double write_s = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    tau_min_s = 0;
    const std::int64_t begin = now_ns();
    records = spec.write(paths.input, false, tau_min_s);
    write_s = seconds_between(begin, now_ns()) - tau_min_s;
    double unused = 0;
    spec.write(paths.warm_input, true, unused);
    run_pass(tech, options, spec, paths.warm_input, paths.warm_csv, paths);
    setup_s.push_back(seconds_between(begin, now_ns()));
  }
  result.set("records", std::to_string(records));

  if (!options.trace) {
    run_timed(tech, options, spec, paths, records, setup_s, result);
    return result;
  }
  LayerSamples samples;
  samples.tau_min_s = tau_min_s;
  samples.write_s = write_s;
  run_traced(tech, options, spec, paths, records, result, samples);
  if (spec.expect_stage3) {
    check_stage3(stage3_count(samples.rip), samples.rip.size(), result);
  }
  report_layers(samples, result);
  check_coverage(samples, result);
  return result;
}

}  // namespace

RunResult run_retarget_stream(const RunOptions& options) {
  constexpr int kNets = 48;
  constexpr int kTargets = 48;
  StreamSpec spec;
  spec.name = "retarget-stream";
  spec.format = net::NetlistFormat::kBinary;
  spec.max_pending = 16;  // reorder window 32 < kNets
  spec.cache = true;
  spec.expect_stage3 = true;
  const tech::Technology tech = tech::make_tech180();
  spec.write = [&](const std::string& path, bool warm, double& tau_min_s) {
    const std::int64_t begin = now_ns();
    const auto nets =
        warm ? eval::make_paper_workload(tech, 4, kWarmUpSeed)
             : retarget_nets(tech, options.seed, kNets);
    tau_min_s += seconds_between(begin, now_ns());
    return write_retarget_netlist(path, nets, warm ? 2 : kTargets,
                                  spec.format);
  };
  RunResult result = run_stream_workload(spec, options);
  result.set("nets", std::to_string(kNets));
  result.set("targets_per_net", std::to_string(kTargets));
  return result;
}

RunResult run_small_stream(const RunOptions& options) {
  constexpr std::uint64_t kNets = 20000;
  StreamSpec spec;
  spec.name = "small-stream";
  spec.format = net::NetlistFormat::kText;
  spec.max_pending = 8;
  spec.cache = false;
  spec.checkpoint_every = 5000;
  const tech::Technology tech = tech::make_tech180();
  spec.write = [&](const std::string& path, bool warm, double&) {
    return write_small_netlist(tech, path, warm ? 512 : kNets,
                               warm ? kWarmUpSeed : options.seed, spec.format);
  };
  RunResult result = run_stream_workload(spec, options);
  result.set("nets", std::to_string(kNets));
  return result;
}

}  // namespace ripbench

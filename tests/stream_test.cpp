// Integration battery for the streaming sweep driver (eval/stream.hpp):
//
//   - Round-trip property: random workloads written to disk (text AND
//     binary) and streamed through run_stream produce rows bit-identical
//     to the in-memory eval::run_case path — across all three objective
//     backends and jobs {1, 8}.
//   - Checkpoint/resume determinism: runs killed at randomized points
//     (stop_after, which skips the parting checkpoint exactly like a
//     real kill) and resumed — possibly killed again — must end with
//     output byte-for-byte identical to an uninterrupted run, including
//     with a shared (and sharded) solve cache attached.
//   - Backpressure: a tiny max_pending still completes and keeps the
//     row order.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dp/min_delay.hpp"
#include "eval/experiments.hpp"
#include "eval/solve_cache.hpp"
#include "eval/stream.hpp"
#include "eval/workload.hpp"
#include "net/generator.hpp"
#include "net/netlist_io.hpp"
#include "tech/objective.hpp"
#include "tech/technology.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

using namespace rip;

const tech::Technology& tech180() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "stream_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A deterministic workload of paper-shaped nets with stored targets
/// (factor * tau_min), so the stream's worker never has to derive one.
struct Workload {
  std::vector<net::Net> nets;
  std::vector<double> targets_fs;
};

Workload make_workload(int count, std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  net::RandomNetConfig config;
  for (int i = 0; i < count; ++i) {
    net::Net n = net::random_net(tech180(), config, rng,
                                 "net_" + std::to_string(i));
    const auto md = dp::min_delay(n, tech180().device(),
                                  {10.0, 400.0, 10.0, 200.0});
    w.targets_fs.push_back(rng.uniform(1.1, 1.9) * md.tau_min_fs);
    w.nets.push_back(std::move(n));
  }
  return w;
}

void write_workload(const Workload& w, const std::string& path,
                    net::NetlistFormat format) {
  net::NetlistWriter writer(path, format);
  for (std::size_t i = 0; i < w.nets.size(); ++i) {
    writer.add(w.nets[i], w.targets_fs[i]);
  }
  writer.close();
}

/// The documented row format of eval/stream.hpp, reproduced from the
/// in-memory CaseResult — the oracle the streamed CSV must match.
std::string expected_csv(const Workload& w,
                         const std::vector<eval::CaseResult>& results) {
  std::string csv = "idx,name,tau_t_ns,rip_u,dp_u,impr_pct\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    csv += std::to_string(i) + "," + w.nets[i].name() + "," +
           fmt_f(units::fs_to_ns(r.tau_t_fs), 3) + "," +
           (r.rip_feasible ? fmt_f(r.rip_width_u, 0) : "VIOL") + "," +
           (r.dp_feasible ? fmt_f(r.dp_width_u, 0) : "VIOL") + "," +
           (r.rip_feasible && r.dp_feasible ? fmt_f(r.improvement_pct, 2)
                                            : "-") +
           "\n";
  }
  return csv;
}

std::vector<eval::CaseResult> in_memory_results(
    const Workload& w, const tech::ObjectiveBackend* backend) {
  eval::SolveContext context;
  context.backend = backend;
  std::vector<eval::CaseResult> results;
  const auto baseline = core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  for (std::size_t i = 0; i < w.nets.size(); ++i) {
    results.push_back(eval::run_case(w.nets[i], tech180(), w.targets_fs[i],
                                     core::RipOptions{}, baseline, context));
  }
  return results;
}

// ------------------------------------------- round-trip vs in-memory

struct RoundTripCase {
  const char* backend;  ///< "" = the paper objective (nullptr backend)
  int jobs;
  net::NetlistFormat format;
};

/// The case's instantiation name, e.g. "paper_jobs1_text".
std::string case_name(const RoundTripCase& c) {
  return std::string(c.backend[0] ? c.backend : "paper") + "_jobs" +
         std::to_string(c.jobs) +
         (c.format == net::NetlistFormat::kText ? "_text" : "_binary");
}

// Prints a case as its name. gtest_discover_tests copies the printed
// parameter into every ctest name; gtest's default byte dump would
// start with the address of `backend`, which moves from build to build.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << case_name(c); }

class StreamRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(StreamRoundTripTest, MatchesInMemorySolvesBitIdentically) {
  const RoundTripCase param = GetParam();
  const Workload w = make_workload(6, 2005);
  const std::string tag =
      std::string(param.backend[0] ? param.backend : "paper") + "_j" +
      std::to_string(param.jobs) +
      (param.format == net::NetlistFormat::kText ? "_t" : "_b");
  const std::string input = temp_path(tag + ".rnl");
  const std::string output = temp_path(tag + ".csv");
  write_workload(w, input, param.format);

  std::unique_ptr<tech::ObjectiveBackend> backend;
  if (param.backend[0] != '\0') {
    backend = tech::make_backend(param.backend, tech180());
  }

  eval::StreamOptions options;
  options.jobs = param.jobs;
  options.max_pending = 4;
  options.context.backend = backend.get();
  const auto result = eval::run_stream(tech180(), input, output, options);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.rows_written, w.nets.size());
  EXPECT_EQ(result.rows_total, w.nets.size());

  EXPECT_EQ(slurp(output), expected_csv(w, in_memory_results(w, backend.get())));
  std::filesystem::remove(input);
  std::filesystem::remove(output);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsJobsFormats, StreamRoundTripTest,
    ::testing::Values(
        RoundTripCase{"", 1, net::NetlistFormat::kText},
        RoundTripCase{"", 8, net::NetlistFormat::kBinary},
        RoundTripCase{"activity", 1, net::NetlistFormat::kBinary},
        RoundTripCase{"activity", 8, net::NetlistFormat::kText},
        RoundTripCase{"lowswing", 1, net::NetlistFormat::kBinary},
        RoundTripCase{"lowswing", 8, net::NetlistFormat::kText}),
    [](const auto& info) { return case_name(info.param); });

// --------------------------------------- checkpoint/resume determinism

struct ResumeVariant {
  const char* name;
  int jobs;
  std::size_t max_pending;
  bool cache;
  std::size_t cache_shards;
};

// Prints a variant as its name, for the same reason as RoundTripCase.
void PrintTo(const ResumeVariant& v, std::ostream* os) { *os << v.name; }

class StreamResumeTest : public ::testing::TestWithParam<ResumeVariant> {};

TEST_P(StreamResumeTest, KilledAndResumedOutputIsByteIdentical) {
  const ResumeVariant variant = GetParam();
  const int kNetCount = 18;
  const Workload w = make_workload(kNetCount, 99);
  const std::string input = temp_path(std::string(variant.name) + ".rnlb");
  write_workload(w, input, net::NetlistFormat::kBinary);

  const auto make_options = [&](std::unique_ptr<eval::SolveCache>& cache) {
    eval::StreamOptions options;
    options.jobs = variant.jobs;
    options.max_pending = variant.max_pending;
    if (variant.cache) {
      eval::SolveCacheOptions cache_options;
      cache_options.capacity = 256;
      cache_options.shard_count = variant.cache_shards;
      cache = std::make_unique<eval::SolveCache>(cache_options);
      options.context.cache = cache.get();
    }
    return options;
  };

  // The golden: one uninterrupted run (checkpoints on — they must not
  // perturb the rows).
  const std::string golden_csv = temp_path(std::string(variant.name) + "_g.csv");
  const std::string golden_ckpt =
      temp_path(std::string(variant.name) + "_g.ckpt");
  {
    std::unique_ptr<eval::SolveCache> cache;
    auto options = make_options(cache);
    options.checkpoint_every = 5;
    options.checkpoint_path = golden_ckpt;
    const auto result = eval::run_stream(tech180(), input, golden_csv, options);
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.rows_total, static_cast<std::uint64_t>(kNetCount));
  }
  const std::string golden = slurp(golden_csv);

  // Kill/resume chains at randomized cut points: each chain runs with
  // stop_after until a run reports finished, then the bytes must match.
  Rng rng(1234);
  for (int chain = 0; chain < 3; ++chain) {
    const std::string csv = temp_path(std::string(variant.name) + "_c" +
                                      std::to_string(chain) + ".csv");
    const std::string ckpt = temp_path(std::string(variant.name) + "_c" +
                                       std::to_string(chain) + ".ckpt");
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".prev");
    bool finished = false;
    bool resume = false;
    int runs = 0;
    std::uint64_t total = 0;
    while (!finished) {
      ASSERT_LT(runs, 32) << "resume chain did not converge";
      std::unique_ptr<eval::SolveCache> cache;
      auto options = make_options(cache);
      options.checkpoint_every = 4;
      options.checkpoint_path = ckpt;
      options.resume = resume;
      // A kill point anywhere in the remaining work (often NOT on a
      // checkpoint boundary, so resume must truncate written rows).
      if (rng.bernoulli(0.8) && total < kNetCount) {
        options.stop_after = static_cast<std::uint64_t>(
            rng.uniform_int(1, kNetCount - static_cast<int>(total)));
      }
      const auto result = eval::run_stream(tech180(), input, csv, options);
      EXPECT_EQ(result.resumed_from, resume ? total : 0u);
      // resumed_from reflects the last CHECKPOINT, not rows written, so
      // recompute the durable row count from the result.
      total = result.finished
                  ? result.rows_total
                  : (result.rows_total / 4) * 4;  // last checkpoint cut
      finished = result.finished;
      resume = true;
      ++runs;
    }
    EXPECT_EQ(slurp(csv), golden)
        << variant.name << " chain " << chain << " diverged after " << runs
        << " runs";
    std::filesystem::remove(csv);
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".prev");
  }
  std::filesystem::remove(input);
  std::filesystem::remove(golden_csv);
  std::filesystem::remove(golden_ckpt);
  std::filesystem::remove(golden_ckpt + ".prev");
}

INSTANTIATE_TEST_SUITE_P(
    Variants, StreamResumeTest,
    ::testing::Values(ResumeVariant{"serial", 1, 4, false, 1},
                      ResumeVariant{"parallel", 8, 4, false, 1},
                      ResumeVariant{"cached", 8, 4, true, 1},
                      ResumeVariant{"cached_sharded", 8, 4, true, 8},
                      ResumeVariant{"tight_window", 8, 1, false, 1}),
    [](const auto& info) { return std::string(info.param.name); });

// --------------------------------- kill DURING the checkpoint write
//
// The stop_after chains above kill between checkpoints; these kill
// inside write_checkpoint itself, at each stage of the durability
// protocol — mid-temp-file (ckpt.write), between the .prev rotation
// and the rename (ckpt.rename), and right after the rename
// (ckpt.commit). Whatever torn state each crash leaves behind, an
// unfaulted resume must recover to byte-identical output.

/// RAII fault spec: the injector registry is process-global, so every
/// test that configures it must reset on the way out — including when
/// an assertion throws.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec, std::uint64_t seed = 0) {
    FaultInjector::configure(spec, seed);
  }
  ~FaultGuard() { FaultInjector::reset(); }
};

class StreamCheckpointCrashTest
    : public ::testing::TestWithParam<net::NetlistFormat> {};

TEST_P(StreamCheckpointCrashTest, CrashDuringCheckpointWriteResumesExactly) {
  const int kNetCount = 12;
  const Workload w = make_workload(kNetCount, 77);
  const std::string tag =
      GetParam() == net::NetlistFormat::kText ? "t" : "b";
  const std::string input = temp_path("ckptcrash_" + tag + ".rnl");
  write_workload(w, input, GetParam());

  const std::string golden_csv = temp_path("ckptcrash_" + tag + "_g.csv");
  {
    eval::StreamOptions options;
    options.jobs = 4;
    const auto result =
        eval::run_stream(tech180(), input, golden_csv, options);
    ASSERT_TRUE(result.finished);
  }
  const std::string golden = slurp(golden_csv);

  for (const std::string point : {"ckpt.write", "ckpt.rename", "ckpt.commit"}) {
    SCOPED_TRACE(point);
    const std::string csv =
        temp_path("ckptcrash_" + tag + "_" + point + ".csv");
    const std::string ckpt =
        temp_path("ckptcrash_" + tag + "_" + point + ".ckpt");
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".prev");

    const auto make_options = [&] {
      eval::StreamOptions options;
      options.jobs = 4;
      options.checkpoint_every = 4;
      options.checkpoint_path = ckpt;
      return options;
    };

    // Crash while writing the SECOND checkpoint of the run (keyed by
    // the per-run checkpoint ordinal, so the cut is schedule-free).
    {
      FaultGuard guard(point + ":crash@2");
      try {
        eval::run_stream(tech180(), input, csv, make_options());
        FAIL() << "injected crash did not propagate";
      } catch (const InjectedCrash&) {
        // Exactly like a kill: no recovery layer may have swallowed it.
      }
    }

    auto options = make_options();
    options.resume = true;
    const auto result = eval::run_stream(tech180(), input, csv, options);
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.rows_total, static_cast<std::uint64_t>(kNetCount));
    EXPECT_EQ(slurp(csv), golden) << "resume after a crash in " << point
                                  << " diverged from the golden run";

    std::filesystem::remove(csv);
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".prev");
    std::filesystem::remove(ckpt + ".tmp");
  }
  std::filesystem::remove(input);
  std::filesystem::remove(golden_csv);
}

INSTANTIATE_TEST_SUITE_P(BothFormats, StreamCheckpointCrashTest,
                         ::testing::Values(net::NetlistFormat::kText,
                                           net::NetlistFormat::kBinary),
                         [](const auto& info) {
                           return info.param == net::NetlistFormat::kText
                                      ? "text"
                                      : "binary";
                         });

// ------------------------------------------------------- guard rails

TEST(StreamGuards, BackpressureWindowStillCompletesInOrder) {
  const Workload w = make_workload(10, 7);
  const std::string input = temp_path("backpressure.rnlb");
  const std::string output = temp_path("backpressure.csv");
  write_workload(w, input, net::NetlistFormat::kBinary);

  eval::StreamOptions options;
  options.jobs = 4;
  options.max_pending = 1;  // window of 16, queue of 1: maximal stalls
  const auto result = eval::run_stream(tech180(), input, output, options);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.rows_written, 10u);
  EXPECT_EQ(slurp(output), expected_csv(w, in_memory_results(w, nullptr)));
  std::filesystem::remove(input);
  std::filesystem::remove(output);
}

TEST(StreamGuards, ResumeRejectsMismatchedInput) {
  const Workload w = make_workload(6, 11);
  const std::string input = temp_path("mismatch.rnlb");
  const std::string output = temp_path("mismatch.csv");
  const std::string ckpt = temp_path("mismatch.ckpt");
  write_workload(w, input, net::NetlistFormat::kBinary);

  eval::StreamOptions options;
  options.checkpoint_every = 2;
  options.checkpoint_path = ckpt;
  options.stop_after = 3;
  const auto partial = eval::run_stream(tech180(), input, output, options);
  EXPECT_FALSE(partial.finished);

  // Grow the input behind the checkpoint's back: resume must refuse.
  const Workload wider = make_workload(7, 11);
  write_workload(wider, input, net::NetlistFormat::kBinary);
  options.stop_after = 0;
  options.resume = true;
  EXPECT_THROW(eval::run_stream(tech180(), input, output, options), Error);

  std::filesystem::remove(input);
  std::filesystem::remove(output);
  std::filesystem::remove(ckpt);
}

// A checkpoint cut just before a damaged record resumes: the uninterrupted
// run quarantines the record and goes on, and a run stopped at that cut
// and resumed writes the same CSV and sidecar bytes. Record 1 of the text
// file lost its 'net' line.
TEST(StreamGuards, ResumesAtTheCutBeforeADamagedRecord) {
  const Workload w = make_workload(3, 7);
  const std::string input = temp_path("damaged.rnl");
  write_workload(w, input, net::NetlistFormat::kText);
  std::string text = slurp(input);
  const std::size_t second = text.find("\nnet ", text.find("\nnet ") + 1);
  ASSERT_NE(second, std::string::npos);
  text.erase(second + 1, text.find('\n', second + 1) - second);
  std::ofstream(input, std::ios::binary | std::ios::trunc) << text;

  const std::string golden_csv = temp_path("damaged_golden.csv");
  const std::string golden_errs = temp_path("damaged_golden_errors.csv");
  eval::StreamOptions golden;
  golden.errors_path = golden_errs;
  const auto straight = eval::run_stream(tech180(), input, golden_csv, golden);
  ASSERT_TRUE(straight.finished);
  ASSERT_EQ(straight.rows_quarantined, 1u);

  const std::string csv = temp_path("damaged.csv");
  const std::string errs = temp_path("damaged_errors.csv");
  const std::string ckpt = temp_path("damaged.ckpt");
  std::filesystem::remove(ckpt);
  eval::StreamOptions options;
  options.errors_path = errs;
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;
  options.stop_after = 1;
  ASSERT_FALSE(eval::run_stream(tech180(), input, csv, options).finished);
  options.stop_after = 0;
  options.resume = true;
  const auto resumed = eval::run_stream(tech180(), input, csv, options);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.resumed_from, 1u);
  EXPECT_EQ(slurp(csv), slurp(golden_csv));
  EXPECT_EQ(slurp(errs), slurp(golden_errs));
  for (const auto& path : {input, golden_csv, golden_errs, csv, errs, ckpt,
                           ckpt + ".prev"}) {
    std::filesystem::remove(path);
  }
}

// What resume tells the user names no source location: a damaged
// checkpoint (and its .prev) is reported as unusable and the stream
// restarts from record 0, and an output shorter than the checkpoint says
// is a plain error.
TEST(StreamGuards, ResumeMessagesNameNoSourceLocation) {
  const Workload w = make_workload(4, 23);
  const std::string input = temp_path("messages.rnlb");
  write_workload(w, input, net::NetlistFormat::kBinary);
  const std::string golden_csv = temp_path("messages_golden.csv");
  ASSERT_TRUE(eval::run_stream(tech180(), input, golden_csv, {}).finished);

  const std::string csv = temp_path("messages.csv");
  const std::string ckpt = temp_path("messages.ckpt");
  std::filesystem::remove(ckpt);
  eval::StreamOptions options;
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;
  options.stop_after = 3;
  ASSERT_FALSE(eval::run_stream(tech180(), input, csv, options).finished);
  const auto expect_plain = [](const std::string& message) {
    EXPECT_EQ(message.find("precondition failed"), std::string::npos)
        << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
  };

  // Too short an output: a plain error.
  const std::string saved = slurp(csv);
  std::filesystem::resize_file(csv, 10);
  options.stop_after = 0;
  options.resume = true;
  try {
    eval::run_stream(tech180(), input, csv, options);
    ADD_FAILURE() << "resumed onto an output shorter than the checkpoint";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("is shorter than the checkpoint"),
              std::string::npos)
        << e.what();
    expect_plain(e.what());
  }

  // Both checkpoints damaged: reported as unusable, restart from 0.
  std::ofstream(csv, std::ios::binary | std::ios::trunc) << saved;
  for (const std::string& path : {ckpt, ckpt + ".prev"}) {
    std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty()) << path;
    bytes[bytes.find("next_index ") + 11] ^= 1;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }
  ::testing::internal::CaptureStderr();
  const auto restarted = eval::run_stream(tech180(), input, csv, options);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(restarted.finished);
  EXPECT_EQ(restarted.resumed_from, 0u);
  EXPECT_NE(err.find("ignoring unusable checkpoint"), std::string::npos)
      << err;
  EXPECT_NE(err.find("checkpoint CRC mismatch"), std::string::npos) << err;
  expect_plain(err);
  EXPECT_EQ(slurp(csv), slurp(golden_csv));
  for (const auto& path : {input, golden_csv, csv, ckpt, ckpt + ".prev"}) {
    std::filesystem::remove(path);
  }
}

TEST(StreamGuards, CheckpointEveryRequiresPath) {
  eval::StreamOptions options;
  options.checkpoint_every = 5;
  EXPECT_THROW(eval::run_stream(tech180(), "in.rnl", "out.csv", options),
               Error);
}

TEST(StreamGuards, MissingTargetIsDerivedInWorker) {
  // One record with tau == 0: the worker derives default_target_x *
  // tau_min; the row must match an in-memory solve at that target.
  Workload w = make_workload(1, 3);
  const std::string input = temp_path("derived.rnl");
  const std::string output = temp_path("derived.csv");
  {
    net::NetlistWriter writer(input, net::NetlistFormat::kText);
    writer.add(w.nets[0], 0.0);
    writer.close();
  }
  eval::StreamOptions options;
  options.default_target_x = 1.4;
  const auto result = eval::run_stream(tech180(), input, output, options);
  EXPECT_TRUE(result.finished);
  const auto md = dp::min_delay(w.nets[0], tech180().device());
  w.targets_fs[0] = 1.4 * md.tau_min_fs;
  EXPECT_EQ(slurp(output), expected_csv(w, in_memory_results(w, nullptr)));
  std::filesystem::remove(input);
  std::filesystem::remove(output);
}

TEST(StreamGuards, DerivedTargetIsTheStoredPaperTarget) {
  // A record without a target and the same net stored at 1.5 x its
  // make_paper_workload tau_min (the grid gen --store-target-x and the
  // table runners use) must be one target and so one row.
  const auto nets = eval::make_paper_workload(tech180(), 3, 2005);
  const std::string derived_in = temp_path("grid_derived.rnl");
  const std::string stored_in = temp_path("grid_stored.rnl");
  {
    net::NetlistWriter derived(derived_in, net::NetlistFormat::kText);
    net::NetlistWriter stored(stored_in, net::NetlistFormat::kText);
    for (const auto& wn : nets) {
      derived.add(wn.net, 0.0);
      stored.add(wn.net, 1.5 * wn.tau_min_fs);
    }
    derived.close();
    stored.close();
  }
  eval::StreamOptions options;
  options.default_target_x = 1.5;
  const std::string derived_csv = temp_path("grid_derived.csv");
  const std::string stored_csv = temp_path("grid_stored.csv");
  ASSERT_TRUE(
      eval::run_stream(tech180(), derived_in, derived_csv, options).finished);
  ASSERT_TRUE(
      eval::run_stream(tech180(), stored_in, stored_csv, options).finished);
  EXPECT_EQ(slurp(derived_csv), slurp(stored_csv));
  for (const auto& path : {derived_in, stored_in, derived_csv, stored_csv}) {
    std::filesystem::remove(path);
  }
}

TEST(StreamGuards, OversizedRecordIsQuarantinedAtAnyJobCount) {
  // Record 1 passes the reader (every value finite and positive) but is
  // 10^15 um long: 5e12 candidate positions, more than a DP label's
  // int16 repeater count can index. Its solve fails with a typed error,
  // so quarantine loses that record alone.
  const Workload w = make_workload(3, 17);
  const std::string golden_in = temp_path("oversized_golden.rnl");
  const std::string golden_csv = temp_path("oversized_golden.csv");
  write_workload(w, golden_in, net::NetlistFormat::kText);
  const eval::StreamOptions unfaulted;
  ASSERT_TRUE(
      eval::run_stream(tech180(), golden_in, golden_csv, unfaulted).finished);
  std::string survivors;
  {
    std::istringstream golden(slurp(golden_csv));
    for (std::string line; std::getline(golden, line);) {
      if (!starts_with(line, "1,")) survivors += line + "\n";
    }
  }

  Workload faulted = w;
  faulted.nets[1] =
      net::Net("huge", 100.0, 50.0, {net::Segment{1e15, 0.1, 0.2, "metal4"}});
  const std::string input = temp_path("oversized.rnl");
  write_workload(faulted, input, net::NetlistFormat::kText);
  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const std::string csv = temp_path("oversized.csv");
    const std::string errs = temp_path("oversized_errors.csv");
    eval::StreamOptions options;
    options.jobs = jobs;
    options.errors_path = errs;
    const auto result = eval::run_stream(tech180(), input, csv, options);
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.rows_written, 2u);
    EXPECT_EQ(result.rows_quarantined, 1u);
    EXPECT_EQ(slurp(csv), survivors);

    std::istringstream sidecar(slurp(errs));
    std::string line;
    ASSERT_TRUE(std::getline(sidecar, line));
    EXPECT_EQ(line, "idx,name,class,detail");
    ASSERT_TRUE(std::getline(sidecar, line));
    EXPECT_TRUE(starts_with(line, "1,huge,solve,")) << line;
    EXPECT_NE(line.find("(limit 32767)"), std::string::npos) << line;
    EXPECT_FALSE(std::getline(sidecar, line)) << "extra row: " << line;
    std::filesystem::remove(csv);
    std::filesystem::remove(errs);
  }
  for (const auto& path : {golden_in, golden_csv, input}) {
    std::filesystem::remove(path);
  }
}

}  // namespace

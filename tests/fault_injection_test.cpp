// Fault-injection battery: drives every registered fault point through
// every policy layer and pins the recovery contracts of the hardened
// pipeline.
//
//   - Spec grammar: triggers (@N keyed, p= deterministic, every-hit),
//     actions (err / fail / crash / duration), and the one uniform
//     rejection message for malformed specs.
//   - Exception taxonomy: 'err' is transient (retryable), 'fail' is a
//     permanent rip::Error, 'crash' is NOT a rip::Error so no recovery
//     layer can swallow it.
//   - Service policies: transient retry to success, retry exhaustion,
//     permanent failures never retried, per-case deadlines settling a
//     future without poisoning the batch.
//   - Stream quarantine: a seeded run with an I/O fault, a permanent
//     solve fault, a retry-exhausted transient fault, and a latency
//     spike past the deadline — at jobs 1 AND 8 — survives with its
//     main CSV byte-identical to the unfaulted golden run minus the
//     quarantined rows, and the sidecar carrying exactly those rows.
//   - Checkpoint integrity: a corrupt or torn `ripckpt 2` file, or one
//     in the retired version-1 layout, degrades to `.prev`, and both
//     unusable degrades to a clean restart — every path ending
//     byte-identical to the golden run.
//   - SolveCache hardening: byte-budget eviction and injected insert
//     faults degrading to an un-stored (but still usable) frontier.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dp/min_delay.hpp"
#include "eval/service.hpp"
#include "eval/solve_cache.hpp"
#include "eval/stream.hpp"
#include "eval/workload.hpp"
#include "net/generator.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"
#include "util/crc32.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace rip;

/// RAII fault spec: the injector registry is process-global, so every
/// test that configures it must reset on the way out — including when
/// an assertion throws.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec, std::uint64_t seed = 0) {
    FaultInjector::configure(spec, seed);
  }
  ~FaultGuard() { FaultInjector::reset(); }
};

const tech::Technology& tech180() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fault_injection_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Deterministic workload with stored targets, mirroring the streaming
/// tests' shape.
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

void write_workload(const Workload& w, const std::string& path) {
  net::NetlistWriter writer(path, net::NetlistFormat::kBinary);
  for (std::size_t i = 0; i < w.nets.size(); ++i) {
    writer.add(w.nets[i], w.targets_fs[i]);
  }
  writer.close();
}

/// The golden CSV minus the rows whose idx is in `drop` — what a
/// quarantining run must emit for the surviving records.
std::string drop_rows(const std::string& csv, const std::set<int>& drop) {
  std::istringstream is(csv);
  std::string line, out;
  bool header = true;
  while (std::getline(is, line)) {
    if (!header) {
      const auto comma = line.find(',');
      if (drop.count(std::stoi(line.substr(0, comma))) > 0) continue;
    }
    header = false;
    out += line + "\n";
  }
  return out;
}

// ----------------------------------------------------------- the grammar

TEST(FaultSpec, MalformedSpecsAreRejectedWithOneMessageShape) {
  const auto expect_bad = [](const std::string& spec,
                             const std::string& why) {
    SCOPED_TRACE(spec);
    try {
      FaultInjector::configure(spec);
      FaultInjector::reset();
      FAIL() << "spec was not rejected: " << spec;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad fault spec entry"), std::string::npos) << what;
      EXPECT_NE(what.find("expected point:action[@trigger]"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
    EXPECT_FALSE(FaultInjector::enabled())
        << "a rejected spec must not leave injection enabled";
  };

  expect_bad("noaction", "missing 'point:' prefix");
  expect_bad(":err", "missing 'point:' prefix");
  expect_bad("p:zap", "unknown action 'zap'");
  expect_bad("p:50", "unknown action '50'");      // digits without a unit
  expect_bad("p:10xs", "unknown action '10xs'");  // bogus duration suffix
  expect_bad("p:err@x", "trigger must be a non-negative integer");
  expect_bad("p:err@-1", "trigger must be a non-negative integer");
  expect_bad("p:err@p=2", "probability must be a number in [0,1]");
  expect_bad("p:err@p=", "probability must be a number in [0,1]");
  expect_bad("p:err@p=abc", "probability must be a number in [0,1]");
}

TEST(FaultSpec, EmptySpecAndResetDisableInjection) {
  FaultInjector::configure("t:err");
  EXPECT_TRUE(FaultInjector::enabled());
  FaultInjector::configure("");
  EXPECT_FALSE(FaultInjector::enabled());
  FaultInjector::configure("t:err;;");  // empty entries are skipped
  EXPECT_TRUE(FaultInjector::enabled());
  FaultInjector::reset();
  EXPECT_FALSE(FaultInjector::enabled());
}

TEST(FaultInjector, DisabledInjectionIsANoOp) {
  FaultInjector::reset();
  ASSERT_FALSE(FaultInjector::enabled());
  fire_fault("any.point");                        // must not throw
  EXPECT_FALSE(fire_fault_soft("any.point"));
  // Disabled hits never reach the registry: no counters accrue.
  EXPECT_TRUE(FaultInjector::stats().empty());
}

// ------------------------------------------------------------- triggers

TEST(FaultInjector, KeyedTriggerFiresExactlyAtItsKey) {
  FaultGuard guard("test.point:err@3");
  for (const std::uint64_t key : {0, 1, 2, 4, 100}) {
    fire_fault("test.point", key);  // must not throw
  }
  EXPECT_THROW(fire_fault("test.point", 3), InjectedFault);
  // Keyed, not one-shot: the same key fires again (a retried record
  // keeps faulting, which is what the retry-exhaustion tests rely on).
  EXPECT_THROW(fire_fault("test.point", 3), InjectedFault);

  const auto stats = FaultInjector::stats();
  EXPECT_EQ(stats.at("test.point").hits, 7u);
  EXPECT_EQ(stats.at("test.point").fired, 2u);
}

TEST(FaultInjector, AutoKeyFallsBackToThePerPointArrivalCounter) {
  FaultGuard guard("test.arrival:err@2");
  fire_fault("test.arrival");                          // arrival 0
  fire_fault("test.arrival");                          // arrival 1
  EXPECT_THROW(fire_fault("test.arrival"), InjectedFault);  // arrival 2
  fire_fault("test.arrival");                          // arrival 3
  // A different point keeps its own counter.
  fire_fault("test.other");
  fire_fault("test.other");
  fire_fault("test.other");
}

TEST(FaultInjector, ProbabilityIsDeterministicInSeedPointAndKey) {
  constexpr std::uint64_t kKeys = 64;
  const auto fire_pattern = [](std::uint64_t seed) {
    FaultGuard guard("test.prob:err@p=0.5", seed);
    std::vector<bool> fired;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      bool f = false;
      try {
        fire_fault("test.prob", k);
      } catch (const InjectedFault&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };

  const auto first = fire_pattern(42);
  EXPECT_EQ(fire_pattern(42), first);  // same triple -> same decision

  // Roughly half fire (the draw is a real hash, not all-or-nothing)...
  const auto fired_count = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired_count, 16);
  EXPECT_LT(fired_count, 48);
  // ...and a different seed reshuffles the set.
  EXPECT_NE(fire_pattern(43), first);
}

TEST(FaultInjector, UntriggeredEntryFiresOnEveryHit) {
  FaultGuard guard("test.always:fail");
  EXPECT_THROW(fire_fault("test.always"), InjectedFailure);
  EXPECT_THROW(fire_fault("test.always", 17), InjectedFailure);
  EXPECT_TRUE(fire_fault_soft("test.always"));   // soft: reported, not thrown
  EXPECT_FALSE(fire_fault_soft("test.never"));   // other points untouched
}

// ----------------------------------------------------- action taxonomy

TEST(FaultInjector, ErrIsTransientAndRetryable) {
  FaultGuard guard("t:err");
  try {
    fire_fault("t");
    FAIL() << "'err' did not throw";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "injected transient fault at fault point 't'"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjector, FailIsAPermanentErrorNotATransientOne) {
  FaultGuard guard("t:fail");
  try {
    fire_fault("t");
    FAIL() << "'fail' did not throw";
  } catch (const TransientError&) {
    FAIL() << "'fail' must not be transient (a retry layer would re-run it)";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjector, CrashIsNotARipErrorSoNoRecoveryLayerSwallowsIt) {
  FaultGuard guard("t:crash");
  try {
    fire_fault("t");
    FAIL() << "'crash' did not throw";
  } catch (const Error&) {
    FAIL() << "'crash' must not be a rip::Error";
  } catch (const InjectedCrash& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "injected crash at fault point 't'"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjector, DurationActionSleepsAtLeastThatLong) {
  FaultGuard guard("t:20ms");
  const auto t0 = std::chrono::steady_clock::now();
  fire_fault("t");  // a latency spike, not an error
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
}

// ------------------------------------------------- service: retry policy

TEST(ServiceRetry, TransientFaultIsRetriedToSuccess) {
  // Arrival-counter trigger @0: only the FIRST attempt faults.
  FaultGuard guard("test.flaky:err@0");
  eval::ServiceOptions options;
  options.retry.max_attempts = 3;
  options.retry.base = std::chrono::milliseconds(0);
  eval::EvalService service(tech180(), options);
  auto future = service.submit_fn([] {
    fire_fault("test.flaky");
    eval::CaseResult r;
    r.rip_width_u = 7.0;
    return r;
  });
  EXPECT_EQ(future.get().rip_width_u, 7.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.cases_evaluated, 1u);  // all attempts count as one case
}

TEST(ServiceRetry, ExhaustedRetriesSurfaceTheTransientError) {
  FaultGuard guard("test.dead:err");  // every attempt faults
  eval::ServiceOptions options;
  options.retry.max_attempts = 3;
  options.retry.base = std::chrono::milliseconds(0);
  eval::EvalService service(tech180(), options);
  auto future = service.submit_fn([]() -> eval::CaseResult {
    fire_fault("test.dead");
    return {};
  });
  EXPECT_THROW(future.get(), TransientError);
  const auto stats = service.stats();
  EXPECT_EQ(stats.retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(stats.cases_evaluated, 1u);
  EXPECT_EQ(FaultInjector::stats().at("test.dead").fired, 3u);
}

TEST(ServiceRetry, PermanentFailureIsNeverRetried) {
  FaultGuard guard("test.perm:fail");
  eval::ServiceOptions options;
  options.retry.max_attempts = 5;
  options.retry.base = std::chrono::milliseconds(0);
  eval::EvalService service(tech180(), options);
  auto future = service.submit_fn([]() -> eval::CaseResult {
    fire_fault("test.perm");
    return {};
  });
  EXPECT_THROW(future.get(), InjectedFailure);
  EXPECT_EQ(service.stats().retries, 0u);
  EXPECT_EQ(FaultInjector::stats().at("test.perm").fired, 1u);
}

TEST(ServiceRetry, MaxAttemptsBelowOneIsRejected) {
  eval::ServiceOptions options;
  options.retry.max_attempts = 0;
  EXPECT_THROW(eval::EvalService(tech180(), options), Error);
}

TEST(ServiceRetry, BackoffStopsDoublingAtTheCap) {
  // The sleeps are computed, never slept, so the extremes (--retry 70,
  // the largest --retry-base-ms) run under UBSan in no time.
  using std::chrono::milliseconds;
  constexpr int cap = eval::RetryPolicy::kMaxDoublings;
  for (const std::int64_t base : {std::int64_t{1}, std::int64_t{2147483647}}) {
    eval::RetryPolicy retry;
    retry.base = milliseconds(base);
    EXPECT_EQ(retry.delay_after(1), milliseconds(base));
    EXPECT_EQ(retry.delay_after(2), milliseconds(base * 2));
    EXPECT_EQ(retry.delay_after(cap), milliseconds(base << (cap - 1)));
    EXPECT_EQ(retry.delay_after(cap + 1), milliseconds(base << cap));
    EXPECT_EQ(retry.delay_after(cap + 2), milliseconds(base << cap));
    EXPECT_EQ(retry.delay_after(70), milliseconds(base << cap));
  }
}

TEST(ServiceRetry, BaseTooLongToDoubleIsRejected) {
  eval::ServiceOptions options;
  options.retry.base = std::chrono::milliseconds::max();
  EXPECT_THROW(eval::EvalService(tech180(), options), Error);
}

// ---------------------------------------------- service: case deadlines

TEST(ServiceDeadline, BlownBudgetSettlesTheFutureWithoutPoisoningTheBatch) {
  // An injected latency spike on batch slot 0 (keyed, so the same case
  // faults at any job count) pushes the only deadlined case over its
  // budget; its sibling completes untouched, and the deadline is NOT
  // retried even though retries are enabled.
  FaultGuard guard("solve.delay:50ms@0");
  const auto workload = eval::make_paper_workload(tech180(), 2, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  const double deadline_ms[] = {1.0, 0.0};

  eval::ServiceOptions options;
  options.jobs = 2;
  options.retry.max_attempts = 3;
  options.retry.base = std::chrono::milliseconds(0);
  eval::EvalService service(tech180(), options);
  std::vector<std::future<eval::CaseResult>> futures;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    // Like a stream record: slot i is the fault key, and each attempt
    // starts a fresh deadline.
    futures.push_back(service.submit_fn([&, i] {
      eval::SolveContext context;
      context.fault_key = i;
      const Deadline deadline(deadline_ms[i]);
      if (deadline.active()) context.deadline = &deadline;
      return eval::run_case(workload[i].net, tech180(),
                            1.5 * workload[i].tau_min_fs, {}, baseline,
                            context);
    }));
  }
  for (auto& future : futures) future.wait();
  EXPECT_EQ(service.stats().cases_evaluated, 2u);

  try {
    futures[0].get();
    FAIL() << "the deadlined case did not fail";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("case deadline of"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(futures[1].get());
  EXPECT_EQ(service.stats().retries, 0u);
}

// ------------------------------------------------- stream: quarantine

TEST(StreamQuarantine, SurvivorsAreByteIdenticalToTheGoldenRunMinusTheSidecar) {
  constexpr int kNetCount = 12;
  const Workload w = make_workload(kNetCount, 2005);
  const std::string input = temp_path("quarantine.rnlb");
  write_workload(w, input);

  // The unfaulted golden run.
  const std::string golden_csv = temp_path("quarantine_golden.csv");
  {
    eval::StreamOptions options;
    options.jobs = 4;
    const auto result =
        eval::run_stream(tech180(), input, golden_csv, options);
    ASSERT_TRUE(result.finished);
    ASSERT_EQ(result.rows_total, static_cast<std::uint64_t>(kNetCount));
  }
  const std::string golden = slurp(golden_csv);
  const std::set<int> quarantined = {3, 5, 7, 9};
  const std::string survivors = drop_rows(golden, quarantined);

  // One fault of each class, keyed by record index so the quarantined
  // set is identical at every job count: an I/O read fault (record 3),
  // a permanent solve failure (5), a transient solve fault that
  // exhausts its retries (7), and a latency spike past the deadline (9).
  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    FaultGuard guard(
        "netlist.read:err@3;solve.err:fail@5;solve.err:err@7;"
        "solve.delay:1500ms@9");
    const std::string csv =
        temp_path("quarantine_j" + std::to_string(jobs) + ".csv");
    const std::string errs =
        temp_path("quarantine_j" + std::to_string(jobs) + "_errors.csv");

    eval::StreamOptions options;
    options.jobs = jobs;
    options.errors_path = errs;
    options.deadline_ms = 1000;  // generous: only the injected spike blows it
    options.retry.max_attempts = 2;
    options.retry.base = std::chrono::milliseconds(0);
    const auto result = eval::run_stream(tech180(), input, csv, options);

    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.rows_quarantined, quarantined.size());
    EXPECT_EQ(result.quarantined_total, quarantined.size());
    EXPECT_EQ(result.rows_written, kNetCount - quarantined.size());
    EXPECT_EQ(result.rows_total, static_cast<std::uint64_t>(kNetCount));

    // The partition property: surviving rows byte-identical to the
    // golden run minus exactly the quarantined indices.
    EXPECT_EQ(slurp(csv), survivors);

    // The sidecar holds one classified row per quarantined record, in
    // input order.
    std::istringstream sidecar(slurp(errs));
    std::string line;
    ASSERT_TRUE(std::getline(sidecar, line));
    EXPECT_EQ(line, "idx,name,class,detail");
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"3", "io"}, {"5", "solve"}, {"7", "solve"}, {"9", "deadline"}};
    for (const auto& [idx, error_class] : expected) {
      ASSERT_TRUE(std::getline(sidecar, line)) << "missing sidecar row";
      const auto fields = split_on(line, ',');
      ASSERT_GE(fields.size(), 4u) << line;
      EXPECT_EQ(fields[0], idx) << line;
      EXPECT_EQ(fields[2], error_class) << line;
      EXPECT_FALSE(fields[3].empty()) << line;
    }
    EXPECT_FALSE(std::getline(sidecar, line)) << "unexpected extra row: "
                                              << line;

    std::filesystem::remove(csv);
    std::filesystem::remove(errs);
  }

  // Without an errors_path the very same faults are fatal: quarantine
  // is an explicit opt-in, not a behavior change.
  {
    FaultGuard guard("solve.err:fail@5");
    eval::StreamOptions options;
    options.jobs = 1;
    const std::string csv = temp_path("quarantine_failfast.csv");
    EXPECT_THROW(eval::run_stream(tech180(), input, csv, options), Error);
    std::filesystem::remove(csv);
  }

  std::filesystem::remove(input);
  std::filesystem::remove(golden_csv);
}

// ------------------------------------------- checkpoint integrity ladder

TEST(CheckpointIntegrity, DegradesToPrevThenToCleanRestart) {
  constexpr int kNetCount = 12;
  const Workload w = make_workload(kNetCount, 33);
  const std::string input = temp_path("integrity.rnlb");
  write_workload(w, input);

  const std::string golden_csv = temp_path("integrity_golden.csv");
  {
    eval::StreamOptions options;
    options.jobs = 2;
    const auto result =
        eval::run_stream(tech180(), input, golden_csv, options);
    ASSERT_TRUE(result.finished);
  }
  const std::string golden = slurp(golden_csv);

  // A partial run that wrote checkpoints at records 4 (now rotated to
  // .prev) and 8 (current), plus one uncheckpointed row — the state a
  // kill leaves behind.
  const std::string csv = temp_path("integrity.csv");
  const std::string ckpt = temp_path("integrity.ckpt");
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".prev");
  const auto make_options = [&] {
    eval::StreamOptions options;
    options.jobs = 2;
    options.checkpoint_every = 4;
    options.checkpoint_path = ckpt;
    return options;
  };
  {
    auto options = make_options();
    options.stop_after = 9;
    const auto partial = eval::run_stream(tech180(), input, csv, options);
    ASSERT_FALSE(partial.finished);
    ASSERT_EQ(partial.rows_written, 9u);
    ASSERT_EQ(partial.checkpoints_written, 2u);
  }
  const std::string ckpt_bytes = slurp(ckpt);
  const std::string prev_bytes = slurp(ckpt + ".prev");
  const std::string partial_csv = slurp(csv);

  // Pin the v2 on-disk format: magic, sidecar fields, and a CRC-32
  // trailer that actually verifies over every preceding byte.
  ASSERT_EQ(ckpt_bytes.rfind("ripckpt 2\n", 0), 0u);
  EXPECT_NE(ckpt_bytes.find("\nerrors_bytes 0\n"), std::string::npos);
  EXPECT_NE(ckpt_bytes.find("\nquarantined 0\n"), std::string::npos);
  const std::size_t crc_pos = ckpt_bytes.rfind("crc32 ");
  ASSERT_NE(crc_pos, std::string::npos);
  EXPECT_EQ(trim(ckpt_bytes.substr(crc_pos + 6)).size(), 8u);
  {
    char expected[9];
    std::snprintf(expected, sizeof(expected), "%08x",
                  crc32(ckpt_bytes.data(), crc_pos));
    EXPECT_EQ(trim(ckpt_bytes.substr(crc_pos + 6)), expected);
  }

  const auto restore = [&] {
    write_file(csv, partial_csv);
    write_file(ckpt, ckpt_bytes);
    write_file(ckpt + ".prev", prev_bytes);
  };
  const auto corrupt = [](std::string bytes) {
    bytes[bytes.size() / 2] ^= 0x01;
    return bytes;
  };
  const auto resume = [&] {
    auto options = make_options();
    options.resume = true;
    return eval::run_stream(tech180(), input, csv, options);
  };

  // A bit flip in the current checkpoint: resume degrades to .prev.
  restore();
  write_file(ckpt, corrupt(ckpt_bytes));
  auto result = resume();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.resumed_from, 4u);
  EXPECT_EQ(slurp(csv), golden);

  // A torn current checkpoint (cut mid-payload): same degradation.
  restore();
  write_file(ckpt, ckpt_bytes.substr(0, ckpt_bytes.size() / 2));
  result = resume();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.resumed_from, 4u);
  EXPECT_EQ(slurp(csv), golden);

  // Both unusable: a clean restart rather than trusting torn state.
  restore();
  write_file(ckpt, corrupt(ckpt_bytes));
  write_file(ckpt + ".prev", corrupt(prev_bytes));
  result = resume();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.resumed_from, 0u);
  EXPECT_EQ(result.rows_total, static_cast<std::uint64_t>(kNetCount));
  EXPECT_EQ(slurp(csv), golden);

  // A checkpoint in the retired version-1 layout (version digit 1, no
  // CRC, no sidecar fields) is unusable like a corrupt one: resume
  // degrades to .prev.
  restore();
  {
    std::istringstream lines(ckpt_bytes);
    std::string line, v1;
    while (std::getline(lines, line)) {
      if (line == "ripckpt 2") {
        line.back() = '1';
        v1 += line + "\n";
      } else if (line.rfind("errors_bytes", 0) == 0 ||
                 line.rfind("quarantined", 0) == 0 ||
                 line.rfind("crc32", 0) == 0) {
        continue;
      } else {
        v1 += line + "\n";
      }
    }
    write_file(ckpt, v1);
  }
  result = resume();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.resumed_from, 4u);
  EXPECT_EQ(slurp(csv), golden);

  std::filesystem::remove(input);
  std::filesystem::remove(golden_csv);
  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".prev");
}

// ------------------------------------------------- solve cache hardening

/// Minimal one-label frontier with a recognizable marker.
dp::ChainFrontierSolve tiny_solve(double marker) {
  dp::ChainFrontierSolve s;
  s.q_fs = {marker};
  s.width_u = {0.0};
  s.count = {0};
  s.node = {-1};
  return s;
}

TEST(SolveCacheBudget, ByteBudgetEvictsLruButKeepsTheNewestEntry) {
  eval::SolveCacheOptions options;
  options.capacity = 1024;
  options.shard_count = 1;
  options.max_bytes = 1;  // absurdly small: every insert overflows it
  eval::SolveCache cache(options);

  cache.insert(1, tiny_solve(1.0));
  // A shard always keeps its newest entry: one oversized frontier must
  // not wedge the cache into storing nothing.
  EXPECT_NE(cache.lookup(1), nullptr);

  cache.insert(2, tiny_solve(2.0));
  EXPECT_EQ(cache.lookup(1), nullptr);  // evicted by the byte budget
  EXPECT_NE(cache.lookup(2), nullptr);

  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.evictions, 0u);
}

TEST(SolveCacheFaults, InjectedInsertFaultDropsTheStoreNotTheCaller) {
  FaultGuard guard("cache.insert:err");
  eval::SolveCache cache({16, 1});
  const auto returned = cache.insert(9, tiny_solve(5.0));
  ASSERT_NE(returned, nullptr);  // the caller still gets its frontier...
  EXPECT_EQ(returned->q_fs[0], 5.0);
  EXPECT_EQ(cache.lookup(9), nullptr);  // ...but nothing was stored

  const auto s = cache.stats();
  EXPECT_EQ(s.insert_failures, 1u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.entries, 0u);
}

}  // namespace

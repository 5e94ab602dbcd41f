#pragma once

// Shared pieces of the benchmark harness: run options, the result
// record every workload fills, the in-memory span recorder used by
// traced runs, solution certificates, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace ripbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2005;
  double seconds = 30;
  bool trace = false;
  int jobs = 4;
  /// Directory for generated netlists, CSVs, checkpoints and traces.
  std::string out_dir;
};

/// Everything one run reports. `metrics` become the contract's metric
/// map; `counts` are the exact counts and output hashes two runs of the
/// same code and seed must reproduce bit for bit.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> counts;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> problems;  ///< failed output checks
  std::vector<std::string> notes;     ///< warnings that do not fail the run

  void fail(const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit);
  void count(const std::string& name, std::uint64_t value);
  void hash(const std::string& name, std::uint64_t value);
  void set(const std::string& key, const std::string& value);

  /// One JSON object with every field above.
  std::string to_json() const;
};

/// Solver outcomes of the timed phase, for the quality metrics.
struct Outcomes {
  std::uint64_t cases = 0;         ///< (net, target) cases
  std::uint64_t rip_feasible = 0;  ///< cases where RIP met its target
  /// Comparisons where RIP and the DP baseline were both feasible and
  /// the DP used repeaters, and the sum of W_RIP / W_DP over them.
  std::uint64_t compared = 0;
  double power_ratio_sum = 0;
};

/// One timed unit of work: cases completed and the time they took.
struct UnitTiming {
  std::uint64_t cases = 0;
  double seconds = 0;
};

/// The timed phase: run `unit` until `budget_s` has elapsed — at least
/// once, and never starting a unit the previous one predicts would end
/// past 1.25x the budget. Each unit runs the same inputs. Returns the
/// case rate of every unit and adds their cases to `attempted`.
std::vector<double> run_timed_units(double budget_s,
                                    const std::function<UnitTiming()>& unit,
                                    std::uint64_t& attempted);

/// Add the end-to-end metrics: the median case rate over timed units,
/// the median set-up time, peak RSS, and the quality and completion
/// shares of `outcomes`.
void report_end_to_end(const std::vector<double>& unit_cases_per_s,
                       const std::vector<double>& setup_s,
                       const Outcomes& outcomes, RunResult& result);

// ------------------------------------------------------------ timing

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

// ------------------------------------------------------------ tracing

/// One recorded span. `parent` indexes the enclosing span of the same
/// thread (-1 = top level); `key` ties the spans of one case together.
struct Span {
  const char* name = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t key = 0;
};

/// In-memory span recorder. Each thread appends to its own buffer (the
/// only lock is taken once per thread, on its first span), and the
/// buffers are read after every recording thread has been joined or
/// synchronized with. One process records at most one trace.
class Tracer {
 public:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };

  static Tracer& global();

  /// Open a span on the calling thread; returns its handle for close().
  std::int32_t open(const char* name, std::uint64_t key);
  void close(std::int32_t handle);
  /// Record a finished span under the calling thread's open span.
  void add(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
           std::uint64_t key);

  /// Sum of durations [s] of spans named `name` recorded by `thread`.
  double total_s(const std::string& name, std::uint32_t thread) const;
  /// Thread id of the calling thread's buffer.
  std::uint32_t thread_id();
  /// Call fn(thread, span) for every recorded span.
  void for_each(
      const std::function<void(std::uint32_t, const Span&)>& fn) const;

  /// Write every span as one JSON line: name, thread, key, parent,
  /// begin/end in ns relative to the earliest span.
  void write_jsonl(const std::string& path) const;

 private:
  Buffer& local();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t key)
      : handle_(Tracer::global().open(name, key)) {}
  ~ScopedSpan() { Tracer::global().close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t handle_;
};

// ------------------------------------------------------------ checks

/// Certificate of one emitted solution, computed without the DP's
/// arithmetic: the Elmore delay re-evaluated by rc::elmore_delay_fs
/// must meet the target, every repeater must be zone-legal, and the
/// reported width must equal the sum of the repeater widths. Returns an
/// empty string when the solution passes, else the reason.
std::string certify(const rip::net::Net& net,
                    const rip::net::RepeaterSolution& solution,
                    double reported_width_u, double tau_t_fs,
                    const rip::tech::RepeaterDevice& device);

/// Fail the run if any certificate failed (`why[i]` non-empty), naming
/// how many and the first.
void report_certificates(const std::vector<std::string>& why,
                         RunResult& result);

/// 64-bit FNV-1a, streamed.
class Fnv1a {
 public:
  void add(const void* data, std::size_t size);
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a of a whole file's bytes.
std::uint64_t hash_file(const std::string& path);

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);
/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Process peak resident set [MiB].
double peak_rss_mib();

}  // namespace ripbench

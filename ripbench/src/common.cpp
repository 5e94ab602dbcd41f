#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "rc/buffered_chain.hpp"
#include "util/error.hpp"

namespace ripbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double ("%.17g").
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields[i].first) + ": " + json_string(fields[i].second);
  }
  return out + "}";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items[i]);
  }
  return out + "]";
}

}  // namespace

// ------------------------------------------------------------ RunResult

void RunResult::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void RunResult::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void RunResult::count(const std::string& name, std::uint64_t value) {
  counts.emplace_back(name, std::to_string(value));
}

void RunResult::hash(const std::string& name, std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  counts.emplace_back(name, buf);
}

void RunResult::set(const std::string& key, const std::string& value) {
  config.emplace_back(key, value);
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}, \"counts\": " + json_object(counts);
  out += ", \"config\": " + json_object(config);
  out += ", \"problems\": " + json_list(problems);
  out += ", \"notes\": " + json_list(notes);
  return out + "}";
}

std::vector<double> run_timed_units(double budget_s,
                                    const std::function<UnitTiming()>& unit,
                                    std::uint64_t& attempted) {
  std::vector<double> rates;
  const std::int64_t start = now_ns();
  double last_s = 0;
  while (true) {
    const double elapsed = seconds_between(start, now_ns());
    if (!rates.empty() &&
        (elapsed >= budget_s || elapsed + last_s > 1.25 * budget_s)) {
      break;
    }
    const std::int64_t begin = now_ns();
    const UnitTiming t = unit();
    last_s = seconds_between(begin, now_ns());
    attempted += t.cases;
    rates.push_back(static_cast<double>(t.cases) / t.seconds);
  }
  return rates;
}

void report_end_to_end(const std::vector<double>& unit_cases_per_s,
                       const std::vector<double>& setup_s,
                       const Outcomes& outcomes, RunResult& result) {
  result.metric("cases_per_s", median(unit_cases_per_s), "1/s");
  result.metric("setup_s", median(setup_s), "s");
  result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  result.metric("rip_power_ratio",
                outcomes.compared == 0
                    ? 1.0
                    : outcomes.power_ratio_sum /
                          static_cast<double>(outcomes.compared),
                "ratio");
  const auto cases = static_cast<double>(std::max<std::uint64_t>(1, outcomes.cases));
  result.metric("rip_feasible_frac",
                static_cast<double>(outcomes.rip_feasible) / cases, "ratio");
  result.metric("completed_frac",
                static_cast<double>(result.attempted - result.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
                "ratio");
  std::string rates;
  for (const double r : unit_cases_per_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.2f", rates.empty() ? "" : ",", r);
    rates += buf;
  }
  result.set("unit_cases_per_s", rates);
  result.count("outcome.cases", outcomes.cases);
  result.count("outcome.rip_feasible", outcomes.rip_feasible);
  result.count("outcome.compared", outcomes.compared);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f",
                outcomes.compared == 0
                    ? 0.0
                    : 100.0 * (1.0 - outcomes.power_ratio_sum /
                                         static_cast<double>(outcomes.compared)));
  result.set("power_saving_pct", buf);
}

// ------------------------------------------------------------ Tracer

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer->spans.reserve(1 << 12);
  }
  return *buffer;
}

std::uint32_t Tracer::thread_id() { return local().thread; }

std::int32_t Tracer::open(const char* name, std::uint64_t key) {
  Buffer& b = local();
  Span s;
  s.name = name;
  s.begin_ns = now_ns();
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.key = key;
  b.spans.push_back(s);
  const auto handle = static_cast<std::int32_t>(b.spans.size() - 1);
  b.open.push_back(handle);
  return handle;
}

void Tracer::close(std::int32_t handle) {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end_ns = now_ns();
  RIP_ASSERT(!b.open.empty() && b.open.back() == handle,
             "spans must close in LIFO order");
  b.open.pop_back();
}

void Tracer::add(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
                 std::uint64_t key) {
  Buffer& b = local();
  Span s;
  s.name = name;
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.key = key;
  b.spans.push_back(s);
}

double Tracer::total_s(const std::string& name, std::uint32_t thread) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0;
  for (const auto& s : buffers_.at(thread)->spans) {
    if (name == s.name) total += seconds_between(s.begin_ns, s.end_ns);
  }
  return total;
}

void Tracer::for_each(
    const std::function<void(std::uint32_t, const Span&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans) fn(b->thread, s);
  }
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t origin = INT64_MAX;
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans) origin = std::min(origin, s.begin_ns);
  }
  std::ofstream out(path);
  RIP_REQUIRE(out.good(), "cannot write trace file " + path);
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans) {
      out << "{\"name\": \"" << s.name << "\", \"thread\": " << b->thread
          << ", \"key\": " << s.key << ", \"parent\": " << s.parent
          << ", \"begin_ns\": " << (s.begin_ns - origin)
          << ", \"end_ns\": " << (s.end_ns - origin) << "}\n";
    }
  }
}

// ------------------------------------------------------------ checks

std::string certify(const rip::net::Net& net,
                    const rip::net::RepeaterSolution& solution,
                    double reported_width_u, double tau_t_fs,
                    const rip::tech::RepeaterDevice& device) {
  if (!solution.legal_for(net)) return "repeater inside a forbidden zone";
  const double delay = rip::rc::elmore_delay_fs(net, solution, device);
  if (!(delay <= tau_t_fs * (1 + 1e-9) + 1e-6)) {
    return "Elmore delay " + std::to_string(delay) + " fs exceeds target " +
           std::to_string(tau_t_fs) + " fs";
  }
  double sum = 0;
  for (const auto& r : solution.repeaters()) sum += r.width_u;
  if (std::abs(sum - reported_width_u) > 1e-9 * std::max(1.0, sum)) {
    return "reported width " + std::to_string(reported_width_u) +
           " != sum of widths " + std::to_string(sum);
  }
  return {};
}

void report_certificates(const std::vector<std::string>& why,
                         RunResult& result) {
  std::size_t bad = 0;
  const std::string* first = nullptr;
  for (const auto& w : why) {
    if (w.empty()) continue;
    if (bad++ == 0) first = &w;
  }
  if (bad > 0) {
    result.fail("certificate: " + std::to_string(bad) +
                " solutions failed; first: " + *first);
  }
}

void Fnv1a::add(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(&bits, sizeof(bits));
}

std::uint64_t hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RIP_REQUIRE(in.good(), "cannot read " + path);
  Fnv1a h;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h.add(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return h.value();
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mib() {
  // VmHWM belongs to this process image alone. getrusage's ru_maxrss
  // would also carry the peak of the process that exec'd this one (the
  // Python wrapper run.py), which can exceed the benchmark's own.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw rip::Error("VmHWM missing from /proc/self/status");
}

}  // namespace ripbench

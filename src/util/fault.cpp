#include "util/fault.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace rip {
namespace {

enum class FaultAction { kErr, kFail, kCrash, kDelay };
enum class TriggerKind { kAlways, kAtKey, kProbability };

struct FaultRule {
  std::string point;
  FaultAction action = FaultAction::kErr;
  std::chrono::nanoseconds delay{0};
  TriggerKind trigger = TriggerKind::kAlways;
  std::uint64_t at = 0;
  double probability = 0.0;
};

struct PointState {
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<FaultRule> rules;
  std::map<std::string, PointState> points;
  std::uint64_t seed = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform draw in [0, 1) from (seed, point, key): the
/// same triple always fires (or not) regardless of thread schedule.
double hash_unit(std::uint64_t seed, const char* point, std::uint64_t key) {
  std::uint64_t h = splitmix64(seed);
  for (const char* p = point; *p != '\0'; ++p) {
    h = splitmix64(h ^ static_cast<unsigned char>(*p));
  }
  h = splitmix64(h ^ key);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[noreturn]] void bad_spec(const std::string& entry, const std::string& why) {
  throw Error("bad fault spec entry '" + entry + "': " + why +
              " (expected point:action[@trigger], e.g. netlist.read:err@17)");
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::uint64_t parse_u64_or(const std::string& entry, const std::string& s,
                           const std::string& what) {
  if (!all_digits(s)) bad_spec(entry, what + " must be a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) {
    bad_spec(entry, what + " out of range");
  }
  return static_cast<std::uint64_t>(v);
}

/// Parse '50ms' / '200us' / '3s' / '750ns'; returns false if `s` is not
/// a duration at all (so the caller can reject it as an unknown action).
/// A duration past nanoseconds::max() is refused, not wrapped.
bool parse_duration(const std::string& entry, const std::string& s,
                    std::chrono::nanoseconds* out) {
  std::size_t digits = 0;
  while (digits < s.size() && s[digits] >= '0' && s[digits] <= '9') ++digits;
  if (digits == 0) return false;
  const std::string suffix = s.substr(digits);
  std::uint64_t scale = 0;
  if (suffix == "ns") {
    scale = 1;
  } else if (suffix == "us") {
    scale = 1000;
  } else if (suffix == "ms") {
    scale = 1000 * 1000;
  } else if (suffix == "s") {
    scale = 1000ull * 1000 * 1000;
  } else {
    return false;
  }
  const std::uint64_t value =
      parse_u64_or(entry, s.substr(0, digits), "duration");
  const auto max_ns =
      static_cast<std::uint64_t>(std::chrono::nanoseconds::max().count());
  if (value > max_ns / scale) bad_spec(entry, "duration out of range");
  *out = std::chrono::nanoseconds(static_cast<std::int64_t>(value * scale));
  return true;
}

FaultRule parse_entry(const std::string& entry) {
  FaultRule rule;
  const std::size_t colon = entry.find(':');
  if (colon == std::string::npos || colon == 0) {
    bad_spec(entry, "missing 'point:' prefix");
  }
  rule.point = entry.substr(0, colon);

  std::string action = entry.substr(colon + 1);
  const std::size_t at = action.find('@');
  std::string trigger;
  if (at != std::string::npos) {
    trigger = action.substr(at + 1);
    action = action.substr(0, at);
  }

  if (action == "err") {
    rule.action = FaultAction::kErr;
  } else if (action == "fail") {
    rule.action = FaultAction::kFail;
  } else if (action == "crash") {
    rule.action = FaultAction::kCrash;
  } else if (parse_duration(entry, action, &rule.delay)) {
    rule.action = FaultAction::kDelay;
  } else {
    bad_spec(entry, "unknown action '" + action +
                        "' (expected err, fail, crash, or a duration "
                        "like 50ms)");
  }

  if (at == std::string::npos) {
    rule.trigger = TriggerKind::kAlways;
  } else if (trigger.rfind("p=", 0) == 0) {
    const std::string prob = trigger.substr(2);
    errno = 0;
    char* end = nullptr;
    const double p = std::strtod(prob.c_str(), &end);
    if (prob.empty() || end != prob.c_str() + prob.size() ||
        errno == ERANGE || !(p >= 0.0 && p <= 1.0)) {
      bad_spec(entry, "probability must be a number in [0,1]");
    }
    rule.trigger = TriggerKind::kProbability;
    rule.probability = p;
  } else {
    rule.trigger = TriggerKind::kAtKey;
    rule.at = parse_u64_or(entry, trigger, "trigger");
  }
  return rule;
}

std::vector<FaultRule> parse_spec(const std::string& spec) {
  std::vector<FaultRule> rules;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    if (!entry.empty()) rules.push_back(parse_entry(entry));
    start = end + 1;
  }
  return rules;
}

// Env pickup at load time: any binary that links a fault point gets
// RIP_FAULTS honored without CLI plumbing. A malformed spec fails the
// process immediately — injection is an explicit opt-in, and silently
// ignoring a typo'd spec would un-test the very paths it targets.
const bool g_env_config = [] {
  try {
    FaultInjector::configure_from_env();
  } catch (const Error& e) {
    std::fprintf(stderr, "rip: %s\n", e.what());
    std::_Exit(2);
  }
  return true;
}();

}  // namespace

namespace detail {

std::atomic<bool> g_faults_enabled{false};

void fire_fault_slow(const char* point, std::uint64_t key, bool soft,
                     bool* out_fired) {
  // Collect matched actions under the lock, run them after releasing it
  // (delays must not serialize other points; throws must not poison the
  // registry mutex).
  std::vector<std::pair<FaultAction, std::chrono::nanoseconds>> matched;
  std::uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(registry().mutex);
    seed = registry().seed;
    PointState& state = registry().points[point];
    const std::uint64_t arrival = state.hits++;
    const std::uint64_t effective_key = (key == kFaultAutoKey) ? arrival : key;
    for (const FaultRule& rule : registry().rules) {
      if (rule.point != point) continue;
      bool match = false;
      switch (rule.trigger) {
        case TriggerKind::kAlways:
          match = true;
          break;
        case TriggerKind::kAtKey:
          match = (effective_key == rule.at);
          break;
        case TriggerKind::kProbability:
          match = hash_unit(seed, point, effective_key) < rule.probability;
          break;
      }
      if (match) {
        ++state.fired;
        matched.emplace_back(rule.action, rule.delay);
      }
    }
  }
  for (const auto& [action, delay] : matched) {
    switch (action) {
      case FaultAction::kDelay:
        std::this_thread::sleep_for(delay);
        break;
      case FaultAction::kCrash:
        throw InjectedCrash(std::string("injected crash at fault point '") +
                            point + "'");
      case FaultAction::kErr:
        if (soft) {
          if (out_fired != nullptr) *out_fired = true;
          break;
        }
        throw InjectedFault(
            std::string("injected transient fault at fault point '") + point +
            "'");
      case FaultAction::kFail:
        if (soft) {
          if (out_fired != nullptr) *out_fired = true;
          break;
        }
        throw InjectedFailure(std::string("injected failure at fault point '") +
                              point + "'");
    }
  }
}

}  // namespace detail

void FaultInjector::configure(const std::string& spec, std::uint64_t seed) {
  std::vector<FaultRule> rules = parse_spec(spec);  // may throw; no state yet
  std::lock_guard<std::mutex> lock(registry().mutex);
  registry().rules = std::move(rules);
  registry().points.clear();
  registry().seed = seed;
  detail::g_faults_enabled.store(!registry().rules.empty(),
                                 std::memory_order_relaxed);
}

void FaultInjector::configure_from_env() {
  const char* spec = std::getenv("RIP_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return;
  std::uint64_t seed = 0;
  if (const char* seed_env = std::getenv("RIP_FAULTS_SEED")) {
    const std::string s(seed_env);
    seed = parse_u64_or("RIP_FAULTS_SEED=" + s, s, "seed");
  }
  configure(spec, seed);
}

void FaultInjector::reset() { configure("", 0); }

bool FaultInjector::enabled() {
  return detail::g_faults_enabled.load(std::memory_order_relaxed);
}

std::map<std::string, FaultPointStats> FaultInjector::stats() {
  std::map<std::string, FaultPointStats> out;
  std::lock_guard<std::mutex> lock(registry().mutex);
  for (const auto& [name, state] : registry().points) {
    out[name] = FaultPointStats{state.hits, state.fired};
  }
  return out;
}

}  // namespace rip

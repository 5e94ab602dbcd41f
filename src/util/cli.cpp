#include "util/cli.hpp"

#include <cstdint>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rip {

CliArgs CliArgs::parse(int argc, const char* const* argv,
                       const std::set<std::string>& boolean_flags) {
  CliArgs args;
  int i = 1;  // skip program name
  // Leading positional = subcommand.
  if (i < argc && argv[i][0] != '-') {
    args.command_ = argv[i];
    ++i;
  }
  // Malformed lines are user input errors: plain usage messages, never
  // precondition failures.
  for (; i < argc; ++i) {
    const std::string token = argv[i];
    if (!starts_with(token, "--")) {
      throw Error("unexpected positional argument '" + token + "'");
    }
    const std::string name = token.substr(2);
    if (name.empty()) throw Error("empty option name '--'");
    if (boolean_flags.count(name) > 0) {
      args.flags_.insert(name);
      continue;
    }
    if (i + 1 >= argc) throw Error("option --" + name + " needs a value");
    args.options_[name] = argv[++i];
  }
  return args;
}

bool CliArgs::has(const std::string& name) const {
  touched_.insert(name);
  return flags_.count(name) > 0 || options_.count(name) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  touched_.insert(name);
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double CliArgs::get_double_or(const std::string& name,
                              double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parse_double(*v, "--" + name);
}

int CliArgs::get_int_or(const std::string& name, int fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parse_int(*v, "--" + name);
}

std::string CliArgs::require(const std::string& name) const {
  const auto v = get(name);
  if (!v) throw Error("missing required option --" + name);
  return *v;
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    (void)value;
    if (touched_.count(name) == 0) out.push_back(name);
  }
  for (const auto& name : flags_) {
    if (touched_.count(name) == 0) out.push_back(name);
  }
  return out;
}

int parallel_jobs(const CliArgs& args, int fallback) {
  const int jobs = args.get_int_or("jobs", fallback);
  if (jobs < 0) throw Error("--jobs must be >= 0 (0 = all hardware threads)");
  return resolve_jobs(jobs);
}

ShardSpec shard_option(const CliArgs& args) {
  const auto value = args.get("shard");
  if (!value) return {};
  // Strict digits-only parse with one uniform message shape, so every
  // malformed spec — negative values, I >= N, trailing garbage ("0/2x"),
  // signs, spaces — fails the same way:
  // "--shard expects I/N with integers 0 <= I < N ...: <why>".
  const auto fail = [&](const std::string& why) {
    throw Error("--shard expects I/N with integers 0 <= I < N (e.g. "
                "--shard 0/2): " + why + " in '" + *value + "'");
  };
  const auto parse_field = [&](const std::string& text,
                               const char* which) -> int {
    if (text.empty()) fail(std::string("empty ") + which);
    long parsed = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') {
        // One message covers signs, spaces, and trailing garbage alike.
        fail(std::string("non-digit character in ") + which);
      }
      parsed = parsed * 10 + (c - '0');
      if (parsed > std::numeric_limits<int>::max()) {
        fail(std::string(which) + std::string(" out of range"));
      }
    }
    return static_cast<int>(parsed);
  };
  const auto slash = value->find('/');
  if (slash == std::string::npos) fail("missing '/'");
  ShardSpec spec;
  spec.index = parse_field(value->substr(0, slash), "index");
  spec.count = parse_field(value->substr(slash + 1), "count");
  if (spec.count < 1) fail("count must be >= 1");
  if (spec.index >= spec.count) fail("index must be < count");
  return spec;
}

std::vector<std::size_t> shard_case_indices(std::size_t case_count,
                                            int shard_index,
                                            int shard_count) {
  RIP_REQUIRE(shard_count >= 1, "shard count must be >= 1");
  RIP_REQUIRE(shard_index >= 0 && shard_index < shard_count,
              "shard index out of range");
  std::vector<std::size_t> indices;
  const auto step = static_cast<std::size_t>(shard_count);
  for (std::size_t i = static_cast<std::size_t>(shard_index);
       i < case_count; i += step) {
    indices.push_back(i);
  }
  return indices;
}

std::uint64_t count_option(const CliArgs& args, const std::string& name,
                           std::uint64_t fallback,
                           std::uint64_t min_value) {
  const auto value = args.get(name);
  if (!value) return fallback;
  // Same strict digits-only discipline and message shape as
  // shard_option: "--every -5", "--max-pending 0", "--stop-after 3x"
  // all fail loudly and uniformly instead of silently truncating.
  const auto fail = [&](const std::string& why) {
    throw Error("--" + name + " expects an integer >= " +
                std::to_string(min_value) + " (e.g. --" + name + " " +
                std::to_string(min_value > 0 ? min_value : 1) + "): " + why +
                " in '" + *value + "'");
  };
  if (value->empty()) fail("empty value");
  std::uint64_t parsed = 0;
  for (const char c : *value) {
    if (c < '0' || c > '9') fail("non-digit character");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (parsed > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      fail("value out of range");
    }
    parsed = parsed * 10 + digit;
  }
  if (parsed < min_value) {
    fail("value must be >= " + std::to_string(min_value));
  }
  return parsed;
}

}  // namespace rip

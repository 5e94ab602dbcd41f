// Unit tests for the util module: RNG, statistics, the tridiagonal
// solver, strings, tables, deadlines, the fault-spec parser.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/solver.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

namespace rip {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(units::ns_to_fs(1.0), 1e6);
  EXPECT_DOUBLE_EQ(units::fs_to_ns(units::ns_to_fs(3.25)), 3.25);
  EXPECT_DOUBLE_EQ(units::ps_to_fs(1.0), 1e3);
  EXPECT_DOUBLE_EQ(units::fs_to_ps(units::ps_to_fs(0.5)), 0.5);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child stream should not replay the parent stream.
  Rng b(5);
  b.next_u64();  // parent consumed one draw to split
  EXPECT_NE(child.next_u64(), b.next_u64());
}

TEST(Rng, InvalidBoundsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.max(), Error);
}

TEST(RunningStats, SingleValueHasZeroStddev) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Percentile, EmptyAndBadQThrow) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, -0.1), Error);
  EXPECT_THROW(percentile({1.0}, 1.1), Error);
}

// ---------------------------------------------------- tridiagonal solve

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4 8 8] -> x = [1 2 3]
  const auto x = solve_tridiagonal({0, 1, 1}, {2, 2, 2}, {1, 1, 0},
                                   {4, 8, 8});
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiagonal, SingleElement) {
  const auto x = solve_tridiagonal({0}, {4}, {0}, {8});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiagonal, RejectsSizeMismatchAndEmpty) {
  EXPECT_THROW(solve_tridiagonal({}, {}, {}, {}), Error);
  EXPECT_THROW(solve_tridiagonal({0}, {1, 2}, {0}, {1}), Error);
}

TEST(Tridiagonal, RejectsSingular) {
  EXPECT_THROW(solve_tridiagonal({0, 0}, {0, 1}, {0, 0}, {1, 1}), Error);
}

// -------------------------------------------------------------- strings

TEST(Strings, FmtF) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_f(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_f(2.0, 0), "2");
}

TEST(Strings, FmtUnit) {
  EXPECT_EQ(fmt_unit(1.5, 2, "ns"), "1.50 ns");
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  std::vector<std::string_view> tokens;
  split_ws("  a  bb\tccc ", tokens);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("ripnet 1", "ripnet"));
  EXPECT_FALSE(starts_with("rip", "ripnet"));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "t"), 2.5);
  EXPECT_THROW(parse_double("abc", "t"), Error);
  EXPECT_THROW(parse_double("1.5x", "t"), Error);
}

// The number grammar: std::from_chars' general format plus a leading
// '+'. Subnormals parse exactly; hex floats and surrounding whitespace,
// which strtod took, are refused.
TEST(Strings, ParseDoubleGrammar) {
  const auto outcome = [](const char* text) -> std::string {
    try {
      return "parsed " + std::to_string(parse_double(text, "t"));
    } catch (const Error& e) {
      return e.what();
    }
  };
  EXPECT_EQ(parse_double("+2.5", "t"), 2.5);
  EXPECT_EQ(parse_double("5e-324", "t"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(outcome("1e999"), "number out of range: '1e999' (t)");
  EXPECT_EQ(outcome("1e-400"), "number out of range: '1e-400' (t)");
  EXPECT_EQ(outcome("0x1p3"), "expected a number, got '0x1p3' (t)");
  EXPECT_EQ(outcome(" 1.5"), "expected a number, got ' 1.5' (t)");
  EXPECT_EQ(outcome("\t1.5"), "expected a number, got '\t1.5' (t)");
  EXPECT_EQ(outcome("1.5 "), "expected a number, got '1.5 ' (t)");
  EXPECT_EQ(outcome("+-1"), "expected a number, got '+-1' (t)");
  EXPECT_EQ(outcome("+"), "expected a number, got '+' (t)");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42", "t"), 42);
  EXPECT_THROW(parse_int("4.2", "t"), Error);
  EXPECT_THROW(parse_int("", "t"), Error);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"xxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a      long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxxx  1"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, RejectsBadRows) {
  Table t({"x", "y"});
  EXPECT_THROW(t.add_row({"only_one"}), Error);
  EXPECT_THROW(Table({}), Error);
}

// ---------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(t.seconds(), 0.0);
  const double first = t.millis();
  EXPECT_GE(t.millis(), first);  // monotone
  t.reset();
  EXPECT_LT(t.millis(), first + 1000.0);
}

// ------------------------------------------------------------- deadline

// A budget the steady clock cannot reach is a deadline that never comes,
// not one that overflows into the past and expires at once.
TEST(Deadline, BudgetPastTheClockRangeNeverExpires) {
  for (const double budget_ms :
       {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    const Deadline deadline(budget_ms);
    EXPECT_TRUE(deadline.active()) << budget_ms;
    EXPECT_FALSE(deadline.expired()) << budget_ms;
    EXPECT_NO_THROW(deadline.check("test")) << budget_ms;
  }
  EXPECT_FALSE(Deadline(1e12).expired());
  EXPECT_FALSE(Deadline(0.0).active());
}

// ----------------------------------------------------------- fault spec

// A delay past nanoseconds::max() is refused, naming its entry, instead
// of wrapping into a short one; the largest delay in range is accepted.
TEST(FaultSpec, DurationPastTheClockRangeIsRefused) {
  for (const std::string spec :
       {"p:9300000000s@0", "p:9223372037s", "p:9223372036855ms",
        "p:9223372036854776us", "p:9223372036854775808ns",
        "p:18446744073709551615us"}) {
    try {
      FaultInjector::configure(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad fault spec entry '" + spec + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("duration out of range"), std::string::npos)
          << what;
    }
    EXPECT_FALSE(FaultInjector::enabled()) << spec;
  }
  for (const std::string spec :
       {"p:9223372036s", "p:9223372036854ms", "p:9223372036854775us",
        "p:9223372036854775807ns"}) {
    EXPECT_NO_THROW(FaultInjector::configure(spec)) << spec;
    EXPECT_TRUE(FaultInjector::enabled()) << spec;
  }
  FaultInjector::reset();
}

/// One mutant of a fault spec: one to three byte flips, truncations,
/// splices of a piece of some seed, inserted grammar tokens, or digit
/// runs swapped for huge or malformed numbers.
std::string mutate_spec(std::string spec,
                        const std::vector<std::string>& seeds, Rng& rng) {
  static const std::string kNumbers[] = {
      "0", "18446744073709551615", "18446744073709551616",
      "9223372036854775807", "9223372036854775808", "9300000000",
      "99999999999999999999999", "1e999", "-1", "0.5", "nan"};
  static const std::string kTokens[] = {";", ":", "@", "p=", "ns", "us",
                                        "ms", "s",  "err", "fail", "crash"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  const int mutations = rng.uniform_int(1, 3);
  for (int m = 0; m < mutations; ++m) {
    const std::size_t at = pick(spec.size() + 1);
    switch (rng.uniform_int(0, 4)) {
      case 0:  // byte flip
        if (!spec.empty()) {
          const std::size_t i = pick(spec.size());
          spec[i] = static_cast<char>(spec[i] ^ (1 + pick(255)));
        }
        break;
      case 1:  // truncation
        spec.resize(at);
        break;
      case 2: {  // splice in a piece of a seed
        const std::string& from = seeds[pick(seeds.size())];
        const std::size_t begin = pick(from.size());
        spec.insert(at, from.substr(begin, pick(from.size() - begin + 1)));
        break;
      }
      case 3:  // a grammar token
        spec.insert(at, kTokens[pick(std::size(kTokens))]);
        break;
      default: {  // a digit run swapped for a huge or malformed number
        const std::string& number = kNumbers[pick(std::size(kNumbers))];
        std::size_t begin = spec.find_first_of("0123456789", at);
        if (begin == std::string::npos) begin = spec.find_first_of("0123456789");
        if (begin == std::string::npos) {
          spec.insert(at, number);
          break;
        }
        std::size_t end = spec.find_first_not_of("0123456789.", begin);
        if (end == std::string::npos) end = spec.size();
        spec.replace(begin, end - begin, number);
        break;
      }
    }
  }
  return spec;
}

/// The fault points' counters, comparable.
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> point_counts() {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [point, stats] : FaultInjector::stats()) {
    out[point] = {stats.hits, stats.fired};
  }
  return out;
}

// Seeded fuzzer for FaultInjector::configure. Each case first installs a
// known configuration: every other case a disabled one, else one `err`
// rule on a probe point, hit once through fire_fault_soft so that the
// counters are not empty (the probe's one rule is `err`, so no injected
// delay ever runs, and no mutant is ever fired). Then it configures a
// mutant of a valid spec:
//  - only rip::Error may escape, in the parser's one message shape, and
//    no message may name a source location;
//  - a refused spec leaves the previous configuration in force:
//    enabled() and stats() unchanged;
//  - an accepted spec enables injection iff it holds an entry, with
//    fresh counters.
TEST(FaultSpecFuzz, MutatedSpecsKeepTheConfigureContract) {
  const std::vector<std::string> seeds = {
      "netlist.read:err@3;solve.delay:1500ms@9;solve.err:err@p=0.5",
      "ckpt.rename:crash@2;cache.insert:fail;netlist.write:750ns@p=0.01",
      "solve.delay:200us;;ckpt.commit:3s@18446744073709551615"};
  Rng rng(2005);
  constexpr int kCases = 20000;
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kCases; ++i) {
    const bool was_enabled = i % 2 == 0;
    FaultInjector::configure(was_enabled ? "fuzz.probe:err" : "");
    if (was_enabled) {
      ASSERT_TRUE(fire_fault_soft("fuzz.probe"));
    }
    const auto before = point_counts();
    const std::string spec = mutate_spec(
        seeds[static_cast<std::size_t>(i) % seeds.size()], seeds, rng);
    const std::string where = "case " + std::to_string(i) + ", spec " +
                              ::testing::PrintToString(spec);
    try {
      FaultInjector::configure(spec, static_cast<std::uint64_t>(i));
      ++accepted;
      bool has_entry = false;
      for (std::size_t start = 0; start <= spec.size();) {
        std::size_t end = spec.find(';', start);
        if (end == std::string::npos) end = spec.size();
        has_entry = has_entry || end > start;
        start = end + 1;
      }
      EXPECT_EQ(FaultInjector::enabled(), has_entry) << where;
      EXPECT_TRUE(FaultInjector::stats().empty()) << where;
    } catch (const Error& e) {
      ++refused;
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("bad fault spec entry '", 0), 0u)
          << where << ": " << what;
      EXPECT_EQ(what.find("precondition failed"), std::string::npos)
          << where << ": " << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos)
          << where << ": " << what;
      EXPECT_EQ(FaultInjector::enabled(), was_enabled) << where;
      EXPECT_EQ(point_counts(), before) << where;
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": " << e.what() << " escaped configure";
    }
    if (HasFailure()) break;
  }
  FaultInjector::reset();
  EXPECT_GT(accepted, kCases / 20);
  EXPECT_GT(refused, kCases / 20);
}

// ---------------------------------------------------------------- error

TEST(Error, RequireMacroCarriesContext) {
  try {
    RIP_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

}  // namespace
}  // namespace rip

// Unit tests for the util module: RNG, statistics, the tridiagonal
// solver, strings, tables, deadlines.

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/deadline.hpp"
#include "util/error.hpp"
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

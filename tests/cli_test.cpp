// Tests for the command-line argument parser and the RIPSOL solution
// serialization used by the rip_cli tool.

#include <sstream>

#include <gtest/gtest.h>

#include "net/solution_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rip {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens,
              const std::set<std::string>& flags = {}) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(), flags);
}

TEST(CliArgs, ParsesSubcommandAndOptions) {
  const auto args =
      parse({"solve", "--net", "a.net", "--target-x", "1.3"});
  EXPECT_EQ(args.command(), "solve");
  EXPECT_EQ(args.require("net"), "a.net");
  EXPECT_DOUBLE_EQ(args.get_double_or("target-x", 0.0), 1.3);
}

TEST(CliArgs, EmptyCommandLine) {
  const auto args = parse({});
  EXPECT_EQ(args.command(), "");
  EXPECT_FALSE(args.has("anything"));
}

TEST(CliArgs, BooleanFlagsTakeNoValue) {
  const auto args =
      parse({"solve", "--zone-hop", "--net", "a.net"}, {"zone-hop"});
  EXPECT_TRUE(args.has("zone-hop"));
  EXPECT_EQ(args.require("net"), "a.net");
}

TEST(CliArgs, HelpStyleFlagWithoutCommandParses) {
  // `rip_cli --help`: a boolean flag can be the only token, with no
  // subcommand, and must not be mistaken for an option needing a value.
  const auto args = parse({"--help"}, {"help"});
  EXPECT_TRUE(args.command().empty());
  EXPECT_TRUE(args.has("help"));
  // A trailing boolean flag after a subcommand parses too.
  const auto trailing = parse({"solve", "--zone-hop"}, {"zone-hop"});
  EXPECT_TRUE(trailing.has("zone-hop"));
}

TEST(CliArgs, DefaultsAndFallbacks) {
  const auto args = parse({"sweep"});
  EXPECT_EQ(args.get_or("csv", "none"), "none");
  EXPECT_EQ(args.get_int_or("points", 11), 11);
  EXPECT_FALSE(args.get("csv").has_value());
}

/// Expect CliArgs::parse to reject a line with exactly `message` — a
/// plain usage error, not a "precondition failed ... cli.cpp:N" trace.
void expect_usage_error(std::initializer_list<const char*> tokens,
                        const std::string& message) {
  try {
    parse(tokens);
    FAIL() << "expected rip::Error: " << message;
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(CliArgs, ErrorsOnMalformedInput) {
  expect_usage_error({"solve", "--net"}, "option --net needs a value");
  expect_usage_error({"solve", "stray"},
                     "unexpected positional argument 'stray'");
  expect_usage_error({"solve", "--"}, "empty option name '--'");
  // A flag the binary did not declare boolean reads as an option that
  // is missing its value.
  expect_usage_error({"--help"}, "option --help needs a value");
  const auto args = parse({"solve", "--points", "abc"});
  EXPECT_THROW(args.get_int_or("points", 1), Error);
  EXPECT_THROW(args.require("net"), Error);
}

// Malformed numbers, a missing required option and a negative --jobs
// are user errors: each throws exactly this plain message, never a
// "precondition failed ... file:line" report.
TEST(CliArgs, UsageErrorsArePlainMessages) {
  const auto expect_message = [](const auto& call, const std::string& want) {
    try {
      call();
      FAIL() << "expected rip::Error: " << want;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  };
  const auto args =
      parse({"gen", "--nets", "5x", "--target-x", "1.5x", "--jobs", "-1"});
  expect_message([&] { args.get_int_or("nets", 1); },
                 "expected an integer, got '5x' (--nets)");
  expect_message([&] { args.get_double_or("target-x", 1.0); },
                 "expected a number, got '1.5x' (--target-x)");
  expect_message([&] { args.require("net"); },
                 "missing required option --net");
  expect_message([&] { parallel_jobs(args); },
                 "--jobs must be >= 0 (0 = all hardware threads)");
  expect_message([] { parse_int("12 ", "count"); },
                 "expected an integer, got '12 ' (count)");
}

TEST(CliArgs, TracksUnusedOptions) {
  const auto args = parse({"solve", "--net", "a.net", "--typo", "x"});
  (void)args.require("net");
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ------------------------------------------------------------ solution io

TEST(SolutionIo, RoundTrip) {
  const net::RepeaterSolution original({{2250.0, 80.0}, {7000.0, 90.0}});
  std::ostringstream os;
  net::write_solution(os, original, "my_net");
  std::istringstream is(os.str());
  const auto parsed = net::read_solution(is);
  EXPECT_EQ(parsed.net_name, "my_net");
  ASSERT_EQ(parsed.solution.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.solution.repeaters()[0].position_um, 2250.0);
  EXPECT_DOUBLE_EQ(parsed.solution.repeaters()[1].width_u, 90.0);
}

TEST(SolutionIo, EmptySolutionRoundTrips) {
  std::ostringstream os;
  net::write_solution(os, net::RepeaterSolution{}, "");
  std::istringstream is(os.str());
  const auto parsed = net::read_solution(is);
  EXPECT_TRUE(parsed.solution.empty());
  EXPECT_TRUE(parsed.net_name.empty());
}

TEST(SolutionIo, RejectsMalformedInput) {
  std::istringstream no_header("repeater x_um 10 w_u 5\n");
  EXPECT_THROW(net::read_solution(no_header), Error);
  std::istringstream bad_line("ripsol 1\nrepeater 10 5\n");
  EXPECT_THROW(net::read_solution(bad_line), Error);
  std::istringstream unknown("ripsol 1\nfoo bar\n");
  EXPECT_THROW(net::read_solution(unknown), Error);
}

TEST(SolutionIo, MissingFileThrows) {
  EXPECT_THROW(net::read_solution_file("/nonexistent/x.sol"), Error);
}

TEST(SolutionIo, AcceptsComments) {
  std::istringstream is(
      "# produced by rip_cli\nripsol 1\nnet n\nrepeater x_um 100 w_u 20\n");
  const auto parsed = net::read_solution(is);
  EXPECT_EQ(parsed.solution.size(), 1u);
}

TEST(ShardOption, AbsentMeansTheSingleUnshardedShard) {
  const auto spec = shard_option(parse({"sweep"}));
  EXPECT_EQ(spec.index, 0);
  EXPECT_EQ(spec.count, 1);
}

TEST(ShardOption, ParsesWellFormedSpecs) {
  const auto spec = shard_option(parse({"sweep", "--shard", "2/8"}));
  EXPECT_EQ(spec.index, 2);
  EXPECT_EQ(spec.count, 8);
  const auto solo = shard_option(parse({"sweep", "--shard", "0/1"}));
  EXPECT_EQ(solo.index, 0);
  EXPECT_EQ(solo.count, 1);
}

/// Expect shard_option to throw with the one uniform message shape
/// every shard-capable binary shares.
void expect_shard_rejected(const std::string& value) {
  SCOPED_TRACE("--shard " + value);
  try {
    shard_option(parse({"sweep", "--shard", value.c_str()}));
    FAIL() << "expected rip::Error for --shard " << value;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what())
                  .find("expects I/N with integers 0 <= I < N"),
              std::string::npos)
        << "non-uniform message: " << e.what();
    EXPECT_NE(std::string(e.what()).find("'" + value + "'"),
              std::string::npos)
        << "message does not echo the offending value: " << e.what();
  }
}

TEST(ShardOption, RejectsEveryMalformedSpecUniformly) {
  expect_shard_rejected("");        // no '/'
  expect_shard_rejected("3");       // no '/'
  expect_shard_rejected("/");       // both fields empty
  expect_shard_rejected("/2");      // empty index
  expect_shard_rejected("0/");      // empty count
  expect_shard_rejected("-1/2");    // sign is a non-digit
  expect_shard_rejected("0/-2");    // negative count
  expect_shard_rejected("+1/2");    // explicit plus is rejected too
  expect_shard_rejected("0/2x");    // trailing garbage
  expect_shard_rejected("0x/2");    // garbage inside the index
  expect_shard_rejected(" 0/2");    // leading space
  expect_shard_rejected("0 /2");    // embedded space
  expect_shard_rejected("1.5/2");   // not an integer
  expect_shard_rejected("0/0");     // count must be >= 1
  expect_shard_rejected("2/2");     // index must be < count
  expect_shard_rejected("5/2");     // index far out of range
  expect_shard_rejected("99999999999999999999/2");  // overflow
}

// --------------------------------------------------------- count_option
//
// The strict-count companion of shard_option: every binary that takes
// --max-pending / --every / --stop-after / --cache-bytes rejects every
// malformed value with the same message shape instead of silently
// truncating through atoi.

TEST(CountOption, AbsentReturnsTheFallbackUnvalidated) {
  // The fallback is the caller's default and is deliberately NOT pushed
  // through min_value: --every absent means 0 (= never) even though an
  // explicit --every 0 is rejected below.
  EXPECT_EQ(count_option(parse({"stream"}), "every", 0, 1), 0u);
  EXPECT_EQ(count_option(parse({"stream"}), "max-pending", 64, 1), 64u);
}

TEST(CountOption, ParsesWellFormedCounts) {
  EXPECT_EQ(count_option(parse({"stream", "--every", "200"}), "every", 0, 1),
            200u);
  EXPECT_EQ(count_option(parse({"stream", "--stop-after", "1"}), "stop-after",
                         0, 1),
            1u);
  EXPECT_EQ(count_option(parse({"stream", "--fault-seed", "0"}), "fault-seed",
                         7, 0),
            0u);  // min_value 0 accepts an explicit zero
}

/// Expect count_option to throw with the exact uniform message.
void expect_count_rejected(const std::string& value, const std::string& why) {
  SCOPED_TRACE("--max-pending " + value);
  try {
    count_option(parse({"stream", "--max-pending", value.c_str()}),
                 "max-pending", 64, 1);
    FAIL() << "expected rip::Error for --max-pending " << value;
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "--max-pending expects an integer >= 1 (e.g. --max-pending 1): " +
                  why + " in '" + value + "'");
  }
}

TEST(CountOption, RejectsEveryMalformedCountUniformly) {
  expect_count_rejected("0", "value must be >= 1");
  expect_count_rejected("", "empty value");
  expect_count_rejected("-3", "non-digit character");   // sign is a non-digit
  expect_count_rejected("+3", "non-digit character");
  expect_count_rejected("12x", "non-digit character");  // trailing garbage
  expect_count_rejected("1.5", "non-digit character");  // not an integer
  expect_count_rejected(" 4", "non-digit character");   // leading space
  expect_count_rejected("99999999999999999999999", "value out of range");
}

}  // namespace
}  // namespace rip

// Seeded fuzzer for the stream checkpoint parser and the resume it drives
// (eval::run_stream with StreamOptions::resume).
//
// A run stopped part-way leaves a checkpoint and its `.prev`. Each case
// mutates the checkpoint's body — bytes flipped, inserted or deleted;
// lines duplicated, dropped or reordered; numbers made huge, negative or
// non-numeric — and resumes from it:
//  - half of the mutants are re-sealed with a valid crc32 trailer, so the
//    parser beyond the CRC check sees them. Each must end in a typed
//    rip::Error or a finished run;
//  - the other half keep the original trailer, so the CRC check refuses
//    them (`.prev` too, when the case also damages it). Each must restart
//    from `.prev` or from record 0 and write the golden CSV bytes.
// No thrown message and no "ignoring unusable checkpoint" warning may
// name a source location or read "precondition failed".

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "dp/min_delay.hpp"
#include "eval/stream.hpp"
#include "net/generator.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rip {
namespace {

constexpr int kCasesPerEncoding = 1000;
constexpr int kRecords = 6;
constexpr std::uint64_t kStopAfter = 3;

const tech::Technology& tech180() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "checkpoint_fuzz_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Small nets at a loose stored target, so that a resume is cheap.
void write_netlist(const std::string& path, net::NetlistFormat format) {
  net::RandomNetConfig config;
  config.min_segments = 1;
  config.max_segments = 3;
  config.min_segment_length_um = 300.0;
  config.max_segment_length_um = 1500.0;
  Rng rng(41);
  net::NetlistWriter writer(path, format);
  for (int i = 0; i < kRecords; ++i) {
    const net::Net n =
        net::random_net(tech180(), config, rng, "fz_" + std::to_string(i));
    writer.add(n, 2.5 * dp::min_delay(n, tech180().device()).tau_min_fs);
  }
  writer.close();
}

std::vector<std::string> lines_of(const std::string& body) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < body.size()) {
    const std::size_t eol = body.find('\n', at);
    const std::size_t end = eol == std::string::npos ? body.size() : eol + 1;
    lines.push_back(body.substr(at, end - at));
    at = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string body;
  for (const std::string& line : lines) body += line;
  return body;
}

/// One to three mutations of a checkpoint body.
std::string mutate(std::string body, Rng& rng) {
  static const char kBytes[] = {'\n', ' ', '\t', '#', '0', '9', '-', '+',
                                'x',  'e', '.',  '\0', '\x7f', '\xff'};
  static const char* kNumbers[] = {
      "18446744073709551615", "18446744073709551616", "99999999999999999999999",
      "-1", "-0", "+5", "1e3", "0x10", "abc", "12abc", "", "4294967296"};
  const int count = rng.uniform_int(1, 3);
  for (int k = 0; k < count; ++k) {
    const int op = rng.uniform_int(0, 8);
    if (op <= 2 && !body.empty()) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(body.size()) - 1));
      if (op == 0) {
        body[at] = static_cast<char>(body[at] ^ (1 << rng.uniform_int(0, 7)));
      } else if (op == 1) {
        const int byte =
            rng.uniform_int(0, static_cast<int>(std::size(kBytes)) - 1);
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                    kBytes[byte]);
      } else {
        body.erase(at, 1);
      }
      continue;
    }
    std::vector<std::string> lines = lines_of(body);
    if (lines.empty()) continue;
    const auto pick = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(lines.size()) - 1));
    };
    const std::size_t i = pick();
    if (op == 3) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
    } else if (op == 4) {
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op == 5) {
      std::swap(lines[i], lines[pick()]);
    } else {
      // A key line's value: made huge, negative or non-numeric.
      const std::size_t space = lines[i].find(' ');
      if (space == std::string::npos) continue;
      const char* number = kNumbers[rng.uniform_int(
          0, static_cast<int>(std::size(kNumbers)) - 1)];
      lines[i] = lines[i].substr(0, space + 1) + number + "\n";
    }
    body = join(lines);
  }
  return body;
}

std::string sealed(const std::string& body) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "crc32 %08x\n",
                static_cast<unsigned>(crc32(body)));
  return body + trailer;
}

void expect_no_source_location(const std::string& message) {
  EXPECT_EQ(message.find("precondition failed"), std::string::npos)
      << message;
  EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
}

void fuzz_encoding(net::NetlistFormat format, const std::string& tag,
                   std::uint64_t seed) {
  const std::string input = temp_path(tag + ".in");
  const std::string csv = temp_path(tag + ".csv");
  const std::string errors = temp_path(tag + "_errors.csv");
  const std::string ckpt = temp_path(tag + ".ckpt");
  write_netlist(input, format);

  eval::StreamOptions options;
  options.errors_path = errors;
  ASSERT_TRUE(eval::run_stream(tech180(), input, csv, options).finished);
  const std::string golden = slurp(csv);

  // The stopped run: a checkpoint after every record, so both the
  // checkpoint and its .prev hold a verified cut.
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".prev");
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;
  options.stop_after = kStopAfter;
  ASSERT_FALSE(eval::run_stream(tech180(), input, csv, options).finished);
  const std::string stopped_csv = slurp(csv);
  const std::string stopped_errors = slurp(errors);
  const std::string checkpoint = slurp(ckpt);
  const std::string prev = slurp(ckpt + ".prev");
  const std::size_t trailer_at = checkpoint.rfind("crc32 ");
  ASSERT_NE(trailer_at, std::string::npos);
  const std::string body = checkpoint.substr(0, trailer_at);
  const std::string trailer = checkpoint.substr(trailer_at);
  // The resumes only read checkpoints: no fsync per record.
  options.checkpoint_every = 0;
  options.stop_after = 0;
  options.resume = true;

  Rng rng(seed);
  int parsed = 0;      // resealed mutants the parser accepted
  int unparsed = 0;    // resealed mutants it refused past the CRC check
  int refused = 0;     // resealed mutants that ended in a rip::Error
  for (int c = 0; c < kCasesPerEncoding; ++c) {
    const std::string mutant = mutate(body, rng);
    const bool reseal = c % 2 == 0;
    const bool damage_prev = !reseal && rng.bernoulli(0.5);
    SCOPED_TRACE(tag + " case " + std::to_string(c) + ": '" + mutant + "'" +
                 (reseal ? " resealed" : "") +
                 (damage_prev ? ", .prev damaged" : ""));
    spill(csv, stopped_csv);
    spill(errors, stopped_errors);
    spill(ckpt, reseal ? sealed(mutant) : mutant + trailer);
    std::string prev_bytes = prev;
    if (damage_prev) prev_bytes[prev_bytes.find("next_index ") + 11] ^= 1;
    spill(ckpt + ".prev", prev_bytes);

    ::testing::internal::CaptureStderr();
    std::string thrown;
    bool done = false;
    try {
      done = eval::run_stream(tech180(), input, csv, options).finished;
    } catch (const Error& e) {
      thrown = e.what();
    } catch (const std::exception& e) {
      thrown = e.what();
      ADD_FAILURE() << "untyped exception: " << e.what();
    }
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    expect_no_source_location(thrown);
    expect_no_source_location(warnings);
    const bool warned =
        warnings.find("ignoring unusable checkpoint") != std::string::npos;
    if (reseal) {
      EXPECT_TRUE(done || !thrown.empty());
      refused += !thrown.empty();
      (warned ? unparsed : parsed) += 1;
      continue;
    }
    // The CRC check refuses the mutant (unless the mutations cancelled
    // out), so the resume restarts from .prev or from record 0.
    EXPECT_TRUE(done) << thrown;
    EXPECT_EQ(slurp(csv), golden);
    if (mutant != body) {
      EXPECT_TRUE(warned) << warnings;
    }
  }
  // The parser both accepted and refused resealed mutants, and some
  // accepted ones were refused by the resume checks after it.
  EXPECT_GT(parsed, kCasesPerEncoding / 20);
  EXPECT_GT(unparsed, kCasesPerEncoding / 20);
  EXPECT_GT(refused, 0);
  for (const auto& path : {input, csv, errors, ckpt, ckpt + ".prev",
                           ckpt + ".tmp"}) {
    std::filesystem::remove(path);
  }
}

TEST(CheckpointFuzz, MutatedCheckpointsKeepTheResumeContract) {
  fuzz_encoding(net::NetlistFormat::kText, "text", 2005);
  fuzz_encoding(net::NetlistFormat::kBinary, "binary", 7919);
}

}  // namespace
}  // namespace rip

// Fault-injection and round-trip battery for the streaming netlist
// formats (net/netlist_io.hpp). The contract under test: every
// malformed input — truncated file, bad magic/version, oversized or
// lying length prefix, NaN/negative RC values, EOF mid-record — throws
// a typed NetlistError carrying the source name and record index, the
// reader never yields a partially parsed record, and well-formed files
// round-trip byte-identically (text) / value-identically (across
// formats).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "net/netlist_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace rip;
using net::NetlistError;
using net::NetlistFormat;
using net::NetlistReader;
using net::NetlistRecord;
using net::NetlistWriter;

net::Net tiny_net(const std::string& name = "n0") {
  return net::Net(name, 120.0, 60.0,
                  {net::Segment{1000.0, 0.1, 0.2, "metal4"},
                   net::Segment{800.0, 0.12, 0.22, "metal5"}},
                  {net::ForbiddenZone{300.0, 500.0}});
}

/// Serialize `count` tiny nets in the given format and return the bytes.
std::string valid_netlist(NetlistFormat format, int count = 3) {
  std::ostringstream os;
  NetlistWriter writer(os, format, "mem");
  for (int i = 0; i < count; ++i) {
    writer.add(tiny_net("n" + std::to_string(i)), 1000.0 * (i + 1));
  }
  writer.close();
  return os.str();
}

// ------------------------------------------- raw binary record forging
//
// The writer refuses to emit invalid values (Net validates on
// construction), so hostile payloads are forged by hand with the same
// little-endian encoding the format specifies.

std::string le16(std::uint16_t v) {
  std::string s;
  s.push_back(static_cast<char>(v & 0xff));
  s.push_back(static_cast<char>(v >> 8));
  return s;
}

std::string le32(std::uint32_t v) {
  std::string s;
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  return s;
}

std::string lef64(double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  return std::string(bytes, sizeof(double));
}

std::string binary_header() { return "RNLB" + le32(1); }

struct ForgedSegment {
  double len = 1000.0;
  double r = 0.1;
  double c = 0.2;
  std::string layer = "m4";
};

std::string forge_payload(const std::string& name, double driver,
                          double receiver, double tau,
                          const std::vector<ForgedSegment>& segments,
                          std::uint32_t zone_count = 0) {
  std::string p = le16(static_cast<std::uint16_t>(name.size())) + name +
                  lef64(driver) + lef64(receiver) + lef64(tau) +
                  le32(static_cast<std::uint32_t>(segments.size()));
  for (const auto& s : segments) {
    p += lef64(s.len) + lef64(s.r) + lef64(s.c) +
         le16(static_cast<std::uint16_t>(s.layer.size())) + s.layer;
  }
  p += le32(zone_count);
  return p;
}

std::string framed(const std::string& payload) {
  return le32(static_cast<std::uint32_t>(payload.size())) + payload;
}

/// Drive a reader over `bytes` until it throws; record how many COMPLETE
/// records came out first, and return the error.
struct FaultOutcome {
  int records_before_failure = 0;
  std::string message;
  std::int64_t record_index = -2;  // -2 = no throw happened
  std::string path;
};

FaultOutcome run_to_failure(const std::string& bytes,
                            const std::string& label = "fault.rnl") {
  FaultOutcome outcome;
  try {
    std::istringstream is(bytes);
    NetlistReader reader(is, label);
    while (auto record = reader.next()) {
      // A yielded record must always be complete and valid — the Net
      // constructor ran, so just sanity-check the invariant cheaply.
      EXPECT_FALSE(record->net.name().empty());
      EXPECT_FALSE(record->net.segments().empty());
      ++outcome.records_before_failure;
    }
  } catch (const NetlistError& e) {
    outcome.message = e.what();
    outcome.record_index = e.record_index();
    outcome.path = e.path();
  }
  return outcome;
}

// ------------------------------------------------------ fault injection

struct FaultCase {
  const char* name;
  std::string bytes;
  const char* expect_substring;  ///< must appear in what()
  std::int64_t expect_index;     ///< NetlistError::record_index()
  int expect_records;            ///< complete records before the throw
};

// Prints a case as its name. gtest_discover_tests copies the printed
// parameter into every ctest name; gtest's default byte dump would
// start with the address of `name`, which moves from build to build.
void PrintTo(const FaultCase& fault, std::ostream* os) { *os << fault.name; }

class NetlistFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(NetlistFaultTest, TypedErrorNeverPartialRecord) {
  const FaultCase& fault = GetParam();
  const FaultOutcome outcome = run_to_failure(fault.bytes);
  ASSERT_NE(outcome.record_index, -2)
      << fault.name << ": expected a NetlistError, none was thrown";
  EXPECT_NE(outcome.message.find(fault.expect_substring), std::string::npos)
      << fault.name << ": message was: " << outcome.message;
  EXPECT_EQ(outcome.record_index, fault.expect_index) << fault.name;
  EXPECT_EQ(outcome.records_before_failure, fault.expect_records)
      << fault.name;
  EXPECT_EQ(outcome.path, "fault.rnl") << fault.name;
  // The full rendered format: "<path>: record <i>: ..." past the header.
  if (fault.expect_index >= 0) {
    const std::string prefix =
        "fault.rnl: record " + std::to_string(fault.expect_index) + ": ";
    EXPECT_EQ(outcome.message.rfind(prefix, 0), 0u)
        << fault.name << ": message was: " << outcome.message;
  } else {
    EXPECT_EQ(outcome.message.rfind("fault.rnl: ", 0), 0u) << fault.name;
  }
}

std::vector<FaultCase> text_faults() {
  const std::string good = valid_netlist(NetlistFormat::kText);
  std::vector<FaultCase> faults;
  faults.push_back({"empty_file", "", "empty netlist file", -1, 0});
  faults.push_back({"bad_magic", "ripnet 1\nnet x\n", "bad netlist magic",
                    -1, 0});
  faults.push_back({"bad_version", "ripnetlist 2\n",
                    "unsupported ripnetlist version", -1, 0});
  // Cut the file in the middle of the second record: keep the header,
  // record 0, and the first two lines of record 1.
  {
    std::string cut = good;
    std::size_t pos = cut.find("net n1");
    pos = cut.find('\n', cut.find('\n', pos) + 1) + 1;
    faults.push_back({"eof_mid_record", cut.substr(0, pos),
                      "unexpected EOF inside record (missing 'end')", 1, 1});
  }
  faults.push_back({"nan_capacitance",
                    "ripnetlist 1\nnet x\ndriver 100\nreceiver 50\n"
                    "segment len_um 1000 r_ohm_per_um 0.1 c_ff_per_um nan\n"
                    "end\n",
                    "capacitance (c_ff_per_um) must be finite and positive",
                    0, 0});
  faults.push_back({"negative_capacitance",
                    "ripnetlist 1\nnet x\ndriver 100\nreceiver 50\n"
                    "segment len_um 1000 r_ohm_per_um 0.1 c_ff_per_um -0.2\n"
                    "end\n",
                    "capacitance (c_ff_per_um) must be finite and positive",
                    0, 0});
  faults.push_back({"negative_driver",
                    "ripnetlist 1\nnet x\ndriver -5\nreceiver 50\n"
                    "segment len_um 1000 r_ohm_per_um 0.1 c_ff_per_um 0.2\n"
                    "end\n",
                    "driver width must be finite and positive", 0, 0});
  faults.push_back({"missing_driver",
                    "ripnetlist 1\nnet x\nreceiver 50\n"
                    "segment len_um 1000 r_ohm_per_um 0.1 c_ff_per_um 0.2\n"
                    "end\n",
                    "missing a 'driver' line", 0, 0});
  faults.push_back({"stray_directive_at_boundary",
                    "ripnetlist 1\ndriver 100\n",
                    "expected 'net <name>' at a record boundary", 0, 0});
  faults.push_back({"unknown_directive",
                    "ripnetlist 1\nnet x\nfrobnicate 3\nend\n",
                    "unknown directive 'frobnicate'", 0, 0});
  faults.push_back({"missing_segment_key",
                    "ripnetlist 1\nnet x\ndriver 10\nreceiver 5\n"
                    "segment len_um 100\nend\n",
                    "segment needs len_um, r_ohm_per_um and c_ff_per_um", 0,
                    0});
  faults.push_back({"odd_segment_kv",
                    "ripnetlist 1\nnet x\ndriver 100\nreceiver 50\n"
                    "segment len_um 1000 r_ohm_per_um\nend\n",
                    "odd segment key/value list", 0, 0});
  faults.push_back({"no_segments",
                    "ripnetlist 1\nnet x\ndriver 100\nreceiver 50\nend\n",
                    "record has no segments", 0, 0});
  return faults;
}

std::vector<FaultCase> binary_faults() {
  const std::string good = valid_netlist(NetlistFormat::kBinary);
  const std::string record1 =
      framed(forge_payload("x", 100.0, 50.0, 0.0, {ForgedSegment{}}));
  std::vector<FaultCase> faults;
  {
    std::string bad = good;
    bad[0] = 'X';  // not RNLB and not "ripnetlist": the text fallback
    faults.push_back({"corrupt_magic", bad, "bad netlist magic", -1, 0});
  }
  {
    std::string bad = good;
    bad[4] = 9;  // version 9
    faults.push_back({"bad_version", bad,
                      "unsupported binary netlist version 9", -1, 0});
  }
  faults.push_back({"truncated_header", good.substr(0, 6),
                    "truncated binary netlist header", -1, 0});
  faults.push_back({"truncated_length_prefix",
                    binary_header() + record1 + le32(44).substr(0, 2),
                    "truncated record length prefix", 1, 1});
  faults.push_back(
      {"oversized_length_prefix",
       binary_header() + le32(net::kMaxNetlistRecordBytes + 1),
       "oversized record length prefix", 0, 0});
  faults.push_back({"zero_length_prefix", binary_header() + le32(0),
                    "empty record payload", 0, 0});
  {
    // Record 1's payload cut short on disk.
    const std::string cut =
        binary_header() + record1 + record1.substr(0, record1.size() - 7);
    faults.push_back({"eof_mid_payload", cut,
                      "unexpected EOF inside record payload", 1, 1});
  }
  {
    // The length prefix claims 4 more bytes than the name+count fields
    // can satisfy: the cursor must trip, not read out of bounds.
    std::string payload = forge_payload("x", 100.0, 50.0, 0.0, {});
    payload = payload.substr(0, payload.size() - 4);
    faults.push_back({"lying_payload_cursor",
                      binary_header() + framed(payload),
                      "truncated record payload while reading", 0, 0});
  }
  {
    // Segment count far beyond what the payload could hold.
    std::string payload = le16(1) + "x" + lef64(100.0) + lef64(50.0) +
                          lef64(0.0) + le32(1000000);
    faults.push_back({"lying_segment_count",
                      binary_header() + framed(payload),
                      "segment count 1000000 exceeds record payload", 0, 0});
  }
  {
    std::string payload =
        forge_payload("x", 100.0, 50.0, 0.0, {ForgedSegment{}}) + "JUNK";
    faults.push_back({"trailing_payload_bytes",
                      binary_header() + framed(payload),
                      "trailing bytes", 0, 0});
  }
  {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::string payload = forge_payload(
        "x", 100.0, 50.0, 0.0, {ForgedSegment{1000.0, 0.1, nan, "m4"}});
    faults.push_back({"nan_capacitance", binary_header() + framed(payload),
                      "capacitance (c_ff_per_um) must be finite and positive",
                      0, 0});
  }
  {
    const std::string payload = forge_payload(
        "x", 100.0, 50.0, 0.0, {ForgedSegment{-10.0, 0.1, 0.2, "m4"}});
    faults.push_back({"negative_length", binary_header() + framed(payload),
                      "length (len_um) must be finite and positive", 0, 0});
  }
  {
    const std::string payload =
        forge_payload("", 100.0, 50.0, 0.0, {ForgedSegment{}});
    faults.push_back({"empty_name", binary_header() + framed(payload),
                      "empty net name", 0, 0});
  }
  {
    const double inf = std::numeric_limits<double>::infinity();
    const std::string payload =
        forge_payload("x", 100.0, 50.0, inf, {ForgedSegment{}});
    faults.push_back({"inf_target", binary_header() + framed(payload),
                      "timing target must be finite", 0, 0});
  }
  return faults;
}

INSTANTIATE_TEST_SUITE_P(Text, NetlistFaultTest,
                         ::testing::ValuesIn(text_faults()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });
INSTANTIATE_TEST_SUITE_P(Binary, NetlistFaultTest,
                         ::testing::ValuesIn(binary_faults()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ----------------------------------------------------------- round trip

void expect_same_net(const net::Net& a, const net::Net& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.driver_width_u(), b.driver_width_u());
  EXPECT_EQ(a.receiver_width_u(), b.receiver_width_u());
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_EQ(a.segments()[i].length_um, b.segments()[i].length_um);
    EXPECT_EQ(a.segments()[i].r_ohm_per_um, b.segments()[i].r_ohm_per_um);
    EXPECT_EQ(a.segments()[i].c_ff_per_um, b.segments()[i].c_ff_per_um);
    EXPECT_EQ(a.segments()[i].layer, b.segments()[i].layer);
  }
  ASSERT_EQ(a.zones().size(), b.zones().size());
  for (std::size_t i = 0; i < a.zones().size(); ++i) {
    EXPECT_EQ(a.zones()[i].start_um, b.zones()[i].start_um);
    EXPECT_EQ(a.zones()[i].end_um, b.zones()[i].end_um);
  }
}

/// Random nets with awkward (non-representable-in-decimal) doubles.
std::vector<NetlistRecord> random_records(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NetlistRecord> records;
  for (int i = 0; i < count; ++i) {
    const int segment_count = rng.uniform_int(1, 5);
    std::vector<net::Segment> segments;
    for (int s = 0; s < segment_count; ++s) {
      segments.push_back(net::Segment{
          rng.uniform(10.0, 5000.0), rng.uniform(0.01, 0.5),
          rng.uniform(0.05, 0.5), rng.bernoulli(0.3) ? "" : "metal4"});
    }
    std::vector<net::ForbiddenZone> zones;
    if (rng.bernoulli(0.5)) {
      const double start = rng.uniform(1.0, 100.0);
      zones.push_back(net::ForbiddenZone{start, start + rng.uniform(1.0, 50.0)});
    }
    net::Net n("net_" + std::to_string(i), rng.uniform(20.0, 400.0),
               rng.uniform(10.0, 200.0), std::move(segments),
               std::move(zones));
    records.push_back(
        NetlistRecord{std::move(n),
                      rng.bernoulli(0.5) ? rng.uniform(1e3, 1e7) : 0.0});
  }
  return records;
}

std::string write_all(const std::vector<NetlistRecord>& records,
                      NetlistFormat format) {
  std::ostringstream os;
  NetlistWriter writer(os, format, "mem");
  for (const auto& r : records) writer.add(r.net, r.tau_t_fs);
  writer.close();
  return os.str();
}

std::vector<NetlistRecord> read_all(const std::string& bytes,
                                    NetlistFormat expect_format) {
  std::istringstream is(bytes);
  NetlistReader reader(is, "mem");
  EXPECT_EQ(reader.format(), expect_format);
  std::vector<NetlistRecord> records;
  while (auto record = reader.next()) records.push_back(std::move(*record));
  return records;
}

TEST(NetlistRoundTrip, TextIsByteIdentical) {
  const auto records = random_records(25, 42);
  const std::string once = write_all(records, NetlistFormat::kText);
  const std::string twice =
      write_all(read_all(once, NetlistFormat::kText), NetlistFormat::kText);
  EXPECT_EQ(once, twice);
}

TEST(NetlistRoundTrip, BinaryIsByteIdentical) {
  const auto records = random_records(25, 43);
  const std::string once = write_all(records, NetlistFormat::kBinary);
  const std::string twice = write_all(read_all(once, NetlistFormat::kBinary),
                                      NetlistFormat::kBinary);
  EXPECT_EQ(once, twice);
}

TEST(NetlistRoundTrip, CrossFormatIsValueExact) {
  const auto records = random_records(25, 44);
  // original -> text -> parse -> binary -> parse: every double exact.
  const auto via_text = read_all(write_all(records, NetlistFormat::kText),
                                 NetlistFormat::kText);
  const auto via_both = read_all(write_all(via_text, NetlistFormat::kBinary),
                                 NetlistFormat::kBinary);
  ASSERT_EQ(via_both.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_same_net(records[i].net, via_both[i].net);
    EXPECT_EQ(records[i].tau_t_fs, via_both[i].tau_t_fs);
  }
}

TEST(NetlistRoundTrip, FormatDoubleExactRoundTrips) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Bit-pattern soup biased toward ordinary magnitudes.
    double v;
    if (i % 3 == 0) {
      v = rng.uniform(-1e9, 1e9);
    } else {
      const std::uint64_t bits = rng.next_u64();
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) continue;
    }
    const std::string s = net::format_double_exact(v);
    const double parsed = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(parsed, v) << s;
    EXPECT_EQ(net::format_double_exact(parsed), s);
  }
}

// ----------------------------------------------------- offsets and seek

class NetlistSeekTest : public ::testing::TestWithParam<NetlistFormat> {};

TEST_P(NetlistSeekTest, SeekResumesAtRecordBoundary) {
  const auto records = random_records(10, 45);
  const std::string bytes = write_all(records, GetParam());

  std::istringstream first(bytes);
  NetlistReader reader(first, "mem");
  EXPECT_EQ(reader.index(), 0u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(reader.next().has_value());
  const std::uint64_t offset = reader.offset();
  const std::uint64_t index = reader.index();
  EXPECT_EQ(index, 4u);
  std::vector<NetlistRecord> tail_a;
  while (auto r = reader.next()) tail_a.push_back(std::move(*r));

  std::istringstream second(bytes);
  NetlistReader resumed(second, "mem");
  resumed.seek(offset, index);
  EXPECT_EQ(resumed.index(), 4u);
  std::vector<NetlistRecord> tail_b;
  while (auto r = resumed.next()) tail_b.push_back(std::move(*r));

  ASSERT_EQ(tail_a.size(), 6u);
  ASSERT_EQ(tail_b.size(), tail_a.size());
  for (std::size_t i = 0; i < tail_a.size(); ++i) {
    expect_same_net(tail_a[i].net, tail_b[i].net);
    EXPECT_EQ(tail_a[i].tau_t_fs, tail_b[i].tau_t_fs);
  }
}

TEST_P(NetlistSeekTest, RejectsOffsetsOffRecordBoundaries) {
  const auto records = random_records(10, 45);
  const std::string bytes = write_all(records, GetParam());

  // Map the true record boundaries: post-header, then one per record
  // (the last boundary is clean EOF).
  std::istringstream scan(bytes);
  NetlistReader scanner(scan, "mem");
  std::vector<std::uint64_t> boundaries{scanner.offset()};
  while (scanner.next().has_value()) boundaries.push_back(scanner.offset());
  ASSERT_EQ(boundaries.size(), 11u);
  ASSERT_GT(boundaries.front(), 0u);  // both formats carry a header
  ASSERT_EQ(boundaries.back(), bytes.size());

  const auto expect_rejected = [&](std::uint64_t offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::istringstream is(bytes);
    NetlistReader reader(is, "mem");
    try {
      reader.seek(offset, 1);
      FAIL() << "seek accepted a non-boundary offset";
    } catch (const NetlistError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid resume offset"),
                std::string::npos)
          << e.what();
      EXPECT_FALSE(e.recoverable());
    }
  };

  expect_rejected(bytes.size() + 1);       // past EOF
  expect_rejected(bytes.size() + 4096);    // far past EOF
  expect_rejected(0);                      // inside the file header
  expect_rejected(boundaries.front() - 1); // last header byte
  expect_rejected(boundaries[1] + 2);      // inside a record
  expect_rejected(boundaries[5] + 2);      // inside a later record

  // The EOF boundary itself is a valid resume cut: a fully processed
  // input resumes straight to "no more records".
  std::istringstream is(bytes);
  NetlistReader reader(is, "mem");
  reader.seek(boundaries.back(), 10);
  EXPECT_EQ(reader.index(), 10u);
  EXPECT_FALSE(reader.next().has_value());
}

INSTANTIATE_TEST_SUITE_P(BothFormats, NetlistSeekTest,
                         ::testing::Values(NetlistFormat::kText,
                                           NetlistFormat::kBinary),
                         [](const auto& info) {
                           return info.param == NetlistFormat::kText
                                      ? "text"
                                      : "binary";
                         });

// --------------------------------------- recoverable-read regressions
//
// The quarantine contract the streaming driver builds on: when a
// record's framing held but its content is invalid, the reader has
// already advanced to the next boundary before throwing, so next() may
// be called again and only the bad record is lost.

TEST(NetlistRecoverableRead, MalformedRecordCanBeSkippedAndReadingContinues) {
  const std::string good_a =
      framed(forge_payload("good_a", 120.0, 60.0, 1000.0, {{}}));
  const std::string bad = framed(forge_payload(
      "bad", 120.0, 60.0, 1000.0,
      {{1000.0, std::numeric_limits<double>::quiet_NaN(), 0.2, "m4"}}));
  const std::string good_b =
      framed(forge_payload("good_b", 120.0, 60.0, 2000.0, {{}}));
  std::istringstream is(binary_header() + good_a + bad + good_b);
  NetlistReader reader(is, "mem");

  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->net.name(), "good_a");

  try {
    reader.next();
    FAIL() << "malformed record was not rejected";
  } catch (const NetlistError& e) {
    EXPECT_TRUE(e.recoverable());
    EXPECT_EQ(e.kind(), net::NetlistErrorKind::kMalformed);
    EXPECT_STREQ(e.error_class(), "malformed");
    EXPECT_EQ(e.record_index(), 1);
  }

  // The reader sits on the next boundary: the tail still parses.
  const auto third = reader.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->net.name(), "good_b");
  EXPECT_EQ(third->tau_t_fs, 2000.0);
  EXPECT_EQ(reader.index(), 3u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(NetlistRecoverableRead, FramingDamageIsNeverRecoverable) {
  // A length prefix lying beyond EOF: past it there is no trustworthy
  // boundary, so the error must not invite another next() call.
  std::istringstream is(binary_header() + le32(100000));
  NetlistReader reader(is, "mem");
  try {
    reader.next();
    FAIL() << "truncated record was not rejected";
  } catch (const NetlistError& e) {
    EXPECT_FALSE(e.recoverable());
    EXPECT_EQ(e.kind(), net::NetlistErrorKind::kFraming);
    EXPECT_STREQ(e.error_class(), "framing");
  }
}

// ------------------------------------------------------------ writer API

TEST(NetlistWriter, AddAfterCloseThrows) {
  std::ostringstream os;
  NetlistWriter writer(os, NetlistFormat::kText, "mem");
  writer.add(tiny_net());
  EXPECT_EQ(writer.count(), 1u);
  writer.close();
  EXPECT_THROW(writer.add(tiny_net()), NetlistError);
}

TEST(NetlistWriter, RejectsBadTarget) {
  std::ostringstream os;
  NetlistWriter writer(os, NetlistFormat::kBinary, "mem");
  EXPECT_THROW(writer.add(tiny_net(), -1.0), NetlistError);
  EXPECT_THROW(
      writer.add(tiny_net(), std::numeric_limits<double>::quiet_NaN()),
      NetlistError);
}

// --------------------------------------------- open failure names its file

// read_single_net is the net-file reader of rip_cli and spice_export.
// A missing net file surfaces as the base rip::Error, the type rip_cli
// catches to report a usage error.
TEST(NetIo, MissingFileThrows) {
  EXPECT_THROW(net::read_single_net("/nonexistent/net.txt"), Error);
}

// A net file holding no record or a second one is refused naming the
// file, in either encoding, never silently truncated.
TEST(NetIo, SingleNetFileHoldsExactlyOneRecord) {
  const std::string path = ::testing::TempDir() + "netlist_io_test_one.net";
  for (const NetlistFormat format : {NetlistFormat::kText,
                                     NetlistFormat::kBinary}) {
    const auto refusal = [&](int records) -> std::string {
      NetlistWriter writer(path, format);
      for (int i = 0; i < records; ++i) writer.add(tiny_net());
      writer.close();
      try {
        expect_same_net(net::read_single_net(path), tiny_net("n0"));
        return "";
      } catch (const NetlistError& e) {
        return e.what();
      }
    };
    EXPECT_EQ(refusal(1), "");
    EXPECT_EQ(refusal(0),
              path + ": no net record (a net file holds exactly one)");
    EXPECT_EQ(refusal(2), path + ": more than one net record (a net file "
                                 "holds exactly one)");
  }
  std::remove(path.c_str());
}

TEST(NetIoErrorContext, MissingFileNamesPath) {
  try {
    NetlistReader reader("/nonexistent/nets/x.net");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(std::string(e.what()),
              "/nonexistent/nets/x.net: cannot open netlist file");
    EXPECT_EQ(e.path(), "/nonexistent/nets/x.net");
    EXPECT_EQ(e.record_index(), -1);
  }
}

TEST(NetlistErrorFormat, HeaderAndRecordRenderings) {
  const NetlistError header_error("big.rnlb", -1, "bad header");
  EXPECT_EQ(std::string(header_error.what()), "big.rnlb: bad header");
  EXPECT_EQ(header_error.record_index(), -1);
  const NetlistError record_error("big.rnlb", 17, "bad segment");
  EXPECT_EQ(std::string(record_error.what()),
            "big.rnlb: record 17: bad segment");
  EXPECT_EQ(record_error.path(), "big.rnlb");
  EXPECT_EQ(record_error.record_index(), 17);
}

}  // namespace

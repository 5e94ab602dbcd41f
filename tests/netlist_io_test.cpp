// Fault-injection and round-trip battery for the streaming netlist
// formats (net/netlist_io.hpp). The contract under test: every
// malformed input — truncated file, bad magic/version, oversized or
// lying length prefix, NaN/negative RC values, EOF mid-record — throws
// a typed NetlistError carrying the source name and record index, the
// reader never yields a partially parsed record, and well-formed files
// round-trip byte-identically (text) / value-identically (across
// formats).

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/netlist_io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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

/// Every value a record carries, bit for bit, with its strings
/// (length-prefixed, so distinct records never render alike).
std::string record_bits(const NetlistRecord& r) {
  const auto str = [](const std::string& v) {
    return le32(static_cast<std::uint32_t>(v.size())) + v;
  };
  std::string out = str(r.net.name()) + lef64(r.net.driver_width_u()) +
                    lef64(r.net.receiver_width_u()) + lef64(r.tau_t_fs);
  for (const auto& s : r.net.segments()) {
    out += lef64(s.length_um) + lef64(s.r_ohm_per_um) +
           lef64(s.c_ff_per_um) + str(s.layer);
  }
  for (const auto& z : r.net.zones()) {
    out += lef64(z.start_um) + lef64(z.end_um);
  }
  return out;
}

// The writer renders a subnormal with to_chars ("5e-324"); the reader
// must take it back exactly. std::stod reports ERANGE for every
// subnormal, so a reader built on it refuses the writer's own output.
TEST(NetlistRoundTrip, SubnormalZoneStartRoundTripsThroughBothEncodings) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<NetlistRecord> records{NetlistRecord{
      net::Net("sub", 120.0, 60.0, {net::Segment{1000.0, 0.1, 0.2, "metal4"}},
               {net::ForbiddenZone{tiny, 100.0}}),
      0.0}};
  const std::string text = write_all(records, NetlistFormat::kText);
  ASSERT_NE(text.find("\nzone 5e-324 100\n"), std::string::npos) << text;
  const auto via_text = read_all(text, NetlistFormat::kText);
  ASSERT_EQ(via_text.size(), 1u);
  const auto via_binary = read_all(write_all(via_text, NetlistFormat::kBinary),
                                   NetlistFormat::kBinary);
  ASSERT_EQ(via_binary.size(), 1u);
  EXPECT_EQ(write_all(via_binary, NetlistFormat::kText), text);
  EXPECT_EQ(record_bits(via_binary[0]), record_bits(records[0]));
}

// Numbers are read with from_chars, which ignores LC_NUMERIC: under a
// locale whose decimal point is ',' the text file reads the same.
TEST(NetlistRoundTrip, CommaDecimalLocaleReadsTheSameRecords) {
  const auto records = random_records(10, 46);
  const std::string text = write_all(records, NetlistFormat::kText);
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  const char* comma_locale = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                           "fr_FR.utf8", "fr_FR", "nl_NL.UTF-8", "ru_RU.UTF-8",
                           "es_ES.UTF-8", "it_IT.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr &&
        std::localeconv()->decimal_point[0] == ',') {
      comma_locale = name;
      break;
    }
  }
  if (comma_locale == nullptr) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal LC_NUMERIC locale is installed";
  }
  std::vector<NetlistRecord> under_comma;
  try {
    under_comma = read_all(text, NetlistFormat::kText);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "under " << comma_locale << ": " << e.what();
  }
  std::setlocale(LC_NUMERIC, saved.c_str());
  ASSERT_EQ(under_comma.size(), records.size()) << comma_locale;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(record_bits(under_comma[i]), record_bits(records[i])) << i;
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

// Names are text tokens in both encodings, so every record converts
// either way: the writer refuses a net or layer name with whitespace,
// and the binary reader rejects one as a malformed record.
TEST(NetlistRecoverableRead, NameWithWhitespaceIsMalformed) {
  const std::string bad =
      framed(forge_payload("a\rb", 120.0, 60.0, 0.0, {ForgedSegment{}}));
  const std::string good =
      framed(forge_payload("good", 120.0, 60.0, 0.0, {ForgedSegment{}}));
  std::istringstream is(binary_header() + bad + good);
  NetlistReader reader(is, "mem");
  try {
    reader.next();
    FAIL() << "a name with whitespace was accepted";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("net name contains whitespace"),
              std::string::npos)
        << e.what();
    EXPECT_TRUE(e.recoverable());
  }
  const auto next = reader.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->net.name(), "good");
}

// A stored target of zero means unset whatever its sign, so a binary -0
// reads as the +0 that the text encoding (which omits it) reads back.
TEST(NetlistRoundTrip, NegativeZeroTargetReadsAsUnset) {
  const auto records = read_all(
      binary_header() +
          framed(forge_payload("x", 100.0, 50.0, -0.0, {ForgedSegment{}})),
      NetlistFormat::kBinary);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(record_bits(records[0]),
            record_bits(read_all(write_all(records, NetlistFormat::kText),
                                 NetlistFormat::kText)[0]));
  EXPECT_FALSE(std::signbit(records[0].tau_t_fs));
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

TEST(NetlistWriter, RejectsNamesTheTextEncodingCannotCarry) {
  for (const NetlistFormat format :
       {NetlistFormat::kText, NetlistFormat::kBinary}) {
    std::ostringstream os;
    NetlistWriter writer(os, format, "mem");
    const std::size_t header_bytes = os.str().size();
    EXPECT_THROW(writer.add(tiny_net("a b")), NetlistError);
    EXPECT_THROW(writer.add(net::Net("n", 120.0, 60.0,
                                     {net::Segment{1000.0, 0.1, 0.2,
                                                   "metal\t4"}})),
                 NetlistError);
    EXPECT_EQ(writer.count(), 0u);
    EXPECT_EQ(os.str().size(), header_bytes);
  }
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

// ------------------------------------------------------------- fuzzing
//
// A seeded in-process mutation fuzzer over both encodings (gcc ships no
// libFuzzer). Each case mutates NetlistWriter output of a few generated
// nets (with zones and stored targets) and reads it to the end:
//   - only NetlistError escapes the reader;
//   - a recoverable error advanced index() by exactly one, and reading
//     goes on after it;
//   - every returned record, re-written in either encoding, reads back
//     with identical value bits;
//   - at the first boundary, and after every record returned or
//     recoverably refused, seek() accepts offset() and index(), and a
//     fresh reader seek()ed there has the same next step (record, error
//     or EOF) and ends it at the same offset, so the counted offsets are
//     the stream's true record boundaries, each a valid resume cut.

/// One next() call: "eof", "record <bits>" or "error <what>", plus
/// whether an error was recoverable.
struct ReadStep {
  std::string kind;  ///< "eof", "record" or "error"
  std::string detail;
  bool recoverable = false;
  std::optional<NetlistRecord> record;
};

ReadStep read_step(NetlistReader& reader) {
  ReadStep step;
  try {
    step.record = reader.next();
    step.kind = step.record ? "record" : "eof";
    if (step.record) step.detail = record_bits(*step.record);
  } catch (const NetlistError& e) {
    step.kind = "error";
    step.detail = e.what();
    step.recoverable = e.recoverable();
  }
  return step;
}

void expect_rewrites_exactly(const NetlistRecord& record,
                             const std::string& where) {
  for (const NetlistFormat format :
       {NetlistFormat::kText, NetlistFormat::kBinary}) {
    std::ostringstream os;
    NetlistWriter writer(os, format, "rewrite");
    writer.add(record.net, record.tau_t_fs);
    writer.close();
    std::istringstream is(os.str());
    NetlistReader back(is, "rewrite");
    const auto again = back.next();
    ASSERT_TRUE(again.has_value()) << where;
    EXPECT_EQ(record_bits(*again), record_bits(record))
        << where << ", re-written as "
        << (format == NetlistFormat::kText ? "text:\n" : "binary:\n")
        << (format == NetlistFormat::kText ? os.str() : "");
  }
}

/// Read `bytes` to the end, checking the properties above.
void fuzz_read(const std::string& bytes, const std::string& where) {
  std::istringstream is(bytes);
  std::optional<NetlistReader> reader;
  try {
    reader.emplace(is, "fuzz");
  } catch (const NetlistError&) {
    return;  // header damage: typed, nothing more to read
  }
  // The reader's first boundary, and then the one after every record it
  // returned or recoverably refused: each is a checkpoint cut.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> resume;
  resume.emplace(reader->offset(), reader->index());
  for (int steps = 0; steps < 10000; ++steps) {
    const std::uint64_t index = reader->index();
    const ReadStep step = read_step(*reader);
    if (resume) {
      std::istringstream again(bytes);
      NetlistReader fresh(again, "fuzz");
      try {
        fresh.seek(resume->first, resume->second);
      } catch (const NetlistError& e) {
        ADD_FAILURE() << where << ": seek refused the boundary at offset "
                      << resume->first << ": " << e.what();
        return;
      }
      const ReadStep resumed = read_step(fresh);
      EXPECT_EQ(resumed.kind + " " + resumed.detail,
                step.kind + " " + step.detail)
          << where << ", resumed at offset " << resume->first;
      if (step.kind != "eof" && step.kind == resumed.kind) {
        EXPECT_EQ(fresh.offset(), reader->offset()) << where;
        EXPECT_EQ(fresh.index(), reader->index()) << where;
      }
      resume.reset();
    }
    if (step.kind == "eof") return;
    if (step.kind == "error" && !step.recoverable) return;
    EXPECT_EQ(reader->index(), index + 1) << where << ": " << step.detail;
    if (step.kind == "record") expect_rewrites_exactly(*step.record, where);
    resume.emplace(reader->offset(), reader->index());
  }
  ADD_FAILURE() << where << ": the reader never reached EOF";
}

std::string fuzz_mutate(std::string bytes, Rng& rng) {
  static const std::string kTokens[] = {
      "net", "end", "nan", "1e999", "5e-324", "+1", std::string(10240, '7')};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  // [begin, end) of the '\n'-terminated line holding byte `at`.
  const auto line_at = [&](std::size_t at) {
    std::size_t begin = bytes.rfind('\n', at == 0 ? 0 : at - 1);
    begin = begin == std::string::npos || at == 0 ? 0 : begin + 1;
    std::size_t end = bytes.find('\n', at);
    end = end == std::string::npos ? bytes.size() : end + 1;
    return std::pair{begin, end};
  };
  const int mutations = rng.uniform_int(1, 3);
  for (int m = 0; m < mutations && !bytes.empty(); ++m) {
    const std::size_t at = pick(bytes.size());
    switch (rng.uniform_int(0, 5)) {
      case 0:  // byte flip
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + pick(255)));
        break;
      case 1:  // truncation
        bytes.resize(at);
        break;
      case 2: {  // delete a line
        const auto [begin, end] = line_at(at);
        bytes.erase(begin, end - begin);
        break;
      }
      case 3: {  // duplicate a line in place
        const auto [begin, end] = line_at(at);
        bytes.insert(begin, bytes.substr(begin, end - begin));
        break;
      }
      case 4: {  // insert a copy of some line before another
        const auto [begin, end] = line_at(at);
        const std::string copy = bytes.substr(begin, end - begin);
        bytes.insert(line_at(pick(bytes.size())).first, copy);
        break;
      }
      default: {  // swap the token around `at` for a hostile one
        std::size_t begin = at, end = at;
        while (begin > 0 && !is_space(bytes[begin - 1])) --begin;
        while (end < bytes.size() && !is_space(bytes[end])) ++end;
        bytes.replace(begin, end - begin, kTokens[pick(std::size(kTokens))]);
        break;
      }
    }
  }
  return bytes;
}

// A binary name carries a 16-bit length and a text name none: the text
// reader refuses a net or layer name above 65,535 bytes as a recoverable
// malformed record, so both encodings accept the same records.
TEST(NetlistRecoverableRead, OverlongTextNameIsMalformed) {
  const std::string long_name(70000, 'n');
  const std::string segment =
      "segment len_um 1000 r_ohm_per_um 0.1 c_ff_per_um 0.2";
  const std::string text =
      "ripnetlist 1\n"
      "net " + long_name + "\ndriver 120\nreceiver 60\n" + segment +
      "\nend\n"
      "net layered\ndriver 120\nreceiver 60\n" + segment + " layer " +
      long_name + "\nend\n"
      "net edge\ndriver 120\nreceiver 60\n" + segment + " layer " +
      std::string(net::kMaxNetlistNameBytes, 'l') + "\nend\n";
  std::istringstream is(text);
  NetlistReader reader(is, "mem");
  for (const char* want : {"net name longer than 65535 bytes",
                           "layer name longer than 65535 bytes"}) {
    try {
      reader.next();
      FAIL() << "accepted a name of 70000 bytes";
    } catch (const NetlistError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
      EXPECT_TRUE(e.recoverable());
    }
  }
  // A name at the limit reads, and writes in both encodings.
  const auto edge = reader.next();
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->net.name(), "edge");
  expect_rewrites_exactly(*edge, "layer at the name limit");
  EXPECT_FALSE(reader.next().has_value());
}

// A checkpoint cut just before a damaged record is a boundary the reader
// itself reports, so seek must accept it: a resumed run then meets the
// same error as the uninterrupted one. Here record 1 lost its 'net' line.
TEST(NetlistSeek, AcceptsTheCutBeforeADamagedRecord) {
  std::string text = write_all(random_records(3, 7), NetlistFormat::kText);
  const std::size_t second = text.find("\nnet ", text.find("\nnet ") + 1);
  ASSERT_NE(second, std::string::npos);
  text.erase(second + 1, text.find('\n', second + 1) - second);

  std::istringstream scan(text);
  NetlistReader uninterrupted(scan, "mem");
  ASSERT_TRUE(uninterrupted.next().has_value());
  const std::uint64_t cut = uninterrupted.offset();
  const ReadStep want = read_step(uninterrupted);
  ASSERT_EQ(want.kind, "error");
  ASSERT_TRUE(want.recoverable);

  std::istringstream again(text);
  NetlistReader resumed(again, "mem");
  resumed.seek(cut, 1);
  const ReadStep got = read_step(resumed);
  EXPECT_EQ(got.kind + " " + got.detail, want.kind + " " + want.detail);
  EXPECT_EQ(resumed.offset(), uninterrupted.offset());
  // The cut after the damaged record is a boundary too.
  std::istringstream third(text);
  NetlistReader after(third, "mem");
  after.seek(uninterrupted.offset(), 2);
  const auto record = after.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record_bits(*record), record_bits(*uninterrupted.next()));
}

TEST(NetlistFuzz, MutatedInputsKeepTheReaderContract) {
  std::vector<std::string> seeds;
  for (std::uint64_t k = 0; k < 3; ++k) {
    const auto records = random_records(4, 60 + k);
    seeds.push_back(write_all(records, NetlistFormat::kText));
    seeds.push_back(write_all(records, NetlistFormat::kBinary));
  }
  Rng rng(2005);
  constexpr int kCases = 15000;
  for (int i = 0; i < kCases; ++i) {
    const std::size_t seed = static_cast<std::size_t>(i) % seeds.size();
    const std::string bytes = fuzz_mutate(seeds[seed], rng);
    const std::string where = "case " + std::to_string(i) + " (" +
                              (seed % 2 == 0 ? "text" : "binary") + ")";
    try {
      fuzz_read(bytes, where);
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": " << e.what() << " escaped the reader";
    }
    if (HasFailure()) {
      ADD_FAILURE() << where << " input (" << bytes.size() << " bytes):\n"
                    << bytes.substr(0, 2000);
      break;
    }
  }
}

}  // namespace

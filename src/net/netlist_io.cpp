#include "net/netlist_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "util/fault.hpp"
#include "util/strings.hpp"

namespace rip::net {

namespace {

constexpr char kBinaryMagic[4] = {'R', 'N', 'L', 'B'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr const char* kTextMagic = "ripnetlist";

std::string render(const std::string& path, std::int64_t record_index,
                   const std::string& detail) {
  std::string msg = path + ": ";
  if (record_index >= 0) msg += "record " + std::to_string(record_index) + ": ";
  return msg + detail;
}

/// Net and layer names are text tokens in both encodings: a name with
/// ASCII whitespace could not be written as text and read back.
bool has_space(const std::string& name) {
  return std::any_of(name.begin(), name.end(), is_space);
}

constexpr const char* kNameTooLong = "net name longer than 65535 bytes";
constexpr const char* kLayerTooLong = "layer name longer than 65535 bytes";

struct RawRecord {
  std::string name;
  double driver_width_u = 0;
  double receiver_width_u = 0;
  double tau_t_fs = 0;
  std::vector<Segment> segments;
  std::vector<ForbiddenZone> zones;
};

/// Validate a fully parsed record and construct the immutable Net.
/// Every rejection — NaN/negative RC, bad widths, zone violations the
/// Net constructor raises — becomes a typed NetlistError carrying the
/// source name and record index, so hostile bytes can never surface as
/// a context-free precondition message or a partial record.
NetlistRecord finish_record(RawRecord&& raw, const std::string& label,
                            std::uint64_t index) {
  // By the time finish_record runs, the whole record was consumed from
  // the stream, so every rejection here is recoverable: the reader sits
  // at the next boundary and the caller may quarantine just this record.
  const auto fail = [&](const std::string& detail) -> void {
    throw NetlistError(label, static_cast<std::int64_t>(index), detail,
                       NetlistErrorKind::kMalformed, /*recoverable=*/true,
                       raw.name);
  };
  // This runs for every record, so a message is built only once its
  // check has failed. `segment` < 0: the value is not a segment's.
  const auto check = [&](double v, const char* what,
                         std::int64_t segment = -1) {
    if (std::isfinite(v) && v > 0) return;
    const std::string at =
        segment < 0 ? "" : "segment " + std::to_string(segment) + " ";
    fail(at + what + " must be finite and positive, got " +
         format_double_exact(v));
  };
  if (raw.name.empty()) fail("record has an empty net name");
  if (has_space(raw.name)) fail("net name contains whitespace");
  if (raw.name.size() > kMaxNetlistNameBytes) fail(kNameTooLong);
  check(raw.driver_width_u, "driver width");
  check(raw.receiver_width_u, "receiver width");
  if (!std::isfinite(raw.tau_t_fs) || raw.tau_t_fs < 0) {
    fail("timing target must be finite and >= 0 (0 = unset), got " +
         format_double_exact(raw.tau_t_fs));
  }
  // Zero means unset whatever its sign; keep +0, which is what the text
  // encoding (it omits an unset target) reads back for either.
  if (raw.tau_t_fs == 0) raw.tau_t_fs = 0;
  if (raw.segments.empty()) fail("record has no segments");
  for (std::size_t i = 0; i < raw.segments.size(); ++i) {
    const Segment& s = raw.segments[i];
    const auto at = static_cast<std::int64_t>(i);
    check(s.length_um, "length (len_um)", at);
    check(s.r_ohm_per_um, "resistance (r_ohm_per_um)", at);
    check(s.c_ff_per_um, "capacitance (c_ff_per_um)", at);
    if (has_space(s.layer)) {
      fail("segment " + std::to_string(i) + " layer contains whitespace");
    }
    if (s.layer.size() > kMaxNetlistNameBytes) {
      fail("segment " + std::to_string(i) + " " + kLayerTooLong);
    }
  }
  for (const ForbiddenZone& z : raw.zones) {
    if (!std::isfinite(z.start_um) || !std::isfinite(z.end_um)) {
      fail("zone bounds must be finite");
    }
  }
  std::string name = raw.name;  // keep for errors after the move below
  try {
    return NetlistRecord{Net(std::move(raw.name), raw.driver_width_u,
                             raw.receiver_width_u, std::move(raw.segments),
                             std::move(raw.zones)),
                         raw.tau_t_fs};
  } catch (const NetlistError&) {
    throw;
  } catch (const Error& e) {
    throw NetlistError(label, static_cast<std::int64_t>(index),
                       std::string("invalid net: ") + e.what(),
                       NetlistErrorKind::kMalformed, /*recoverable=*/true,
                       std::move(name));
  }
}

/// Little-endian scalar encoders. The implementation assumes a
/// little-endian IEEE-754 host (every platform this repo targets); the
/// memcpy form keeps it alignment-safe and strict-aliasing-clean.
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  out.append(bytes, sizeof(double));
}

/// The little-endian u32 in the four bytes at `p`.
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

void write_header(std::ostream& os, NetlistFormat format) {
  if (format == NetlistFormat::kBinary) {
    std::string header(kBinaryMagic, 4);
    put_u32(header, kBinaryVersion);
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
  } else {
    os << kTextMagic << " 1\n";
  }
}

/// Bounds-checked cursor over one binary record payload. Any overrun
/// throws a typed "truncated record payload" NetlistError, so a short
/// or lying length prefix can never read out of bounds.
class PayloadCursor {
 public:
  PayloadCursor(const std::string& bytes, const std::string& label,
                std::uint64_t index)
      : bytes_(bytes), label_(label), index_(index) {}

  std::uint16_t u16(const char* what) {
    need(2, what);
    const auto b0 = static_cast<unsigned char>(bytes_[pos_]);
    const auto b1 = static_cast<unsigned char>(bytes_[pos_ + 1]);
    pos_ += 2;
    return static_cast<std::uint16_t>(b0 | (b1 << 8));
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    const std::uint32_t v = get_u32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  double f64(const char* what) {
    need(sizeof(double), what);
    double v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(double));
    pos_ += sizeof(double);
    return v;
  }

  std::string str(std::size_t len, const char* what) {
    need(len, what);
    std::string s = bytes_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n, const char* what) {
    // The full payload is in memory, so a cursor overrun means the
    // payload lies about its own contents — recoverable: the stream is
    // already past this record.
    if (bytes_.size() - pos_ < n) {
      throw NetlistError(
          label_, static_cast<std::int64_t>(index_),
          std::string("truncated record payload while reading ") + what,
          NetlistErrorKind::kMalformed, /*recoverable=*/true);
    }
  }

  const std::string& bytes_;
  const std::string& label_;
  std::uint64_t index_;
  std::size_t pos_ = 0;
};

}  // namespace

NetlistError::NetlistError(const std::string& path, std::int64_t record_index,
                           const std::string& detail, NetlistErrorKind kind,
                           bool recoverable, std::string net_name)
    : Error(render(path, record_index, detail)),
      path_(path),
      record_index_(record_index),
      kind_(kind),
      recoverable_(recoverable),
      net_name_(std::move(net_name)) {}

const char* NetlistError::error_class() const {
  switch (kind_) {
    case NetlistErrorKind::kFraming:
      return "framing";
    case NetlistErrorKind::kMalformed:
      return "malformed";
    case NetlistErrorKind::kIo:
      return "io";
  }
  return "framing";
}

std::string format_double_exact(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ------------------------------------------------------------- reader

NetlistReader::NetlistReader(const std::string& path)
    : file_(path, std::ios::binary), label_(path) {
  if (!file_.good()) {
    throw NetlistError(path, -1, "cannot open netlist file");
  }
  is_ = &file_;
  read_header();
}

NetlistReader::NetlistReader(std::istream& is, std::string label)
    : is_(&is), label_(std::move(label)) {
  read_header();
}

void NetlistReader::fail(const std::string& detail) const {
  throw NetlistError(label_, static_cast<std::int64_t>(index_), detail);
}

void NetlistReader::read_header() {
  // Sniff: the binary magic is exactly 4 bytes; anything else is
  // treated as text, whose first line must be the text magic.
  char magic[4] = {0, 0, 0, 0};
  is_->read(magic, 4);
  if (is_->gcount() == 4 && std::memcmp(magic, kBinaryMagic, 4) == 0) {
    format_ = NetlistFormat::kBinary;
    char vbytes[4];
    is_->read(vbytes, 4);
    if (is_->gcount() != 4) {
      throw NetlistError(label_, -1, "truncated binary netlist header");
    }
    const std::uint32_t version = get_u32(vbytes);
    if (version != kBinaryVersion) {
      throw NetlistError(label_, -1,
                         "unsupported binary netlist version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kBinaryVersion) + ")");
    }
    offset_ = 8;
    header_end_ = 8;
    return;
  }
  // Text path: rewind and take the header line whole.
  is_->clear();
  is_->seekg(0);
  std::uint64_t header_bytes = 0;
  if (!read_line(header_bytes)) {
    throw NetlistError(label_, -1, "empty netlist file (missing header)");
  }
  split_ws(line_, tokens_);
  if (tokens_.empty() || tokens_[0] != kTextMagic) {
    throw NetlistError(label_, -1,
                       "bad netlist magic (expected 'ripnetlist 1' or "
                       "binary 'RNLB')");
  }
  if (tokens_.size() != 2 || tokens_[1] != "1") {
    throw NetlistError(label_, -1, "unsupported ripnetlist version");
  }
  format_ = NetlistFormat::kText;
  offset_ = header_bytes;
  header_end_ = offset_;
}

bool NetlistReader::read_line(std::uint64_t& bytes) {
  if (!std::getline(*is_, line_)) return false;
  // getline sets eofbit only when the line ran into EOF before a '\n'.
  bytes += line_.size() + (is_->eof() ? 0 : 1);
  return true;
}

void NetlistReader::seek(std::uint64_t offset, std::uint64_t record_index) {
  const auto reject = [&](const std::string& why) {
    throw NetlistError(label_, static_cast<std::int64_t>(record_index),
                       "invalid resume offset " + std::to_string(offset) +
                           ": " + why);
  };
  // A stale or hand-edited checkpoint must fail here, typed, not as a
  // baffling parse error records later. Three checks: within the file,
  // past the header, and actually on a record boundary.
  is_->clear();
  is_->seekg(0, std::ios::end);
  const auto end_pos = is_->tellg();
  if (end_pos == std::streampos(-1)) reject("cannot determine file size");
  const std::uint64_t file_size = static_cast<std::uint64_t>(end_pos);
  if (offset > file_size) {
    reject("past end of file (" + std::to_string(file_size) + " bytes)");
  }
  if (offset < header_end_) reject("inside the file header");
  is_->clear();
  is_->seekg(static_cast<std::streamoff>(offset));
  if (!is_->good()) {
    reject("cannot seek to checkpoint offset");
  }
  if (offset < file_size) {
    // Boundary probe (position restored below): every boundary the
    // reader reports must pass, whatever record follows it, damaged or
    // not.
    const bool boundary = format_ == NetlistFormat::kBinary
                              ? on_binary_boundary(offset, file_size)
                              : follows_record_end(offset);
    if (!boundary) reject("does not address a record boundary");
    is_->clear();
    is_->seekg(static_cast<std::streamoff>(offset));
    if (!is_->good()) reject("cannot seek to checkpoint offset");
  }
  offset_ = offset;
  index_ = record_index;
}

bool NetlistReader::on_binary_boundary(std::uint64_t offset,
                                       std::uint64_t file_size) {
  // The payload length of a plausible length prefix at `at`: nonzero,
  // within the limit, its payload inside the file. The reader consumes
  // exactly such records and stops for good at any other.
  const auto payload_at =
      [&](std::uint64_t at) -> std::optional<std::uint64_t> {
    char prefix[4];
    is_->clear();
    is_->seekg(static_cast<std::streamoff>(at));
    is_->read(prefix, 4);
    if (is_->gcount() != 4) return std::nullopt;
    const std::uint32_t payload_bytes = get_u32(prefix);
    if (payload_bytes == 0 || payload_bytes > kMaxNetlistRecordBytes ||
        at + 4 + payload_bytes > file_size) {
      return std::nullopt;
    }
    return payload_bytes;
  };
  // A plausible prefix at the offset is the cheap case. Behind a damaged
  // one (an uninterrupted read fails there too), walk the prefixes from
  // the header: the offset is a boundary iff the walk lands on it.
  if (payload_at(offset)) return true;
  std::uint64_t at = header_end_;
  while (at < offset) {
    const auto payload_bytes = payload_at(at);
    if (!payload_bytes) return false;
    at += 4 + *payload_bytes;
  }
  return at == offset;
}

bool NetlistReader::follows_record_end(std::uint64_t offset) {
  // Scan back from the offset block by block, collecting each line last
  // byte first, until a line decides.
  const auto decides = [&](std::string& reversed) -> std::optional<bool> {
    line_.assign(reversed.rbegin(), reversed.rend());
    reversed.clear();
    split_ws(line_, tokens_);
    if (tokens_.empty() || tokens_[0].front() == '#') return std::nullopt;
    return tokens_[0] == "end";
  };
  std::string reversed;
  char block[4096];
  bool at_line_start = offset == header_end_;
  for (std::uint64_t end = offset; end > header_end_;) {
    const std::uint64_t begin =
        end - std::min<std::uint64_t>(end - header_end_, sizeof block);
    is_->clear();
    is_->seekg(static_cast<std::streamoff>(begin));
    is_->read(block, static_cast<std::streamsize>(end - begin));
    if (is_->gcount() != static_cast<std::streamsize>(end - begin)) {
      return false;
    }
    for (std::uint64_t k = end - begin; k-- > 0;) {
      if (!at_line_start) {
        if (block[k] != '\n') return false;  // mid-line
        at_line_start = true;
      } else if (block[k] != '\n') {
        reversed.push_back(block[k]);
      } else if (const auto verdict = decides(reversed)) {
        return *verdict;
      }
    }
    end = begin;
  }
  // At the header: the first line after it decides, and if it is blank
  // or a comment, nothing but the header precedes the offset.
  return decides(reversed).value_or(true);
}

std::optional<NetlistRecord> NetlistReader::next() {
  const std::uint64_t record_index = index_;
  auto record = format_ == NetlistFormat::kBinary ? next_binary()
                                                  : next_text();
  if (record.has_value()) {
    // The injected I/O fault fires after the parse advanced the reader,
    // so an 'err' here is recoverable by construction: the record is
    // lost but the stream is intact. A 'fail' or 'crash' propagates raw.
    try {
      fire_fault("netlist.read", record_index);
    } catch (const TransientError& e) {
      throw NetlistError(label_, static_cast<std::int64_t>(record_index),
                         e.what(), NetlistErrorKind::kIo,
                         /*recoverable=*/true, record->net.name());
    }
  }
  return record;
}

/// One record, `record_bytes` long from offset_, was fully consumed
/// (successfully or not): move index_ and offset_ to the boundary the
/// stream now sits on. Counting the bytes instead of asking tellg()
/// saves a seek per record and stays right when the last line has no
/// '\n' (tellg() fails once EOF was hit).
void NetlistReader::advance_boundary(std::uint64_t record_bytes) {
  ++index_;
  offset_ += record_bytes;
}

std::optional<NetlistRecord> NetlistReader::next_text() {
  const std::uint64_t record_index = index_;
  std::uint64_t bytes = 0;  // consumed by this record so far
  RawRecord raw;
  bool in_record = false;
  bool done = false;
  bool skipping = false;  // body abandoned after a parse error
  bool have_driver = false;
  bool have_receiver = false;
  // First error of the record. The text format resyncs to the next lone
  // 'end' line (records always close with one) and throws AFTER
  // reaching the boundary, so the error is recoverable and only this
  // record is lost.
  std::string deferred;
  const auto soft_fail = [&](const std::string& detail) {
    if (deferred.empty()) deferred = detail;
    skipping = true;
  };

  const std::vector<std::string_view>& tokens = tokens_;
  while (!done && read_line(bytes)) {
    split_ws(line_, tokens_);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    const std::string_view kind = tokens[0];
    if (kind == "end") {
      if (!in_record && !skipping) {
        soft_fail("expected 'net <name>' at a record boundary, got 'end'");
      } else if (!skipping && tokens.size() != 1) {
        soft_fail("'end' takes no tokens");
      }
      done = true;
      continue;
    }
    if (skipping) continue;
    if (!in_record) {
      if (kind != "net") {
        soft_fail("expected 'net <name>' at a record boundary, got '" +
                  std::string(kind) + "'");
        continue;
      }
      if (tokens.size() != 2) {
        soft_fail("'net' takes exactly one name token");
        continue;
      }
      raw.name = tokens[1];
      in_record = true;
      continue;
    }
    // Body directives throw plain Error (from parse_double or the local
    // body_fail); each becomes the record's deferred error.
    const auto body_fail = [](const std::string& detail) -> void {
      throw Error(detail);
    };
    try {
      const auto one_value = [&](const char* what) {
        if (tokens.size() != 2) {
          body_fail(std::string("'") + what + "' takes exactly one value");
        }
        return parse_double(tokens[1], what);
      };
      if (kind == "target_fs") {
        raw.tau_t_fs = one_value("target_fs");
      } else if (kind == "driver") {
        raw.driver_width_u = one_value("driver");
        have_driver = true;
      } else if (kind == "receiver") {
        raw.receiver_width_u = one_value("receiver");
        have_receiver = true;
      } else if (kind == "segment") {
        if ((tokens.size() - 1) % 2 != 0) {
          body_fail("odd segment key/value list");
        }
        Segment s;
        bool have_len = false, have_r = false, have_c = false;
        for (std::size_t i = 1; i + 1 < tokens.size(); i += 2) {
          const std::string_view key = tokens[i];
          if (key == "len_um") {
            s.length_um = parse_double(tokens[i + 1], key);
            have_len = true;
          } else if (key == "r_ohm_per_um") {
            s.r_ohm_per_um = parse_double(tokens[i + 1], key);
            have_r = true;
          } else if (key == "c_ff_per_um") {
            s.c_ff_per_um = parse_double(tokens[i + 1], key);
            have_c = true;
          } else if (key == "layer") {
            s.layer = tokens[i + 1];
          } else {
            body_fail("unknown segment key '" + std::string(key) + "'");
          }
        }
        if (!have_len || !have_r || !have_c) {
          body_fail("segment needs len_um, r_ohm_per_um and c_ff_per_um");
        }
        raw.segments.push_back(std::move(s));
      } else if (kind == "zone") {
        if (tokens.size() != 3) body_fail("'zone' takes start and end");
        raw.zones.push_back(
            ForbiddenZone{parse_double(tokens[1], "zone start"),
                          parse_double(tokens[2], "zone end")});
      } else {
        body_fail("unknown directive '" + std::string(kind) + "'");
      }
    } catch (const Error& e) {
      soft_fail(e.what());
    }
  }

  if (!in_record && !skipping) {
    if (is_->bad()) {
      throw NetlistError(label_, static_cast<std::int64_t>(record_index),
                         "I/O error while reading", NetlistErrorKind::kIo);
    }
    return std::nullopt;  // clean EOF at a record boundary
  }
  // Every line of the record is consumed, whatever the checks below
  // decide.
  advance_boundary(bytes);
  if (!done && deferred.empty()) {
    deferred = "unexpected EOF inside record (missing 'end')";
  }
  if (deferred.empty() && !have_driver) {
    deferred = "record is missing a 'driver' line";
  }
  if (deferred.empty() && !have_receiver) {
    deferred = "record is missing a 'receiver' line";
  }
  if (!deferred.empty()) {
    throw NetlistError(label_, static_cast<std::int64_t>(record_index),
                       deferred, NetlistErrorKind::kMalformed,
                       /*recoverable=*/done, raw.name);
  }
  return finish_record(std::move(raw), label_, record_index);
}

std::optional<NetlistRecord> NetlistReader::next_binary() {
  char prefix[4];
  is_->read(prefix, 4);
  if (is_->gcount() == 0 && is_->eof()) return std::nullopt;  // boundary EOF
  if (is_->gcount() != 4) fail("truncated record length prefix");
  const std::uint32_t payload_bytes = get_u32(prefix);
  if (payload_bytes > kMaxNetlistRecordBytes) {
    fail("oversized record length prefix " + std::to_string(payload_bytes) +
         " (limit " + std::to_string(kMaxNetlistRecordBytes) + " bytes)");
  }
  if (payload_bytes == 0) fail("empty record payload");
  std::string payload(payload_bytes, '\0');
  is_->read(payload.data(), static_cast<std::streamsize>(payload_bytes));
  if (is_->gcount() != static_cast<std::streamsize>(payload_bytes)) {
    fail("unexpected EOF inside record payload (got " +
         std::to_string(is_->gcount()) + " of " +
         std::to_string(payload_bytes) + " bytes)");
  }

  // The payload is fully consumed from the stream: everything below is
  // a content failure of THIS record and recoverable — the next length
  // prefix is still trustworthy, so a caller may skip and read on.
  const std::uint64_t record_index = index_;
  advance_boundary(4 + std::uint64_t{payload_bytes});
  PayloadCursor cur(payload, label_, record_index);
  RawRecord raw;
  const auto fail_record = [&](const std::string& detail) -> void {
    throw NetlistError(label_, static_cast<std::int64_t>(record_index),
                       detail, NetlistErrorKind::kMalformed,
                       /*recoverable=*/true, raw.name);
  };
  raw.name = cur.str(cur.u16("name length"), "record name");
  raw.driver_width_u = cur.f64("driver width");
  raw.receiver_width_u = cur.f64("receiver width");
  raw.tau_t_fs = cur.f64("timing target");
  const std::uint32_t segment_count = cur.u32("segment count");
  // A segment encodes to at least 26 bytes; a count the payload cannot
  // possibly hold is rejected up front instead of cursor-tripping later.
  if (segment_count > payload_bytes / 26) {
    fail_record("segment count " + std::to_string(segment_count) +
                " exceeds record payload");
  }
  raw.segments.reserve(segment_count);
  for (std::uint32_t i = 0; i < segment_count; ++i) {
    Segment s;
    s.length_um = cur.f64("segment length");
    s.r_ohm_per_um = cur.f64("segment resistance");
    s.c_ff_per_um = cur.f64("segment capacitance");
    s.layer = cur.str(cur.u16("layer length"), "segment layer");
    raw.segments.push_back(std::move(s));
  }
  const std::uint32_t zone_count = cur.u32("zone count");
  if (zone_count > payload_bytes / 16) {
    fail_record("zone count " + std::to_string(zone_count) +
                " exceeds record payload");
  }
  raw.zones.reserve(zone_count);
  for (std::uint32_t i = 0; i < zone_count; ++i) {
    const double start = cur.f64("zone start");
    const double end = cur.f64("zone end");
    raw.zones.push_back(ForbiddenZone{start, end});
  }
  if (cur.remaining() != 0) {
    fail_record("record payload has " + std::to_string(cur.remaining()) +
                " trailing bytes");
  }
  return finish_record(std::move(raw), label_, record_index);
}

// ------------------------------------------------------------- writer

NetlistWriter::NetlistWriter(const std::string& path, NetlistFormat format)
    : file_(path, std::ios::binary), label_(path), format_(format) {
  if (!file_.good()) {
    throw NetlistError(path, -1, "cannot open netlist file for writing");
  }
  os_ = &file_;
  write_header(*os_, format_);
}

NetlistWriter::NetlistWriter(std::ostream& os, NetlistFormat format,
                             std::string label)
    : os_(&os), label_(std::move(label)), format_(format) {
  write_header(*os_, format_);
}

void NetlistWriter::fail(const std::string& detail) const {
  throw NetlistError(label_, static_cast<std::int64_t>(count_), detail);
}

NetlistWriter::~NetlistWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; call close() directly for the error.
  }
}

void NetlistWriter::add(const Net& net, double tau_t_fs) {
  if (closed_) fail("add() after close()");
  // Injected write failure, keyed by record ordinal; fires before any
  // bytes go out so a faulted add() leaves the stream clean.
  try {
    fire_fault("netlist.write", count_);
  } catch (const TransientError& e) {
    throw NetlistError(label_, static_cast<std::int64_t>(count_), e.what(),
                       NetlistErrorKind::kIo, /*recoverable=*/true,
                       net.name());
  }
  if (!std::isfinite(tau_t_fs) || tau_t_fs < 0) {
    fail("timing target must be finite and >= 0 (0 = unset)");
  }
  if (has_space(net.name())) fail("net name contains whitespace");
  if (net.name().size() > kMaxNetlistNameBytes) fail(kNameTooLong);
  for (const auto& s : net.segments()) {
    if (has_space(s.layer)) fail("layer name contains whitespace");
    if (s.layer.size() > kMaxNetlistNameBytes) fail(kLayerTooLong);
  }
  if (format_ == NetlistFormat::kText) {
    *os_ << "net " << net.name() << "\n";
    if (tau_t_fs > 0) {
      *os_ << "target_fs " << format_double_exact(tau_t_fs) << "\n";
    }
    *os_ << "driver " << format_double_exact(net.driver_width_u()) << "\n";
    *os_ << "receiver " << format_double_exact(net.receiver_width_u())
         << "\n";
    for (const auto& s : net.segments()) {
      *os_ << "segment len_um " << format_double_exact(s.length_um)
           << " r_ohm_per_um " << format_double_exact(s.r_ohm_per_um)
           << " c_ff_per_um " << format_double_exact(s.c_ff_per_um);
      if (!s.layer.empty()) *os_ << " layer " << s.layer;
      *os_ << "\n";
    }
    for (const auto& z : net.zones()) {
      *os_ << "zone " << format_double_exact(z.start_um) << " "
           << format_double_exact(z.end_um) << "\n";
    }
    *os_ << "end\n";
  } else {
    std::string payload;
    payload.reserve(128 + net.segments().size() * 40);
    put_u16(payload, static_cast<std::uint16_t>(net.name().size()));
    payload += net.name();
    put_f64(payload, net.driver_width_u());
    put_f64(payload, net.receiver_width_u());
    put_f64(payload, tau_t_fs);
    put_u32(payload, static_cast<std::uint32_t>(net.segments().size()));
    for (const auto& s : net.segments()) {
      put_f64(payload, s.length_um);
      put_f64(payload, s.r_ohm_per_um);
      put_f64(payload, s.c_ff_per_um);
      put_u16(payload, static_cast<std::uint16_t>(s.layer.size()));
      payload += s.layer;
    }
    put_u32(payload, static_cast<std::uint32_t>(net.zones().size()));
    for (const auto& z : net.zones()) {
      put_f64(payload, z.start_um);
      put_f64(payload, z.end_um);
    }
    if (payload.size() > kMaxNetlistRecordBytes) {
      fail("record payload exceeds " +
           std::to_string(kMaxNetlistRecordBytes) + " bytes");
    }
    std::string prefix;
    put_u32(prefix, static_cast<std::uint32_t>(payload.size()));
    os_->write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    os_->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!os_->good()) fail("write failed");
  ++count_;
}

void NetlistWriter::close() {
  if (closed_) return;
  closed_ = true;
  os_->flush();
  if (!os_->good()) fail("flush failed on close");
  if (os_ == &file_) file_.close();
}

Net read_single_net(const std::string& path) {
  NetlistReader reader(path);
  auto record = reader.next();
  if (!record || reader.next()) {
    throw NetlistError(path, -1,
                       std::string(record ? "more than one" : "no") +
                           " net record (a net file holds exactly one)",
                       NetlistErrorKind::kMalformed);
  }
  return std::move(record->net);
}

}  // namespace rip::net

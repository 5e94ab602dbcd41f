#pragma once

/// @file netlist_io.hpp
/// Versioned on-disk netlist formats and the streaming reader/writer:
/// the one file grammar for nets. A file carries from one record (what
/// rip_cli's single-net commands read) to 10^6 records (a full-chip
/// sweep), so both formats are designed to be produced and consumed
/// incrementally: the writer never buffers more than one record, the
/// reader yields one record at a time and never loads the file, and
/// every record boundary has a byte offset that a checkpoint can store
/// and seek back to (eval/stream.hpp builds its resume protocol on
/// exactly that). The reader counts those offsets from the bytes each
/// record consumed (a text line and its '\n', which the file's last
/// line may lack; a binary length prefix and its payload); it never
/// asks the stream for its position per record.
///
/// A record is a net plus an optional per-net timing target in
/// femtoseconds (0 = unset; the stream driver then derives one), so a
/// file is a self-contained workload, not just geometry.
///
/// Text format ("ripnetlist 1") — line oriented and diffable; each
/// record is framed by `net <name>` ... `end`:
///
///     ripnetlist 1
///     net net_1
///     target_fs 2500000
///     driver 120
///     receiver 60
///     segment len_um 1500 r_ohm_per_um 0.108 c_ff_per_um 0.21 layer metal4
///     zone 900 2400
///     end
///     net net_2
///     ...
///     end
///
/// Lines beginning with '#' are comments. Tokens are separated by ASCII
/// whitespace, and a line may end in "\r\n". Doubles are written in
/// shortest-round-trip form (std::to_chars) and read with
/// rip::parse_double (std::from_chars, independent of the locale), so
/// text -> parse -> text reproduces the file byte for byte, subnormal
/// values included.
///
/// Binary format — magic "RNLB", u32 little-endian version (= 1), then
/// length-prefixed records until EOF:
///
///     u32 payload_bytes            (<= kMaxRecordBytes)
///     payload:
///       u16 name_bytes, name
///       f64 driver_width_u, f64 receiver_width_u, f64 target_fs
///       u32 segment_count
///         per segment: f64 len_um, f64 r_ohm_per_um, f64 c_ff_per_um,
///                      u16 layer_bytes, layer
///       u32 zone_count
///         per zone: f64 start_um, f64 end_um
///
/// All integers and IEEE-754 doubles are little-endian. EOF is valid
/// only at a record boundary.
///
/// Net and layer names are text tokens in both encodings (no ASCII
/// whitespace), and a stored target of -0 reads as 0 (unset), so every
/// record converts to the other encoding and back exactly.
///
/// Every malformed input — truncated file, bad magic or version, an
/// oversized length prefix, NaN or non-positive RC values, EOF in the
/// middle of a record — throws NetlistError carrying the file name and
/// the index of the offending record; the reader never returns a
/// partially parsed record and never crashes on hostile bytes.
///
/// Errors are classified (NetlistErrorKind) and, where the reader could
/// advance the stream to the next record boundary before throwing,
/// marked recoverable: a caller may keep calling next() and quarantine
/// just the bad record instead of aborting a million-net sweep. Framing
/// damage (a corrupt length prefix, EOF mid-payload) is never
/// recoverable — past it there is no trustworthy boundary.

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/net.hpp"
#include "util/error.hpp"

namespace rip::net {

/// Both on-disk netlist encodings. Readers sniff the leading magic;
/// writers take the format explicitly.
enum class NetlistFormat { kText, kBinary };

/// Hard ceiling on one binary record's payload (1 MiB — a plausible
/// record is a few hundred bytes). A length prefix above this is
/// rejected before any allocation, so a corrupt or hostile prefix can
/// not OOM the reader.
inline constexpr std::uint32_t kMaxNetlistRecordBytes = 1u << 20;

/// Longest net or layer name either encoding carries (the binary
/// encoding stores its length in 16 bits). The reader refuses a longer
/// text name as a malformed record and the writer refuses to write one,
/// so both encodings accept the same records.
inline constexpr std::size_t kMaxNetlistNameBytes = 0xffff;

/// Failure classes of the netlist layer, used by quarantine sidecars
/// to label bad records.
enum class NetlistErrorKind {
  kFraming,    ///< record framing / header damage — boundaries untrustworthy
  kMalformed,  ///< one record's content is invalid; framing held
  kIo,         ///< the I/O layer failed (open, read, write, flush)
};

/// Error type of the netlist layer: every parse failure carries the
/// file name (or stream label) and the 0-based index of the record
/// being parsed (-1 = the file header). what() renders as
/// "<path>: record <i>: <detail>" / "<path>: <detail>".
class NetlistError : public Error {
 public:
  NetlistError(const std::string& path, std::int64_t record_index,
               const std::string& detail,
               NetlistErrorKind kind = NetlistErrorKind::kFraming,
               bool recoverable = false, std::string net_name = {});

  const std::string& path() const { return path_; }
  /// 0-based record index, or -1 for a header-level failure.
  std::int64_t record_index() const { return record_index_; }

  NetlistErrorKind kind() const { return kind_; }
  /// Short classification label: "framing" / "malformed" / "io".
  const char* error_class() const;

  /// True when the reader advanced to the next record boundary before
  /// throwing: next() may be called again and only this record is lost.
  bool recoverable() const { return recoverable_; }

  /// Name of the offending net, when it parsed far enough to have one.
  const std::string& net_name() const { return net_name_; }

 private:
  std::string path_;
  std::int64_t record_index_;
  NetlistErrorKind kind_;
  bool recoverable_;
  std::string net_name_;
};

/// One parsed record: the net plus its optional stored timing target
/// (0 = the file carries none).
struct NetlistRecord {
  Net net;
  double tau_t_fs = 0.0;
};

/// Incremental netlist reader. Owns its stream when constructed from a
/// path; the istream overload borrows (useful for tests). Memory use is
/// one record regardless of file size.
class NetlistReader {
 public:
  /// Open `path` and parse the header. The format is sniffed from the
  /// leading magic bytes. Throws NetlistError on open or header failure.
  explicit NetlistReader(const std::string& path);

  /// Read from a caller-owned stream (already positioned at the
  /// header). `label` names the source in error messages.
  NetlistReader(std::istream& is, std::string label);

  /// Parse and return the next record, or nullopt at clean EOF (a
  /// record boundary). Throws NetlistError on any malformed input. If
  /// the error is recoverable() the reader has already advanced past
  /// the bad record and next() may be called again; otherwise the
  /// reader is poisoned and must not be reused. Hits the
  /// "netlist.read" fault point (keyed by record index) after each
  /// successful parse; an injected transient fault surfaces as a
  /// recoverable kIo NetlistError.
  std::optional<NetlistRecord> next();

  /// Index of the next unread record == records returned so far.
  std::uint64_t index() const { return index_; }

  /// Byte offset of the next unread record — valid checkpoint cut.
  std::uint64_t offset() const { return offset_; }

  /// Resume at a (offset, index) pair previously returned by offset()/
  /// index() — the checkpoint protocol's seek. The offset must address
  /// a record boundary of this same file: an offset past EOF, inside
  /// the header, or landing mid-record is rejected with a typed
  /// NetlistError up front (not as a confusing parse error on the next
  /// read). Every offset the reader reports is accepted, also one just
  /// before a damaged record, which the resumed read then reports as
  /// the uninterrupted read did.
  void seek(std::uint64_t offset, std::uint64_t record_index);

  NetlistFormat format() const { return format_; }
  const std::string& source() const { return label_; }

 private:
  [[noreturn]] void fail(const std::string& detail) const;
  void read_header();
  /// getline into line_, adding the bytes it consumed to `bytes`.
  bool read_line(std::uint64_t& bytes);
  void advance_boundary(std::uint64_t record_bytes);
  /// seek()'s boundary probes; both move the stream. Binary: a
  /// plausible length prefix starts at `offset`, or the chain of length
  /// prefixes from the header lands on it. Text: `offset` starts a line,
  /// and the last non-blank, non-comment line between the header and it
  /// is an 'end' line, or there is none.
  bool on_binary_boundary(std::uint64_t offset, std::uint64_t file_size);
  bool follows_record_end(std::uint64_t offset);
  std::optional<NetlistRecord> next_text();
  std::optional<NetlistRecord> next_binary();

  std::ifstream file_;
  std::istream* is_ = nullptr;
  std::string label_;
  NetlistFormat format_ = NetlistFormat::kText;
  std::uint64_t index_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t header_end_ = 0;  ///< first byte past the header
  // Text buffers reused across records; tokens_ views into line_.
  std::string line_;
  std::vector<std::string_view> tokens_;
};

/// Incremental netlist writer: header on construction, one record per
/// add(), nothing buffered beyond the stream's own buffer. close()
/// flushes and verifies the stream (also run by the destructor, which
/// swallows errors — call close() when you need the failure).
class NetlistWriter {
 public:
  NetlistWriter(const std::string& path, NetlistFormat format);
  NetlistWriter(std::ostream& os, NetlistFormat format, std::string label);
  ~NetlistWriter();

  NetlistWriter(const NetlistWriter&) = delete;
  NetlistWriter& operator=(const NetlistWriter&) = delete;

  /// Append one record. `tau_t_fs` must be 0 (no stored target) or a
  /// positive, finite femtosecond value.
  void add(const Net& net, double tau_t_fs = 0.0);

  /// Flush and verify; throws NetlistError if the stream went bad.
  void close();

  std::uint64_t count() const { return count_; }
  NetlistFormat format() const { return format_; }

 private:
  [[noreturn]] void fail(const std::string& detail) const;

  std::ofstream file_;
  std::ostream* os_ = nullptr;
  std::string label_;
  NetlistFormat format_;
  std::uint64_t count_ = 0;
  bool closed_ = false;
};

/// The net of a one-record netlist file in either encoding: the file
/// form of every single-net command. Throws NetlistError naming `path`
/// when the file holds no record or more than one; a stored target is
/// dropped.
Net read_single_net(const std::string& path);

/// Shortest-round-trip decimal rendering of a double (std::to_chars):
/// parsing the result reproduces the exact bits, and re-rendering the
/// parsed value reproduces the exact string — the property the text
/// format's byte-identical round trip rests on.
std::string format_double_exact(double v);

}  // namespace rip::net

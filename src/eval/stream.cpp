#include "eval/stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "dp/min_delay.hpp"
#include "eval/experiments.hpp"
#include "eval/service.hpp"
#include "net/netlist_io.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

namespace rip::eval {

namespace {

constexpr const char* kCheckpointMagic = "ripckpt 2";

/// The resume cut: everything a killed run needs to continue
/// byte-identically. All quantities refer to a processed-record
/// boundary (a record is processed when its CSV row — or its
/// quarantine row — is on disk).
struct Checkpoint {
  std::uint64_t input_bytes = 0;   ///< input file size (identity check)
  std::uint64_t input_offset = 0;  ///< byte offset of first unprocessed record
  std::uint64_t next_index = 0;    ///< index of first unprocessed record
  std::uint64_t output_bytes = 0;  ///< output size covering those rows
  std::uint64_t errors_bytes = 0;  ///< sidecar size covering those rows
  std::uint64_t quarantined = 0;   ///< records quarantined so far
};

std::uint64_t parse_u64(std::string_view s, const std::string& context) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    throw Error(context + ": malformed unsigned integer '" + std::string(s) +
                "'");
  }
  return v;
}

/// Render the checkpoint body (everything the trailing CRC line covers).
std::string checkpoint_payload(const Checkpoint& ck) {
  std::string payload = kCheckpointMagic;
  payload += '\n';
  payload += "input_bytes " + std::to_string(ck.input_bytes) + "\n";
  payload += "input_offset " + std::to_string(ck.input_offset) + "\n";
  payload += "next_index " + std::to_string(ck.next_index) + "\n";
  payload += "output_bytes " + std::to_string(ck.output_bytes) + "\n";
  payload += "errors_bytes " + std::to_string(ck.errors_bytes) + "\n";
  payload += "quarantined " + std::to_string(ck.quarantined) + "\n";
  return payload;
}

std::string crc32_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

/// Parse and verify a checkpoint file: `ripckpt 2` with a CRC trailer.
/// Throws rip::Error, with a message for the user (no source location),
/// on anything unreadable, malformed, or CRC-corrupt — the caller
/// decides whether that is fatal or a degradation to the `.prev`
/// checkpoint.
Checkpoint read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw Error("cannot open checkpoint file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  const std::size_t eol = content.find('\n');
  if (eol == std::string::npos) {
    throw Error(path + ": truncated checkpoint file");
  }
  if (trim(content.substr(0, eol)) != kCheckpointMagic) {
    throw Error(path + ": not a ripckpt 2 checkpoint file");
  }

  // The last line must be `crc32 <hex>` and it must verify over every
  // preceding byte — a torn temp file or a bit flip fails here.
  const std::size_t crc_pos = content.rfind("crc32 ");
  if (crc_pos == std::string::npos || crc_pos == 0 ||
      content[crc_pos - 1] != '\n') {
    throw Error(path + ": checkpoint is missing its crc32 trailer");
  }
  const std::string stored = trim(content.substr(crc_pos + 6));
  const std::string computed = crc32_hex(crc32(content.data(), crc_pos));
  if (stored != computed) {
    throw Error(path + ": checkpoint CRC mismatch (stored " + stored +
                ", computed " + computed + ")");
  }
  const std::string body = content.substr(0, crc_pos);

  Checkpoint ck;
  bool have_input_bytes = false, have_offset = false, have_index = false,
       have_output = false;
  std::istringstream lines(body);
  std::string line;
  std::vector<std::string_view> tokens;
  std::getline(lines, line);  // the magic line
  while (std::getline(lines, line)) {
    split_ws(line, tokens);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    if (tokens.size() != 2) {
      throw Error(path + ": malformed checkpoint line '" + trim(line) + "'");
    }
    const std::string context = path + " " + std::string(tokens[0]);
    if (tokens[0] == "input_bytes") {
      ck.input_bytes = parse_u64(tokens[1], context);
      have_input_bytes = true;
    } else if (tokens[0] == "input_offset") {
      ck.input_offset = parse_u64(tokens[1], context);
      have_offset = true;
    } else if (tokens[0] == "next_index") {
      ck.next_index = parse_u64(tokens[1], context);
      have_index = true;
    } else if (tokens[0] == "output_bytes") {
      ck.output_bytes = parse_u64(tokens[1], context);
      have_output = true;
    } else if (tokens[0] == "errors_bytes") {
      ck.errors_bytes = parse_u64(tokens[1], context);
    } else if (tokens[0] == "quarantined") {
      ck.quarantined = parse_u64(tokens[1], context);
    } else {
      throw Error(path + ": unknown checkpoint key '" + std::string(tokens[0]) +
                  "'");
    }
  }
  if (!(have_input_bytes && have_offset && have_index && have_output)) {
    throw Error(path + ": checkpoint is missing required keys");
  }
  return ck;
}

/// Durable atomic replace. The temp file is written with POSIX I/O and
/// fsynced before any rename, the previous checkpoint is rotated to
/// `<path>.prev` first, and only then is the temp renamed over the
/// target — so a kill at ANY instant leaves at least one checkpoint
/// whose CRC verifies (the old one, the rotated one, or the new one).
/// `ordinal` is the 1-based checkpoint count of this run: the key of
/// the ckpt.write / ckpt.rename / ckpt.commit fault points.
void write_checkpoint(const std::string& path, const Checkpoint& ck,
                      std::uint64_t ordinal) {
  const std::string payload = checkpoint_payload(ck);
  const std::string trailer =
      "crc32 " + crc32_hex(crc32(payload.data(), payload.size())) + "\n";
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw Error("cannot write checkpoint temp file: " + tmp);
  const auto write_all = [&](const char* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::write(fd, data, size);
      if (n < 0) {
        ::close(fd);
        throw Error("checkpoint write failed: " + tmp);
      }
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  };
  try {
    // ckpt.write fires mid-payload: a 'crash' here leaves a torn temp
    // file that the CRC check rejects — the committed checkpoint is
    // untouched.
    const std::size_t half = payload.size() / 2;
    write_all(payload.data(), half);
    fire_fault("ckpt.write", ordinal);
    write_all(payload.data() + half, payload.size() - half);
    write_all(trailer.data(), trailer.size());
    if (::fsync(fd) != 0) throw Error("cannot fsync checkpoint " + tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);

  if (std::filesystem::exists(path)) {
    const std::string prev = path + ".prev";
    if (std::rename(path.c_str(), prev.c_str()) != 0) {
      throw Error("cannot rotate checkpoint " + path + " -> " + prev);
    }
  }
  // ckpt.rename fires between the rotation and the commit: a 'crash'
  // here leaves only `.prev`, which resume degrades to.
  fire_fault("ckpt.rename", ordinal);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("cannot rename checkpoint " + tmp + " -> " + path);
  }
  // ckpt.commit fires after the rename: a 'crash' here finds the new
  // checkpoint already durable.
  fire_fault("ckpt.commit", ordinal);
}

std::uint64_t file_size_of(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw Error("cannot stat " + path + ": " + ec.message());
  return static_cast<std::uint64_t>(size);
}

/// One deterministic CSV row. No wall-clock fields, so an interrupted
/// and a straight-through run produce identical bytes.
std::string format_row(std::uint64_t index, const std::string& name,
                       const CaseResult& r) {
  std::string row = std::to_string(index);
  row += ',';
  row += name;
  row += ',';
  row += fmt_f(units::fs_to_ns(r.tau_t_fs), 3);
  row += ',';
  row += r.rip_feasible ? fmt_f(r.rip_width_u, 0) : "VIOL";
  row += ',';
  row += r.dp_feasible ? fmt_f(r.dp_width_u, 0) : "VIOL";
  row += ',';
  row += (r.rip_feasible && r.dp_feasible) ? fmt_f(r.improvement_pct, 2)
                                           : "-";
  row += '\n';
  return row;
}

constexpr const char* kHeader = "idx,name,tau_t_ns,rip_u,dp_u,impr_pct\n";
constexpr const char* kErrorsHeader = "idx,name,class,detail\n";

/// Keep a free-text field inside one CSV cell: commas become
/// semicolons, newlines become spaces.
std::string csv_sanitize(std::string s) {
  for (char& c : s) {
    if (c == ',') c = ';';
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string format_error_row(std::uint64_t index, const std::string& name,
                             const std::string& error_class,
                             const std::string& detail) {
  std::string row = std::to_string(index);
  row += ',';
  row += csv_sanitize(name);
  row += ',';
  row += error_class;
  row += ',';
  row += csv_sanitize(detail);
  row += '\n';
  return row;
}

/// A record in flight: its identity plus the future of its result. The
/// Net itself is owned by the evaluation thunk (shared_ptr), so it dies
/// as soon as a worker has run the case — the window
/// never pins more than window_cap nets. A record whose READ already
/// failed recoverably enters the window as a sentinel (no future, a
/// fail_class instead) so quarantine rows drain in index order with
/// everything else.
struct InFlight {
  std::uint64_t index = 0;
  std::uint64_t start_offset = 0;  ///< where this record begins on disk
  std::string name;
  std::future<CaseResult> future;
  std::string fail_class;   ///< non-empty = failed at read (io/malformed)
  std::string fail_detail;
};

}  // namespace

StreamResult run_stream(const tech::Technology& tech,
                        const std::string& input_path,
                        const std::string& output_path,
                        const StreamOptions& options) {
  RIP_REQUIRE(options.checkpoint_every == 0 || !options.checkpoint_path.empty(),
              "checkpoint_every > 0 requires checkpoint_path");
  RIP_REQUIRE(!options.resume || !options.checkpoint_path.empty(),
              "resume requires checkpoint_path");
  RIP_REQUIRE(options.default_target_x > 0,
              "default_target_x must be positive");
  RIP_REQUIRE(options.retry.max_attempts >= 1,
              "retry.max_attempts must be >= 1");
  const bool quarantine = !options.errors_path.empty();

  WallTimer timer;
  net::NetlistReader reader(input_path);
  const std::uint64_t input_bytes = file_size_of(input_path);

  StreamResult result;
  std::uint64_t output_bytes = 0;
  std::uint64_t errors_bytes = 0;
  std::uint64_t quarantined_before = 0;  ///< from the resumed checkpoint

  // Resume: pick the newest checkpoint whose CRC verifies — the main
  // file, or `.prev` if the main one is torn/corrupt (a kill mid-write
  // can leave exactly that). If neither verifies, restart cleanly with
  // a warning rather than trusting torn state. A mismatched input size
  // on a VALID checkpoint is still a hard error (wrong file, not
  // corruption). A missing checkpoint under --resume means "nothing
  // saved yet": start fresh.
  bool fresh = true;
  std::optional<Checkpoint> ck;
  if (options.resume) {
    const std::string candidates[] = {options.checkpoint_path,
                                      options.checkpoint_path + ".prev"};
    for (const std::string& candidate : candidates) {
      if (!std::filesystem::exists(candidate)) continue;
      try {
        ck = read_checkpoint(candidate);
        break;
      } catch (const Error& e) {
        std::fprintf(stderr, "rip: ignoring unusable checkpoint: %s\n",
                     e.what());
      }
    }
  }
  if (ck.has_value()) {
    // User-facing refusals: typed errors without a source location.
    if (ck->input_bytes != input_bytes) {
      throw Error("checkpoint " + options.checkpoint_path + " was taken on a " +
                  std::to_string(ck->input_bytes) + "-byte input, but " +
                  input_path + " is " + std::to_string(input_bytes) +
                  " bytes");
    }
    if (!std::filesystem::exists(output_path)) {
      throw Error("resume: output file " + output_path + " does not exist");
    }
    const std::uint64_t have = file_size_of(output_path);
    if (have < ck->output_bytes) {
      throw Error("resume: output file " + output_path + " (" +
                  std::to_string(have) + " bytes) is shorter than the "
                  "checkpoint's " + std::to_string(ck->output_bytes) +
                  " bytes — wrong file?");
    }
    std::error_code ec;
    std::filesystem::resize_file(output_path, ck->output_bytes, ec);
    if (ec) {
      throw Error("resume: cannot truncate " + output_path + ": " +
                  ec.message());
    }
    reader.seek(ck->input_offset, ck->next_index);
    result.resumed_from = ck->next_index;
    output_bytes = ck->output_bytes;
    quarantined_before = ck->quarantined;
    fresh = false;
  }

  std::ofstream out(output_path, fresh
                                     ? std::ios::binary | std::ios::trunc
                                     : std::ios::binary | std::ios::app);
  if (!out.good()) throw Error("cannot open output file: " + output_path);
  if (fresh) {
    out << kHeader;
    output_bytes = std::string(kHeader).size();
  }

  // The quarantine sidecar follows the output's resume discipline:
  // truncate back to the checkpointed byte count, or start fresh when
  // the checkpoint covers no sidecar rows or the file is gone.
  std::ofstream err_out;
  if (quarantine) {
    bool err_fresh = true;
    if (!fresh && ck->errors_bytes > 0 &&
        std::filesystem::exists(options.errors_path) &&
        file_size_of(options.errors_path) >= ck->errors_bytes) {
      std::error_code ec;
      std::filesystem::resize_file(options.errors_path, ck->errors_bytes, ec);
      if (ec) {
        throw Error("resume: cannot truncate " + options.errors_path + ": " +
                    ec.message());
      }
      errors_bytes = ck->errors_bytes;
      err_fresh = false;
    }
    err_out.open(options.errors_path,
                 err_fresh ? std::ios::binary | std::ios::trunc
                           : std::ios::binary | std::ios::app);
    if (!err_out.good()) {
      throw Error("cannot open errors file: " + options.errors_path);
    }
    if (err_fresh) {
      err_out << kErrorsHeader;
      errors_bytes = std::string(kErrorsHeader).size();
    }
  }

  // A failed open, write or flush is the user's file system, not a broken
  // contract: each is a plain rip::Error, with no source location.
  const auto flush_outputs = [&] {
    out.flush();
    if (!out.good()) throw Error("flush failed on " + output_path);
    if (quarantine) {
      err_out.flush();
      if (!err_out.good()) {
        throw Error("flush failed on " + options.errors_path);
      }
    }
  };

  ServiceOptions service_options;
  service_options.jobs = options.jobs;
  service_options.max_pending = options.max_pending;
  service_options.retry = options.retry;
  EvalService service(tech, service_options);

  // The reorder window: big enough to keep the service fed past the
  // head-of-line wait, small enough to bound resident records.
  const std::size_t window_cap =
      options.max_pending == 0
          ? 256
          : std::max<std::size_t>(2 * options.max_pending, 16);

  std::deque<InFlight> window;
  std::uint64_t records_done = result.resumed_from;
  bool eof = false;
  bool stopped = false;

  const auto submit_record = [&](net::NetlistRecord&& record,
                                 std::uint64_t index,
                                 std::uint64_t start_offset) {
    InFlight f;
    f.index = index;
    f.start_offset = start_offset;
    f.name = record.net.name();
    const auto net = std::make_shared<const net::Net>(std::move(record.net));
    const double stored_target = record.tau_t_fs;
    // The thunk owns the net; target resolution (possibly a tau_min
    // solve) happens on the worker so the read loop stays cheap. The
    // record index keys the solve.* fault points (same records fault at
    // any job count) and the deadline lives for exactly one attempt —
    // a retry starts a fresh budget.
    f.future = service.submit_fn([&tech, &options, net, stored_target, index] {
      double tau_t_fs = stored_target;
      if (tau_t_fs <= 0) {
        const auto md = dp::min_delay(*net, tech.device());
        tau_t_fs = options.default_target_x * md.tau_min_fs;
      }
      SolveContext ctx = options.context;
      ctx.fault_key = index;
      const Deadline deadline(options.deadline_ms);
      if (deadline.active()) ctx.deadline = &deadline;
      return run_case(*net, tech, tau_t_fs, options.rip, options.baseline,
                      ctx);
    });
    window.push_back(std::move(f));
  };

  while (true) {
    // Fill: read and submit until the window is full or the input ends.
    // A recoverable read failure (malformed record, injected I/O error)
    // becomes a failed-at-read sentinel in the window when quarantine
    // is on — the reader has already advanced to the next record
    // boundary, so the sweep continues.
    while (!eof && window.size() < window_cap) {
      const std::uint64_t start_offset = reader.offset();
      const std::uint64_t index = reader.index();
      std::optional<net::NetlistRecord> record;
      try {
        record = reader.next();
      } catch (const net::NetlistError& e) {
        if (!quarantine || !e.recoverable()) throw;
        InFlight f;
        f.index = index;
        f.start_offset = start_offset;
        f.name = e.net_name();
        f.fail_class = e.error_class();
        f.fail_detail = e.what();
        window.push_back(std::move(f));
        continue;
      }
      if (!record.has_value()) {
        eof = true;
        break;
      }
      submit_record(std::move(*record), index, start_offset);
    }
    if (window.empty()) break;  // input drained and every row written

    // Drain: block on the oldest case, write its row — or its
    // quarantine row — and free its slot.
    InFlight front = std::move(window.front());
    window.pop_front();
    std::string row;
    std::string error_class;
    std::string error_detail;
    if (!front.fail_class.empty()) {
      error_class = front.fail_class;
      error_detail = front.fail_detail;
    } else {
      try {
        const CaseResult case_result = front.future.get();
        row = format_row(front.index, front.name, case_result);
      } catch (const DeadlineExceeded& e) {
        if (!quarantine) throw;
        error_class = "deadline";
        error_detail = e.what();
      } catch (const Error& e) {
        if (!quarantine) throw;
        error_class = "solve";
        error_detail = e.what();
      }
      // Anything that is not a rip::Error — above all InjectedCrash,
      // the simulated process kill — propagates: quarantine recovers
      // from bad records, never from a dying process.
    }
    if (!row.empty()) {
      out.write(row.data(), static_cast<std::streamsize>(row.size()));
      if (!out.good()) throw Error("write failed on " + output_path);
      output_bytes += row.size();
      ++result.rows_written;
    } else {
      const std::string err_row = format_error_row(front.index, front.name,
                                                   error_class, error_detail);
      err_out.write(err_row.data(),
                    static_cast<std::streamsize>(err_row.size()));
      if (!err_out.good()) {
        throw Error("write failed on " + options.errors_path);
      }
      errors_bytes += err_row.size();
      ++result.rows_quarantined;
    }
    records_done =
        result.resumed_from + result.rows_written + result.rows_quarantined;

    if (options.checkpoint_every > 0 &&
        records_done % options.checkpoint_every == 0) {
      flush_outputs();
      Checkpoint next;
      next.input_bytes = input_bytes;
      next.input_offset =
          window.empty() ? reader.offset() : window.front().start_offset;
      next.next_index = records_done;
      next.output_bytes = output_bytes;
      next.errors_bytes = errors_bytes;
      next.quarantined = quarantined_before + result.rows_quarantined;
      write_checkpoint(options.checkpoint_path, next,
                       result.checkpoints_written + 1);
      ++result.checkpoints_written;
    }

    if (options.stop_after > 0 &&
        result.rows_written >= options.stop_after && (!eof || !window.empty())) {
      // Simulated kill: abandon the in-flight tail (the service drains
      // it on destruction; the rows are simply never written) and do
      // NOT write a parting checkpoint — resume must recover from the
      // last periodic one, exactly as after a real crash.
      stopped = true;
      service.cancel_pending();
      break;
    }
  }

  result.finished = !stopped;
  result.rows_total = records_done;
  result.quarantined_total = quarantined_before + result.rows_quarantined;

  if (result.finished && options.checkpoint_every > 0) {
    // Final checkpoint: marks the whole input as processed, so a resume
    // of a completed run is a no-op with byte-identical output.
    flush_outputs();
    Checkpoint final_ck;
    final_ck.input_bytes = input_bytes;
    final_ck.input_offset = reader.offset();
    final_ck.next_index = records_done;
    final_ck.output_bytes = output_bytes;
    final_ck.errors_bytes = errors_bytes;
    final_ck.quarantined = result.quarantined_total;
    write_checkpoint(options.checkpoint_path, final_ck,
                     result.checkpoints_written + 1);
    ++result.checkpoints_written;
  }

  flush_outputs();
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace rip::eval

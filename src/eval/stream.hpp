#pragma once

/// @file stream.hpp
/// The bounded-memory streaming sweep driver: pull (net, target) cases
/// incrementally from an on-disk netlist (net/netlist_io.hpp), feed
/// them through the asynchronous EvalService, and emit one CSV row per
/// case in input order — with peak memory independent of how many
/// records the file holds.
///
/// Memory model: at most `window()` records are alive at once — each
/// in-flight record owns its Net; the driver stops reading whenever the
/// window is full, blocks on the OLDEST in-flight case, writes its row,
/// and frees it before reading another record. Backpressure composes:
/// the service's own bounded queue (ServiceOptions::max_pending, from
/// StreamOptions::max_pending) throttles submission, and the reorder
/// window (sized from max_pending) bounds retained results. A
/// million-net file therefore streams at the same peak RSS as a
/// ten-thousand-net file (the bench_stream.peak_rss_is_flat ctest runs
/// bench/bench_stream.cpp, which measures that ratio from 10^4 to 10^5
/// records and fails if it drifts).
///
/// Checkpoint/resume protocol: every `checkpoint_every` processed
/// records the driver flushes the output (and the quarantine sidecar)
/// and atomically replaces the checkpoint file with
///
///     ripckpt 2
///     input_bytes  <input file size, sanity check on resume>
///     input_offset <byte offset of the first unprocessed record>
///     next_index   <index of the first unprocessed record>
///     output_bytes <output size covering exactly the processed rows>
///     errors_bytes <sidecar size covering the processed quarantines>
///     quarantined  <records quarantined so far>
///     crc32 <hex>  <CRC-32 of every preceding byte>
///
/// Durability: the temp file is fsynced before the atomic rename, and
/// the previous checkpoint is rotated to `<path>.prev` first — so a
/// kill at ANY instant (mid-temp-write, between the rotation and the
/// rename, after the rename) leaves at least one checkpoint whose CRC
/// verifies. Resume validates the CRC and degrades: a corrupt or torn
/// checkpoint falls back to `.prev`; if neither verifies, the run
/// restarts cleanly with a warning rather than trusting torn state.
///
/// A checkpoint cut is always a processed-record boundary: records <
/// next_index are fully accounted (a CSV row, or a quarantine row),
/// records >= next_index will be (re-)read and (re-)solved after a
/// resume. Resuming seeks the reader to input_offset, truncates the
/// output and sidecar back to their checkpointed byte counts
/// (discarding rows a killed run may have written past the last
/// checkpoint), and continues; because every solve is deterministic and
/// rows are written in input order, a resumed run's final output is
/// byte-identical to an uninterrupted run's. Solves after a crash are
/// repeated, never skipped — the protocol re-does work, it never
/// invents or loses rows.
///
/// Fault tolerance: with `errors_path` set, a record that fails —
/// malformed on disk, I/O error while reading, a solve that throws, or
/// a blown `deadline_ms` budget — is quarantined instead of aborting
/// the sweep: one row `idx,name,class,detail` goes to the sidecar
/// (class in {io, malformed, solve, deadline}) and the surviving rows
/// of the main CSV are byte-identical to an unfaulted run minus the
/// quarantined indices. Without `errors_path`, the first failure
/// propagates (the pre-quarantine behavior). InjectedCrash always
/// propagates — it simulates a process kill, which no recovery layer
/// may swallow. Transient failures are retried first per `retry`.
///
/// Rows carry only deterministic fields (no wall clock):
///     idx,name,tau_t_ns,rip_u,dp_u,impr_pct
/// Infeasible solves render as VIOL, like the sweep tables.

#include <cstdint>
#include <string>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "eval/context.hpp"
#include "eval/service.hpp"
#include "tech/technology.hpp"

namespace rip::eval {

/// Knobs of the streaming driver.
struct StreamOptions {
  /// Worker threads of the underlying EvalService (0 = all hardware
  /// threads).
  int jobs = 1;
  /// Bounded-queue backpressure of the service AND the sizing input of
  /// the reorder window (window = max(2 * max_pending, 16); 0 =
  /// unbounded queue with the default 256-record window).
  std::size_t max_pending = 64;
  /// Write a checkpoint every this many completed rows (0 = never).
  /// Requires checkpoint_path when non-zero.
  std::uint64_t checkpoint_every = 0;
  /// Checkpoint file location; the temp file is `checkpoint_path +
  /// ".tmp"` in the same directory so the rename is atomic.
  std::string checkpoint_path;
  /// Resume from checkpoint_path instead of starting over. The
  /// checkpoint must match the input file (size check); the output file
  /// is truncated back to the checkpointed byte count.
  bool resume = false;
  /// Test/fault-injection hook: stop cleanly after this many rows have
  /// been written THIS run (0 = run to EOF) — without writing a final
  /// checkpoint, exactly like a kill would. The checkpoint on disk then
  /// trails the output, which is what resume must cope with.
  std::uint64_t stop_after = 0;
  /// Target for records that carry none (tau_t_fs == 0 in the file):
  /// default_target_x * tau_min, with tau_min solved per net inside the
  /// worker on dp::MinDelayOptions' default grid, the one stored targets
  /// use (expensive — prefer stored targets for big files).
  double default_target_x = 1.5;
  /// Quarantine sidecar CSV (`idx,name,class,detail`). Non-empty
  /// enables quarantine: failed records become sidecar rows and the
  /// sweep continues. Empty (default) keeps fail-fast behavior.
  std::string errors_path;
  /// Cooperative per-case deadline in milliseconds (0 = none), checked
  /// between solve stages on the worker. With quarantine enabled a
  /// blown budget quarantines the record with class "deadline".
  double deadline_ms = 0;
  /// Transient-failure retry policy of the underlying EvalService:
  /// util::TransientError (flaky I/O, injected 'err' faults) re-runs
  /// the case with deterministic backoff before it counts as failed.
  RetryPolicy retry;
  /// Solver options applied to every case.
  core::RipOptions rip;
  core::BaselineOptions baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  /// Ambient solve state (cache/backend). Each case sets its own
  /// fault_key (its record index) and deadline on a copy.
  SolveContext context;
};

/// Outcome of one run_stream call.
struct StreamResult {
  /// Rows written by THIS run (excludes rows restored via resume and
  /// quarantined records).
  std::uint64_t rows_written = 0;
  /// Records quarantined to the errors sidecar by THIS run.
  std::uint64_t rows_quarantined = 0;
  /// Record index the run started at (0, or the checkpoint's
  /// next_index — rows written plus records quarantined before it).
  std::uint64_t resumed_from = 0;
  /// Total records now accounted for: resumed_from + rows_written +
  /// rows_quarantined. With no quarantined records this is exactly the
  /// CSV row count on disk.
  std::uint64_t rows_total = 0;
  /// Records quarantined in total, including runs before a resume.
  std::uint64_t quarantined_total = 0;
  /// True if the input was drained to EOF (false = stop_after fired).
  bool finished = false;
  /// Checkpoints written by this run.
  std::uint64_t checkpoints_written = 0;
  double elapsed_s = 0;
};

/// Stream every record of `input_path` (text or binary netlist) through
/// the evaluation service and write one CSV row per record to
/// `output_path`. See the file comment for the memory and checkpoint
/// contracts. Throws rip::Error (netlist failures arrive as
/// net::NetlistError with file + record context).
StreamResult run_stream(const tech::Technology& tech,
                        const std::string& input_path,
                        const std::string& output_path,
                        const StreamOptions& options = {});

}  // namespace rip::eval

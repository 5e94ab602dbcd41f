#pragma once

/// @file parallel.hpp
/// The parallel batch-evaluation engine. The paper's whole evaluation
/// (Tables 1-2, Fig. 7) is an embarrassingly parallel sweep over
/// (net, target, scheme) cases; this module fans those cases out over
/// the persistent util::Scheduler while keeping results bit-identical
/// to the serial loop: every case writes only its own slot and
/// reductions stay serial in input order.
///
/// On top of the in-process fan-out (`jobs`), a sweep can be split
/// across processes or machines: shard_case_indices() selects a
/// deterministic round-robin subset of the cases (case i belongs to
/// shard i % shard_count), each shard runs its own cases, and
/// scattering each shard's results back to those indices rebuilds the
/// unsharded result vector bit for bit. rip_cli `sweep`/`compare`
/// `--shard I/N` build only their shard's cases this way, and
/// `rip_cli merge` reassembles the shard CSVs on their `idx` column.
///
/// run_cases is one parallel_for_indexed over its cases. A Case
/// submitted to the asynchronous eval::EvalService (eval/service.hpp)
/// is a submit_fn thunk that calls the same evaluate_case, so both
/// produce the same bits.
///
/// Memory model: every case's DP solves run on the evaluating thread's
/// own dp::Workspace::local(), so a long sweep performs zero
/// steady-state allocations in the DP kernel regardless of which worker
/// claims which case. Workspace state never leaks into results
/// — any job count stays bit-identical to the serial loop.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "eval/context.hpp"
#include "eval/experiments.hpp"
#include "tech/technology.hpp"

namespace rip::eval {

/// One unit of batch work: a net, a timing target, and both schemes'
/// options. The pointed-to net must outlive the run_cases call.
/// BaselineOptions carries a repeater library and so has no default
/// state — build cases with aggregate init:
///   Case{&net, tau_t_fs, core::RipOptions{}, baseline}
struct Case {
  const net::Net* net;
  double tau_t_fs;
  core::RipOptions rip;
  core::BaselineOptions baseline;
  /// Cooperative per-case deadline in milliseconds (<= 0 = none). The
  /// evaluating thread checks it between solve stages; a blown budget
  /// fails this case's future with util::DeadlineExceeded without
  /// touching its batch neighbours. Each retry attempt (see
  /// ServiceOptions::retry) gets a fresh budget.
  double deadline_ms = 0;
};

/// Knobs of the batch engine.
struct BatchOptions {
  /// Worker threads: 1 = serial on the calling thread (the reference
  /// path the golden tests pin), 0 = one per hardware thread.
  int jobs = 1;
  /// Ambient solve state (eval/context.hpp): the shared frontier cache
  /// every case's target-independent DP solves consult, and the
  /// objective backend every solve minimizes. `context.workspace` must
  /// stay nullptr — each scheduler participant evaluates on its own
  /// dp::Workspace::local(). Everything pointed at must outlive the
  /// run_cases call.
  SolveContext context;
};

/// Global indices owned by one shard of a round-robin split (case i
/// belongs to shard i % shard_count), in ascending (input) order.
std::vector<std::size_t> shard_case_indices(std::size_t case_count,
                                            int shard_index,
                                            int shard_count);

/// Evaluate one Case with eval::run_case on the calling thread's
/// dp::Workspace::local(), under the case's own deadline (a fresh
/// budget per call, so a retry starts over) and with `fault_key` as its
/// solve.* fault-point key unless `context` already pins one; a case
/// without a net throws rip::Error. The one per-case body of run_cases
/// and of every EvalService thunk that evaluates a Case.
CaseResult evaluate_case(const tech::Technology& tech, const Case& c,
                         SolveContext context, std::uint64_t fault_key);

/// Evaluate every case (RIP + the DP baseline) and return the results
/// in input order. Runtimes (`rip_runtime_s`, `dp_runtime_s`) are wall
/// clock measured inside the worker, per task — never around the whole
/// batch — so runtime columns stay meaningful at any job count. jobs=1
/// is the plain serial loop on the calling thread; jobs>1 is
/// bit-identical because cases are independent and each writes only
/// its own slot. A failing case stops the batch: cases not yet started
/// are skipped and the lowest failing index's exception is rethrown.
std::vector<CaseResult> run_cases(const tech::Technology& tech,
                                  std::span<const Case> cases,
                                  const BatchOptions& options = {});

}  // namespace rip::eval

#pragma once

/// @file buffered_chain.hpp
/// Stage decomposition of a buffered two-pin net (Fig. 3 of the paper)
/// and exact Elmore evaluation of Eq. (2).
///
/// This evaluator is deliberately *independent* of the DP engine's
/// incremental delay bookkeeping: tests use it to cross-check every DP
/// and RIP solution. It is also REFINE's stage model: the width solve
/// and the location derivatives read its per-stage wire totals (R_i,
/// C_i in the paper's notation), and each lambda probe re-sizes one
/// chain in place (set_widths) instead of decomposing the net again.

#include <vector>

#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace rip::rc {

/// One stage of a buffered net: the run of wire between consecutive
/// repeaters (or driver/receiver), with its driving width and the load
/// width at the far end.
struct Stage {
  double driver_width_u = 0;   ///< w_i: width of the driving repeater
  double load_width_u = 0;     ///< w_{i+1}: width of the receiving gate
  double from_um = 0;          ///< stage start position
  double to_um = 0;            ///< stage end position
  std::vector<net::WirePiece> pieces;  ///< wire pieces, driver->load order
  double wire_resistance_ohm = 0;      ///< R_i: total stage wire resistance
  double wire_capacitance_ff = 0;      ///< C_i: total stage wire capacitance
};

/// A net plus a repeater solution, decomposed into stages.
class BufferedChain {
 public:
  /// Decompose `net` buffered with `solution`. Repeater positions must be
  /// strictly inside (0, L); the solution need not be zone-legal (REFINE
  /// evaluates trial placements), but must be ordered (guaranteed by
  /// RepeaterSolution).
  BufferedChain(const net::Net& net, const net::RepeaterSolution& solution,
                const tech::RepeaterDevice& device);

  /// Stage list; size() == solution.size() + 1.
  const std::vector<Stage>& stages() const { return stages_; }

  /// Re-size the repeaters in place, keeping positions and wire pieces:
  /// repeater i (stage i's load, stage i+1's driver) gets widths_u[i].
  /// Throws rip::Error unless there is one width per repeater.
  void set_widths(const std::vector<double>& widths_u);

  /// Elmore delay of stage `i` per Eq. (1) [fs].
  double stage_delay_fs(std::size_t i) const;

  /// Total delay per Eq. (2): sum of all stage delays [fs].
  double total_delay_fs() const;

 private:
  const tech::RepeaterDevice device_;
  std::vector<Stage> stages_;
};

/// Convenience wrapper: Elmore delay of `net` buffered with `solution`.
double elmore_delay_fs(const net::Net& net,
                       const net::RepeaterSolution& solution,
                       const tech::RepeaterDevice& device);

}  // namespace rip::rc

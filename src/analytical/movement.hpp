#pragma once

/// @file movement.hpp
/// REFINE's repeater movement step (Fig. 5, lines 4-5).
///
/// At a power-optimal placement, the one-sided derivatives of the total
/// delay with respect to each repeater location satisfy (with lambda > 0)
///   (d tau / d x_i)+ >= 0   and   (d tau / d x_i)- <= 0      (Eqs. 22-23)
/// with the explicit forms of Eqs. (17)-(18). If the right-hand
/// derivative is negative, moving the repeater downstream reduces delay,
/// creating slack that the width re-solve converts into smaller
/// repeaters (Eq. 13); symmetrically for the left-hand derivative.

#include <vector>

#include "net/net.hpp"
#include "tech/technology.hpp"

namespace rip::analytical {

/// One-sided location derivatives of tau_total for one repeater [fs/um].
struct LocationDerivatives {
  double right = 0;  ///< (d tau / d x_i)+, Eq. (17)
  double left = 0;   ///< (d tau / d x_i)-, Eq. (18)
};

/// Evaluate Eqs. (17)/(18) for every repeater at the given placement,
/// from the stage totals of its rc::BufferedChain. Positions must be
/// sorted, strictly inside (0, L).
std::vector<LocationDerivatives> location_derivatives(
    const net::Net& net, const tech::RepeaterDevice& device,
    const std::vector<double>& positions_um,
    const std::vector<double>& widths_u);

/// Apply one movement pass of `step_um` (> 0), mutating `positions_um`.
/// A repeater moves downstream if its right derivative is negative,
/// upstream if its left derivative is positive (the larger violation
/// wins when both), and stays put when the move would cross a
/// neighbour, leave the net, or enter a forbidden zone — unless
/// `allow_zone_hop` (the Section 7 extension), which lands such a move
/// on the zone's far boundary instead. Repeaters keep 1 um from each
/// other and from the pins. Returns how many repeaters moved.
int move_repeaters(const net::Net& net, const tech::RepeaterDevice& device,
                   std::vector<double>& positions_um,
                   const std::vector<double>& widths_u, double step_um,
                   bool allow_zone_hop);

}  // namespace rip::analytical

#include "analytical/movement.hpp"

#include <algorithm>
#include <cmath>

#include "analytical/width_solver.hpp"
#include "rc/buffered_chain.hpp"
#include "util/error.hpp"

namespace rip::analytical {

std::vector<LocationDerivatives> location_derivatives(
    const net::Net& net, const tech::RepeaterDevice& device,
    const std::vector<double>& positions_um,
    const std::vector<double>& widths_u) {
  const rc::BufferedChain chain(net, repeaters_at(positions_um, widths_u),
                                device);
  const auto& stages = chain.stages();
  const double rs = device.rs_ohm;
  const double co = device.co_ff;

  std::vector<LocationDerivatives> derivs(positions_um.size());
  for (std::size_t i = 0; i < derivs.size(); ++i) {
    // Repeater i loads stage i and drives stage i+1.
    const double w = stages[i].load_width_u;
    const double w_prev = stages[i].driver_width_u;
    const double w_next = stages[i + 1].load_width_u;
    const double r_up_total = stages[i].wire_resistance_ohm;        // R_{i-1}
    const double c_down_total = stages[i + 1].wire_capacitance_ff;  // C_i

    // Eq. (17)/(18): same expression, evaluated with the per-unit-length
    // wire parameters just downstream (right) vs. just upstream (left)
    // of the repeater.
    auto one_sided = [&](const net::WirePiece& wire) {
      return co * wire.r_ohm_per_um * (w - w_next) +
             rs * wire.c_ff_per_um * (1.0 / w_prev - 1.0 / w) +
             wire.c_ff_per_um * r_up_total -
             wire.r_ohm_per_um * c_down_total;
    };
    derivs[i].right =
        one_sided(net.wire_at(positions_um[i], net::Side::kDownstream));
    derivs[i].left =
        one_sided(net.wire_at(positions_um[i], net::Side::kUpstream));
  }
  return derivs;
}

namespace {

constexpr double kMinSeparationUm = 1.0;  // keep repeaters apart, off pins

/// Resolve a proposed move target against forbidden zones. Returns true
/// if the (possibly adjusted) target is usable.
bool resolve_zone(const net::Net& net, bool moving_downstream,
                  bool allow_zone_hop, double& target_um) {
  const int zone = net.zone_index_at(target_um);
  if (zone < 0) return true;
  if (!allow_zone_hop) return false;
  // Hop to the far boundary of the zone in the direction of motion
  // (boundaries themselves are legal placements).
  const auto& z = net.zones()[static_cast<std::size_t>(zone)];
  target_um = moving_downstream ? z.end_um : z.start_um;
  return true;
}

}  // namespace

int move_repeaters(const net::Net& net, const tech::RepeaterDevice& device,
                   std::vector<double>& positions_um,
                   const std::vector<double>& widths_u, double step_um,
                   bool allow_zone_hop) {
  RIP_REQUIRE(step_um > 0, "movement step must be positive");
  const auto derivs =
      location_derivatives(net, device, positions_um, widths_u);
  const double total = net.total_length_um();
  const std::size_t n = positions_um.size();
  int moved = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const bool want_down = derivs[i].right < 0;  // violates Eq. (22)
    const bool want_up = derivs[i].left > 0;     // violates Eq. (23)
    if (!want_down && !want_up) continue;
    bool downstream;
    if (want_down && want_up) {
      // Both violated: pick the direction promising the larger delay
      // reduction (Eq. 13 converts it into the larger width reduction).
      downstream = std::abs(derivs[i].right) >= std::abs(derivs[i].left);
    } else {
      downstream = want_down;
    }

    double target = positions_um[i] + (downstream ? step_um : -step_um);
    // Keep inside the net and away from the neighbours. The upstream
    // neighbour has already moved this pass; the downstream one has not.
    const double lo_bound =
        (i == 0 ? 0.0 : positions_um[i - 1]) + kMinSeparationUm;
    const double hi_bound =
        (i + 1 == n ? total : positions_um[i + 1]) - kMinSeparationUm;
    // Neighbours (or pins) under 2 um apart leave no legal spot.
    if (lo_bound > hi_bound) continue;
    target = std::clamp(target, lo_bound, hi_bound);
    if (!resolve_zone(net, downstream, allow_zone_hop, target))
      continue;  // the paper's rule: skip moves into forbidden zones
    target = std::clamp(target, lo_bound, hi_bound);
    if (net.in_forbidden_zone(target)) continue;  // clamp re-entered a zone
    if (std::abs(target - positions_um[i]) < 1e-9) continue;
    positions_um[i] = target;
    ++moved;
  }
  return moved;
}

}  // namespace rip::analytical

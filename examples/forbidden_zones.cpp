// Forbidden zones in practice: the same routed net with (a) no macro
// blockage, (b) a large central blockage, and (c) the blockage plus the
// Section 7 "hop across zones" REFINE extension. Shows how blockages
// push repeaters to the zone boundaries, cost power, and how much of
// that cost hopping recovers.
//
//   $ ./examples/forbidden_zones

#include <iostream>

#include "core/rip.hpp"
#include "dp/min_delay.hpp"
#include "net/net.hpp"
#include "tech/technology.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

rip::net::Net make_net(const rip::tech::Technology& tech, bool with_zone) {
  using namespace rip;
  const auto& m4 = tech.layer("metal4");
  const auto& m5 = tech.layer("metal5");
  net::NetBuilder b(with_zone ? "blocked" : "open");
  b.driver(120.0).receiver(60.0);
  b.segment(2400.0, m4.r_ohm_per_um, m4.c_ff_per_um, m4.name);
  b.segment(2200.0, m5.r_ohm_per_um, m5.c_ff_per_um, m5.name);
  b.segment(2500.0, m4.r_ohm_per_um, m4.c_ff_per_um, m4.name);
  b.segment(1900.0, m5.r_ohm_per_um, m5.c_ff_per_um, m5.name);
  b.segment(2300.0, m4.r_ohm_per_um, m4.c_ff_per_um, m4.name);
  if (with_zone) b.zone(3700.0, 7600.0);  // a 3.9 mm macro in the middle
  return b.build();
}

void report(const char* tag, const rip::core::RipResult& r) {
  using namespace rip;
  std::cout << tag << ": ";
  if (r.status != dp::Status::kOptimal) {
    std::cout << "TIMING VIOLATION (best effort "
              << fmt_unit(units::fs_to_ns(r.delay_fs), 3, "ns") << ")\n";
    return;
  }
  std::cout << "width " << fmt_f(r.total_width_u, 0) << " u, "
            << r.solution.size() << " repeaters at [";
  for (std::size_t i = 0; i < r.solution.size(); ++i) {
    if (i) std::cout << ", ";
    std::cout << fmt_f(r.solution.repeaters()[i].position_um / 1000.0, 2);
  }
  std::cout << "] mm, delay "
            << fmt_unit(units::fs_to_ns(r.delay_fs), 3, "ns") << "\n";
}

}  // namespace

int main() {
  using namespace rip;
  const tech::Technology tech = tech::make_tech180();
  const auto& dev = tech.device();

  const net::Net open_net = make_net(tech, false);
  const net::Net blocked_net = make_net(tech, true);

  // A shared absolute timing budget, set from the *blocked* net's
  // tau_min so every variant can meet it.
  const auto md = dp::min_delay(blocked_net, dev);
  const double tau_t = 1.25 * md.tau_min_fs;
  std::cout << "timing budget: " << fmt_unit(units::fs_to_ns(tau_t), 3, "ns")
            << " (1.25 x tau_min of the blocked net)\n";
  std::cout << "blockage: 3.7..7.6 mm of " << blocked_net.total_length_um() / 1000.0
            << " mm (" << fmt_f(100.0 * 3900.0 / blocked_net.total_length_um(), 0)
            << "% of the net)\n\n";

  const auto open_result = core::rip_insert(open_net, dev, tau_t);
  report("open net         ", open_result);

  const auto blocked_result = core::rip_insert(blocked_net, dev, tau_t);
  report("blocked net      ", blocked_result);

  core::RipOptions hop;
  hop.refine.allow_zone_hop = true;
  const auto hop_result = core::rip_insert(blocked_net, dev, tau_t, hop);
  report("blocked + hopping", hop_result);

  if (open_result.status == dp::Status::kOptimal &&
      blocked_result.status == dp::Status::kOptimal) {
    const double cost = (blocked_result.total_width_u -
                         open_result.total_width_u) /
                        open_result.total_width_u * 100.0;
    std::cout << "\nblockage cost: " << fmt_f(cost, 1)
              << " % extra repeater width (repeaters cannot sit inside "
                 "the macro, so they crowd its boundaries)\n";
  }
  return 0;
}

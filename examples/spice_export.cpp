// Design-to-signoff hand-off: run RIP on a net, validate the solution
// with the built-in transient simulator, then export a SPICE deck for an
// external circuit simulator. Also demonstrates the netlist format
// (net/netlist_io.hpp) for exchanging routed nets.
//
//   $ ./examples/spice_export            # deck to rip_solution.sp
//   $ ./examples/spice_export mynet.net  # a one-record netlist file

#include <fstream>
#include <iostream>

#include "core/rip.hpp"
#include "dp/min_delay.hpp"
#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "rc/buffered_chain.hpp"
#include "sim/spice.hpp"
#include "sim/transient.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) try {
  using namespace rip;
  const tech::Technology tech = tech::make_tech180();
  const auto& dev = tech.device();

  // Load a net from a file if given; otherwise draw one from the paper's
  // population.
  net::Net n = [&] {
    if (argc > 1) return net::read_single_net(argv[1]);
    const auto wl = eval::make_paper_workload(tech, 1, 1717);
    return wl.front().net;
  }();
  std::cout << "net '" << n.name() << "': " << n.segments().size()
            << " segments, " << n.total_length_um() / 1000.0 << " mm\n";

  // Echo the net as a one-record text netlist (the interchange format).
  std::cout << "\n--- ripnetlist ---\n";
  net::NetlistWriter(std::cout, net::NetlistFormat::kText, "stdout").add(n);

  const auto md = dp::min_delay(n, dev);
  const double tau_t = 1.3 * md.tau_min_fs;
  const auto rip = core::rip_insert(n, dev, tau_t);
  if (rip.status != dp::Status::kOptimal) {
    std::cout << "target infeasible — nothing to export\n";
    return 1;
  }
  std::cout << "\nRIP solution: " << rip.solution.size()
            << " repeaters, width " << fmt_f(rip.total_width_u, 0)
            << " u, Elmore delay "
            << fmt_unit(units::fs_to_ns(rip.delay_fs), 3, "ns") << "\n";

  // Cross-check with the internal transient simulator before export.
  sim::TransientOptions sim_opts;
  sim_opts.max_section_um = 100.0;
  const double t50 = sim::chain_t50_fs(n, rip.solution, dev, sim_opts);
  std::cout << "transient 50% delay: "
            << fmt_unit(units::fs_to_ns(t50), 3, "ns")
            << " (Elmore is a conservative upper bound)\n";

  const std::string path = "rip_solution.sp";
  std::ofstream out(path);
  sim::SpiceOptions spice_opts;
  spice_opts.vdd_v = tech.power().vdd_v;
  sim::write_spice_deck(out, n, rip.solution, dev, spice_opts);
  std::cout << "SPICE deck written to " << path
            << " (switch-level repeater models, .measure t50 included)\n";
  return 0;
} catch (const rip::Error& e) {
  std::cerr << "error: " << e.what() << "\n";  // e.g. a malformed net file
  return 2;
}

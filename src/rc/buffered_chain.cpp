#include "rc/buffered_chain.hpp"

#include "rc/elmore.hpp"
#include "util/error.hpp"

namespace rip::rc {

BufferedChain::BufferedChain(const net::Net& net,
                             const net::RepeaterSolution& solution,
                             const tech::RepeaterDevice& device)
    : device_(device) {
  const double total = net.total_length_um();
  const auto& reps = solution.repeaters();
  for (const auto& r : reps) {
    RIP_REQUIRE(r.position_um > 0 && r.position_um < total,
                "repeater position outside the net interior");
  }

  stages_.reserve(reps.size() + 1);
  double from = 0.0;
  double driver_w = net.driver_width_u();
  for (std::size_t i = 0; i <= reps.size(); ++i) {
    const bool last = (i == reps.size());
    const double to = last ? total : reps[i].position_um;
    const double load_w = last ? net.receiver_width_u() : reps[i].width_u;
    Stage stage;
    stage.driver_width_u = driver_w;
    stage.load_width_u = load_w;
    stage.from_um = from;
    stage.to_um = to;
    stage.pieces = net.pieces_between(from, to);
    stage.wire_resistance_ohm = net.resistance_between_ohm(from, to);
    stage.wire_capacitance_ff = net.capacitance_between_ff(from, to);
    stages_.push_back(std::move(stage));
    from = to;
    if (!last) driver_w = reps[i].width_u;
  }
}

void BufferedChain::set_widths(const std::vector<double>& widths_u) {
  RIP_REQUIRE(widths_u.size() + 1 == stages_.size(),
              "one width per repeater");
  for (std::size_t i = 0; i < widths_u.size(); ++i) {
    stages_[i].load_width_u = widths_u[i];
    stages_[i + 1].driver_width_u = widths_u[i];
  }
}

double BufferedChain::stage_delay_fs(std::size_t i) const {
  RIP_REQUIRE(i < stages_.size(), "stage index out of range");
  const Stage& s = stages_[i];
  return stage_elmore_fs(device_, s.driver_width_u, s.pieces,
                         device_.co_ff * s.load_width_u);
}

double BufferedChain::total_delay_fs() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) sum += stage_delay_fs(i);
  return sum;
}

double elmore_delay_fs(const net::Net& net,
                       const net::RepeaterSolution& solution,
                       const tech::RepeaterDevice& device) {
  return BufferedChain(net, solution, device).total_delay_fs();
}

}  // namespace rip::rc

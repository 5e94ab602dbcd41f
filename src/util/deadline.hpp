#pragma once

/// @file deadline.hpp
/// Cooperative per-case deadlines. A `Deadline` is a steady-clock
/// budget; long-running solve stages call `check("stage")` at safe
/// points and a blown budget surfaces as `DeadlineExceeded` — an
/// ordinary (non-transient) rip::Error, so it settles a future or
/// quarantines a record without poisoning the batch, and is never
/// retried (re-running an over-budget case would blow the budget
/// again).

#include <chrono>
#include <string>

#include "util/error.hpp"

namespace rip {

/// Thrown by Deadline::check when the budget has elapsed.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

class Deadline {
 public:
  /// An inactive deadline: check() never throws.
  Deadline() = default;

  /// Starts the clock now. A non-positive budget means no deadline; a
  /// budget past the steady clock's remaining range (infinity included)
  /// expires at time_point::max(), that is, never.
  explicit Deadline(double budget_ms) {
    if (budget_ms > 0.0) {
      using Clock = std::chrono::steady_clock;
      active_ = true;
      budget_ms_ = budget_ms;
      const Clock::time_point now = Clock::now();
      const Clock::duration left = Clock::time_point::max() - now;
      expires_at_ = Clock::time_point::max();
      // Compared in double first, so the tick conversion below cannot
      // overflow; then in ticks, so now + budget cannot.
      if (budget_ms <
          std::chrono::duration<double, std::milli>(left).count()) {
        const auto budget = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(budget_ms));
        if (budget < left) expires_at_ = now + budget;
      }
    }
  }

  bool active() const { return active_; }

  bool expired() const {
    return active_ && std::chrono::steady_clock::now() >= expires_at_;
  }

  /// Throw DeadlineExceeded if the budget is gone; `stage` names the
  /// cooperative check point for the error message.
  void check(const char* stage) const {
    if (expired()) {
      throw DeadlineExceeded("case deadline of " +
                             std::to_string(budget_ms_) + " ms exceeded at " +
                             stage);
    }
  }

 private:
  bool active_ = false;
  double budget_ms_ = 0.0;
  std::chrono::steady_clock::time_point expires_at_{};
};

}  // namespace rip

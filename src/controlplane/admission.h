// Backpressure primitive for the multi-job control plane.
//
// WatermarkGate is the classic two-threshold hysteresis signal: it engages
// when the observed depth reaches the high watermark and releases only once
// the depth falls to the low one, so a queue hovering around one threshold
// does not flap the backpressure state every round.

#pragma once

#include <cstddef>

namespace streamtune::controlplane {

/// High/low watermark pair for a WatermarkGate.
struct WatermarkOptions {
  std::size_t high = 64;
  std::size_t low = 16;
};

/// Two-threshold hysteresis gate: engaged at depth >= high, released at
/// depth <= low.
class WatermarkGate {
 public:
  explicit WatermarkGate(WatermarkOptions options);

  /// Feeds the current depth; returns the engaged state after the update.
  bool Update(std::size_t depth);

  bool engaged() const { return engaged_; }
  int engage_count() const { return engage_count_; }
  int release_count() const { return release_count_; }

 private:
  WatermarkOptions options_;
  bool engaged_ = false;
  int engage_count_ = 0;
  int release_count_ = 0;
};

}  // namespace streamtune::controlplane

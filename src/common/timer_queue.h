// Virtual-time timer queue for the control plane's scheduler.
//
// The control plane schedules one future "decision due" event per live job
// and repeatedly asks for the earliest batch of due events.
//
// Determinism contract: PopDueBatch drains *all* events of the earliest
// occupied tick and returns them sorted by id, so the batch composition and
// order depend only on the schedule calls made, never on their order.
// Virtual time only moves forward: scheduling at or before the current tick
// lands in the next tick rather than the past.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace streamtune {

/// A virtual-time timer queue of int64 ids. Not thread-safe: one thread
/// schedules and pops (the control plane schedules only from AddJob and
/// from the serial fold after each decision wave).
class TimerQueue {
 public:
  /// `tick_minutes` (> 0) is the resolution: events inside the same tick
  /// are one batch.
  explicit TimerQueue(double tick_minutes) : tick_minutes_(tick_minutes) {}

  /// Schedules `id` at virtual time `due_minutes` (clamped to the tick after
  /// `now_minutes()` when not in the future). Ids are not deduplicated:
  /// scheduling twice yields two events.
  void Schedule(int64_t id, double due_minutes);

  /// Advances the clock to the earliest occupied tick and returns every id
  /// due there, sorted ascending. Empty result means no timers are pending.
  std::vector<int64_t> PopDueBatch();

  /// Virtual minutes of the last popped tick (0 before the first pop).
  double now_minutes() const {
    return static_cast<double>(now_tick_) * tick_minutes_;
  }

  /// Pending events.
  size_t size() const { return size_; }

 private:
  const double tick_minutes_;
  std::map<int64_t, std::vector<int64_t>> ticks_;  // tick -> ids due there
  size_t size_ = 0;
  /// Tick of the last popped batch; events land strictly after it.
  int64_t now_tick_ = 0;
};

}  // namespace streamtune

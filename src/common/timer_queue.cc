#include "common/timer_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace streamtune {

void TimerQueue::Schedule(int64_t id, double due_minutes) {
  const double raw = std::floor(due_minutes / tick_minutes_);
  int64_t tick =
      raw >= static_cast<double>(std::numeric_limits<int64_t>::max() / 2)
          ? std::numeric_limits<int64_t>::max() / 2
          : static_cast<int64_t>(raw);
  // Virtual time never runs backwards: anything at or before the current
  // tick fires in the next batch instead.
  tick = std::max(tick, now_tick_ + 1);
  ticks_[tick].push_back(id);
  ++size_;
}

std::vector<int64_t> TimerQueue::PopDueBatch() {
  if (ticks_.empty()) return {};
  auto first = ticks_.begin();
  now_tick_ = first->first;
  std::vector<int64_t> due = std::move(first->second);
  ticks_.erase(first);
  size_ -= due.size();
  // Canonical order: batch content is a pure function of the schedule
  // calls, independent of insertion order.
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace streamtune

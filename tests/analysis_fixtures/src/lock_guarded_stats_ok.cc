// Fixture: the mutable-stats pattern done right — const query methods and
// copy helpers take the stats mutex before touching the guarded counters
// (a const query path that counts its calls) — st-lock-guarded-by is silent.
#include <mutex>

#include "common/annotations.h"

namespace fixture {

class SafeQueryStats {
 public:
  void Record(int evaluated) const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    queries_ += 1;
    evaluated_ += evaluated;
  }

  void CopyFrom(const SafeQueryStats& other) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    queries_ = 0;
    (void)other;
  }

  long long queries() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return queries_;
  }

 private:
  mutable std::mutex stats_mu_;
  mutable long long queries_ STREAMTUNE_GUARDED_BY(stats_mu_) = 0;
  mutable long long evaluated_ STREAMTUNE_GUARDED_BY(stats_mu_) = 0;
};

}  // namespace fixture

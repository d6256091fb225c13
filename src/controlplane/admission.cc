#include "controlplane/admission.h"

namespace streamtune::controlplane {

WatermarkGate::WatermarkGate(WatermarkOptions options) : options_(options) {
  // A degenerate config (low >= high) still behaves sanely: release
  // strictly below engage.
  if (options_.low >= options_.high && options_.high > 0) {
    options_.low = options_.high - 1;
  }
}

bool WatermarkGate::Update(std::size_t depth) {
  if (!engaged_ && depth >= options_.high) {
    engaged_ = true;
    ++engage_count_;
  } else if (engaged_ && depth <= options_.low) {
    engaged_ = false;
    ++release_count_;
  }
  return engaged_;
}

}  // namespace streamtune::controlplane

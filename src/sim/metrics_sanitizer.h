// Metric sample checks for the hardened tuning loop.
//
// Production metric systems return garbage under load: NaN gauges, negative
// counters, out-of-range fractions. JobMetrics::Validate (defined here)
// rejects such samples, and baselines::RobustLoop replaces a rejected sample
// by the MedianOfSamples of fresh re-measurements.

#pragma once

#include <vector>

#include "sim/flink_simulator.h"

namespace streamtune::sim {

/// Component-wise median of samples (majority vote for booleans). `samples`
/// must be non-empty and agree on the operator count.
JobMetrics MedianOfSamples(const std::vector<JobMetrics>& samples);

}  // namespace streamtune::sim

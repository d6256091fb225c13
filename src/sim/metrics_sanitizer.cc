#include "sim/metrics_sanitizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <string>

namespace streamtune::sim {

namespace {

/// Slack allowed on the invariants (floating-point dust).
constexpr double kTolerance = 1e-6;

bool FiniteInRange(double x, double lo, double hi) {
  return std::isfinite(x) && x >= lo && x <= hi;
}

Status BadOp(int v, const char* field, double value) {
  return Status::OutOfRange("corrupt metric sample: op " + std::to_string(v) +
                            " " + field + " = " + std::to_string(value));
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

bool Majority(const std::vector<bool>& xs) {
  int yes = 0;
  for (bool x : xs) yes += x ? 1 : 0;
  return 2 * yes > static_cast<int>(xs.size());
}

}  // namespace

Status JobMetrics::Validate() const {
  if (!std::isfinite(lambda) || lambda <= 0 || lambda > 1.0 + kTolerance) {
    return Status::OutOfRange("corrupt metric sample: lambda = " +
                              std::to_string(lambda));
  }
  if (!std::isfinite(used_cores) || used_cores < -kTolerance) {
    return Status::OutOfRange("corrupt metric sample: used_cores = " +
                              std::to_string(used_cores));
  }
  if (total_parallelism < static_cast<int>(ops.size())) {
    return Status::OutOfRange(
        "corrupt metric sample: total_parallelism = " +
        std::to_string(total_parallelism) + " below operator count");
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const int v = static_cast<int>(i);
    const OperatorMetrics& om = ops[i];
    if (!FiniteInRange(om.busy_frac, -kTolerance, 1.0 + kTolerance)) {
      return BadOp(v, "busy_frac", om.busy_frac);
    }
    if (!FiniteInRange(om.idle_frac, -kTolerance, 1.0 + kTolerance)) {
      return BadOp(v, "idle_frac", om.idle_frac);
    }
    if (!FiniteInRange(om.backpressured_frac, -kTolerance, 1.0 + kTolerance)) {
      return BadOp(v, "backpressured_frac", om.backpressured_frac);
    }
    if (!FiniteInRange(om.cpu_load, -kTolerance, 1.0 + kTolerance)) {
      return BadOp(v, "cpu_load", om.cpu_load);
    }
    if (!std::isfinite(om.input_rate) || om.input_rate < -kTolerance) {
      return BadOp(v, "input_rate", om.input_rate);
    }
    if (!std::isfinite(om.output_rate) || om.output_rate < -kTolerance) {
      return BadOp(v, "output_rate", om.output_rate);
    }
    if (!std::isfinite(om.desired_input_rate) ||
        om.desired_input_rate < -kTolerance) {
      return BadOp(v, "desired_input_rate", om.desired_input_rate);
    }
    // Tuners divide by useful time; zero or negative readings would turn
    // into infinite capacity estimates. Unlike the true time fractions this
    // is a noisy relative observation (busy * (1 + eps), eps clamped at
    // +-2.5 sigma) and legitimately exceeds 1 on busy operators, so the
    // upper bound only rejects wildly corrupt values.
    if (!std::isfinite(om.useful_time_frac_observed) ||
        om.useful_time_frac_observed <= 0 ||
        om.useful_time_frac_observed > 2.0) {
      return BadOp(v, "useful_time_frac_observed",
                   om.useful_time_frac_observed);
    }
  }
  return Status::OK();
}

JobMetrics MedianOfSamples(const std::vector<JobMetrics>& samples) {
  assert(!samples.empty());
  if (samples.size() == 1) return samples[0];
  const size_t n_ops = samples[0].ops.size();
  JobMetrics out = samples[0];

  auto med = [&samples](const std::function<double(const JobMetrics&)>& get) {
    std::vector<double> xs;
    xs.reserve(samples.size());
    for (const JobMetrics& s : samples) xs.push_back(get(s));
    return Median(std::move(xs));
  };
  auto maj = [&samples](const std::function<bool(const JobMetrics&)>& get) {
    std::vector<bool> xs;
    xs.reserve(samples.size());
    for (const JobMetrics& s : samples) xs.push_back(get(s));
    return Majority(xs);
  };

  out.lambda = med([](const JobMetrics& s) { return s.lambda; });
  out.used_cores = med([](const JobMetrics& s) { return s.used_cores; });
  out.job_backpressure =
      maj([](const JobMetrics& s) { return s.job_backpressure; });
  out.severe_backpressure =
      maj([](const JobMetrics& s) { return s.severe_backpressure; });
  for (size_t v = 0; v < n_ops; ++v) {
    OperatorMetrics& om = out.ops[v];
    auto omed = [&](double OperatorMetrics::*field) {
      std::vector<double> xs;
      xs.reserve(samples.size());
      for (const JobMetrics& s : samples) xs.push_back(s.ops[v].*field);
      return Median(std::move(xs));
    };
    auto omaj = [&](bool OperatorMetrics::*field) {
      std::vector<bool> xs;
      xs.reserve(samples.size());
      for (const JobMetrics& s : samples) xs.push_back(s.ops[v].*field);
      return Majority(xs);
    };
    om.busy_frac = omed(&OperatorMetrics::busy_frac);
    om.idle_frac = omed(&OperatorMetrics::idle_frac);
    om.backpressured_frac = omed(&OperatorMetrics::backpressured_frac);
    om.cpu_load = omed(&OperatorMetrics::cpu_load);
    om.input_rate = omed(&OperatorMetrics::input_rate);
    om.output_rate = omed(&OperatorMetrics::output_rate);
    om.desired_input_rate = omed(&OperatorMetrics::desired_input_rate);
    om.useful_time_frac_observed =
        omed(&OperatorMetrics::useful_time_frac_observed);
    om.backpressured = omaj(&OperatorMetrics::backpressured);
    om.saturated = omaj(&OperatorMetrics::saturated);
  }
  return out;
}

}  // namespace streamtune::sim

#include <gtest/gtest.h>

#include "common/circuit_breaker.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer_queue.h"

namespace streamtune {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  ASSERT_TRUE(r.ok());
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ValueIfOk) {
  Result<int> good(42);
  ASSERT_NE(good.value_if_ok(), nullptr);
  EXPECT_EQ(*good.value_if_ok(), 42);
  Result<int> bad(Status::NotFound("missing"));
  EXPECT_EQ(bad.value_if_ok(), nullptr);
}

TEST(ResultTest, ValueOrMovesFallback) {
  Result<std::string> bad(Status::NotFound("missing"));
  EXPECT_EQ(std::move(bad).value_or(std::string("fb")), "fb");
  Result<std::string> good(std::string("hi"));
  EXPECT_EQ(std::move(good).value_or(std::string("fb")), "hi");
}

TEST(ResultDeathTest, ValueOnErrorAbortsInAllBuildTypes) {
  // Hardened Result: accessing the value of an errored Result must abort
  // with the status message, even in release builds.
  Result<int> r(Status::NotFound("the-missing-thing"));
  // The unchecked access is the point here.
  // NOLINTNEXTLINE(st-status-value)
  EXPECT_DEATH({ (void)r.value(); }, "the-missing-thing");
  EXPECT_DEATH({ (void)*r; }, "the-missing-thing");
}

TEST(TimerQueueTest, PopsBatchesInTimeOrderSortedById) {
  TimerQueue queue(0.5);
  queue.Schedule(7, 10.0);
  queue.Schedule(3, 10.0);
  queue.Schedule(11, 10.2);  // same 0.5-minute tick as 10.0
  queue.Schedule(5, 4.0);
  EXPECT_EQ(queue.size(), 4u);

  std::vector<int64_t> first = queue.PopDueBatch();
  EXPECT_EQ(first, (std::vector<int64_t>{5}));
  EXPECT_DOUBLE_EQ(queue.now_minutes(), 4.0);

  std::vector<int64_t> second = queue.PopDueBatch();
  EXPECT_EQ(second, (std::vector<int64_t>{3, 7, 11}));
  EXPECT_DOUBLE_EQ(queue.now_minutes(), 10.0);

  EXPECT_TRUE(queue.PopDueBatch().empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(TimerQueueTest, PastDueLandsInNextTickNeverBackwards) {
  TimerQueue queue(1.0);
  queue.Schedule(1, 5.0);
  (void)queue.PopDueBatch();
  EXPECT_DOUBLE_EQ(queue.now_minutes(), 5.0);
  queue.Schedule(2, 3.0);  // in the past: fires at the next tick instead
  std::vector<int64_t> due = queue.PopDueBatch();
  EXPECT_EQ(due, (std::vector<int64_t>{2}));
  EXPECT_DOUBLE_EQ(queue.now_minutes(), 6.0);
}

TEST(TimerQueueTest, FarFutureEventsPopInOrder) {
  TimerQueue queue(1.0);
  queue.Schedule(3, 5000.0);
  queue.Schedule(2, 100.0);
  queue.Schedule(1, 3.0);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.PopDueBatch(), (std::vector<int64_t>{1}));
  EXPECT_EQ(queue.PopDueBatch(), (std::vector<int64_t>{2}));
  EXPECT_DOUBLE_EQ(queue.now_minutes(), 100.0);
  EXPECT_EQ(queue.PopDueBatch(), (std::vector<int64_t>{3}));
  EXPECT_DOUBLE_EQ(queue.now_minutes(), 5000.0);
}

TEST(TimerQueueTest, BatchOrderIndependentOfInsertionOrder) {
  // Reversed insertion order must pop identical batches: determinism
  // cannot leak scheduling detail.
  TimerQueue a(0.5), b(0.5);
  for (int64_t id = 0; id < 100; ++id) a.Schedule(id, 7.0 + (id % 3));
  for (int64_t id = 99; id >= 0; --id) b.Schedule(id, 7.0 + (id % 3));
  for (;;) {
    std::vector<int64_t> ba = a.PopDueBatch();
    std::vector<int64_t> bb = b.PopDueBatch();
    EXPECT_EQ(ba, bb);
    if (ba.empty()) break;
  }
}

TEST(CircuitBreakerTest, ClosedTripsOpenAtThreshold) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  opts.open_minutes = 10.0;
  CircuitBreaker breaker(opts);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trip_count(), 1);
  EXPECT_FALSE(breaker.AllowRequest(5.0));
  EXPECT_DOUBLE_EQ(breaker.reopen_minutes(), 12.0);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_minutes = 10.0;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Cooldown elapsed: one probe allowed, a second refused.
  EXPECT_TRUE(breaker.AllowRequest(10.0));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest(10.0));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(10.0));
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensAndRearmsCooldown) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_minutes = 10.0;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(0.0);
  EXPECT_TRUE(breaker.AllowRequest(10.0));
  breaker.RecordFailure(10.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trip_count(), 2);
  EXPECT_FALSE(breaker.AllowRequest(15.0));
  EXPECT_DOUBLE_EQ(breaker.reopen_minutes(), 20.0);
  EXPECT_TRUE(breaker.AllowRequest(20.0));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.NextU64() != b.NextU64());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(w), 1u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(MathUtilTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 6}), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(MathUtilTest, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(MathUtilTest, MinMaxScaleClampsAndScales) {
  EXPECT_DOUBLE_EQ(MinMaxScale(5, 0, 10), 0.5);
  EXPECT_DOUBLE_EQ(MinMaxScale(-1, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(MinMaxScale(11, 0, 10), 1.0);
  EXPECT_DOUBLE_EQ(MinMaxScale(5, 5, 5), 0.0);  // degenerate range
}

TEST(MathUtilTest, SigmoidSymmetricAndStable) {
  EXPECT_DOUBLE_EQ(Sigmoid(0), 0.5);
  EXPECT_NEAR(Sigmoid(3) + Sigmoid(-3), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(1000), 1.0, 1e-12);  // no overflow
  EXPECT_NEAR(Sigmoid(-1000), 0.0, 1e-12);
}

TEST(MathUtilTest, EmpiricalCdfMonotone) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  auto cdf = EmpiricalCdf(xs, 5);
  ASSERT_EQ(cdf.size(), 5u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LE(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t("demo", {"a", "long-header"});
  t.AddRow({"x", "1"});
  t.AddRow({"yy", "2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| a  | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| x  | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace streamtune

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/svm.h"

namespace streamtune::ml {
namespace {

// Synthetic task: each sample has a 4-dim embedding whose first component
// encodes a per-operator bottleneck threshold; label 1 iff p < threshold.
std::vector<LabeledSample> ThresholdDataset(int n, Rng* rng) {
  std::vector<LabeledSample> data;
  for (int i = 0; i < n; ++i) {
    double knob = rng->Uniform();  // maps to threshold 10..50
    double threshold = 10 + 40 * knob;
    LabeledSample s;
    s.embedding = {knob, rng->Uniform(), rng->Uniform(), rng->Uniform()};
    s.parallelism = rng->UniformInt(1, 60);
    s.label = s.parallelism < threshold ? 1 : 0;
    data.push_back(std::move(s));
  }
  return data;
}

TEST(SvmTest, RejectsBadInput) {
  MonotonicSvm svm(4);
  EXPECT_FALSE(svm.Fit({}).ok());
  LabeledSample bad;
  bad.embedding = {1.0};  // wrong dimension
  EXPECT_FALSE(svm.Fit({bad}).ok());
}

TEST(SvmTest, LearnsThresholdTask) {
  Rng rng(42);
  auto data = ThresholdDataset(400, &rng);
  MonotonicSvm svm(4);
  ASSERT_TRUE(svm.Fit(data).ok());
  auto test = ThresholdDataset(200, &rng);
  int correct = 0;
  for (const auto& s : test) {
    if (svm.PredictBottleneck(s.embedding, s.parallelism) == (s.label == 1)) {
      ++correct;
    }
  }
  EXPECT_GT(correct, 160) << "accuracy " << correct / 200.0;
}

TEST(SvmTest, ParallelismWeightNonPositive) {
  Rng rng(7);
  MonotonicSvm svm(4);
  ASSERT_TRUE(svm.Fit(ThresholdDataset(200, &rng)).ok());
  EXPECT_LE(svm.parallelism_weight(), 0.0);
}

TEST(SvmTest, HandlesSingleClassData) {
  Rng rng(8);
  auto data = ThresholdDataset(100, &rng);
  for (auto& s : data) s.label = 0;
  MonotonicSvm svm(4);
  ASSERT_TRUE(svm.Fit(data).ok());
  // Prediction still defined and monotone.
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  EXPECT_GE(svm.PredictProbability(h, 1), svm.PredictProbability(h, 50));
}

// Property: P(bottleneck | h, p) is non-increasing in p for ANY embedding,
// by construction (w_p <= 0).
class SvmMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(SvmMonotonicityTest, ProbabilityNonIncreasingInParallelism) {
  Rng rng(100 + GetParam());
  MonotonicSvm svm(4);
  ASSERT_TRUE(svm.Fit(ThresholdDataset(150, &rng)).ok());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> h{rng.Uniform(), rng.Uniform(), rng.Uniform(),
                          rng.Uniform()};
    double prev = svm.PredictProbability(h, 1);
    for (int p = 2; p <= 100; ++p) {
      double cur = svm.PredictProbability(h, p);
      EXPECT_LE(cur, prev + 1e-12) << "p=" << p;
      prev = cur;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvmMonotonicityTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(SvmTest, DecisionValueConsistentWithProbability) {
  Rng rng(11);
  MonotonicSvm svm(4);
  ASSERT_TRUE(svm.Fit(ThresholdDataset(150, &rng)).ok());
  std::vector<double> h{0.3, 0.1, 0.9, 0.4};
  for (int p : {1, 10, 50}) {
    double f = svm.DecisionValue(h, p);
    double prob = svm.PredictProbability(h, p);
    EXPECT_EQ(f >= 0, prob >= 0.5);
  }
}

TEST(SvmTest, RffDeterministicPerSeed) {
  MonotonicSvm a(4), b(4);
  Rng rng(5);
  auto data = ThresholdDataset(100, &rng);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  std::vector<double> h{0.2, 0.4, 0.6, 0.8};
  EXPECT_DOUBLE_EQ(a.PredictProbability(h, 10), b.PredictProbability(h, 10));
}

}  // namespace
}  // namespace streamtune::ml
